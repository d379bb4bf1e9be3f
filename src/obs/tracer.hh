/**
 * @file
 * Structured event tracer with per-component ring buffers.
 *
 * Components register a named track once (at attach time) and then
 * record events into it; each track keeps the most recent
 * `ringCapacity` events and counts the total ever recorded, so a
 * bounded-memory trace of an arbitrarily long run is always
 * available. Export is Chrome/Perfetto `trace_event` JSON: one
 * "thread" per track, loadable directly in chrome://tracing or
 * ui.perfetto.dev.
 *
 * The hot-path contract: components hold a raw `Tracer *` that is
 * nullptr when tracing is off, so the disabled cost is a single
 * predictable null test per would-be event.
 */

#ifndef GTSC_OBS_TRACER_HH_
#define GTSC_OBS_TRACER_HH_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.hh"

namespace gtsc::obs
{

class Tracer
{
  public:
    using TrackId = std::uint32_t;

    explicit Tracer(std::size_t ring_capacity = 65536);

    /**
     * Register (or look up) a track by name and return its id.
     * Registration is not hot-path; recording is.
     */
    TrackId track(const std::string &name);

    /** Record one event into a track's ring. */
    void
    record(TrackId t, const Event &e)
    {
        Track &tr = tracks_[t];
        if (tr.ring.size() < capacity_) {
            tr.ring.push_back(e);
        } else {
            tr.ring[tr.next] = e;
            if (++tr.next == capacity_)
                tr.next = 0;
        }
        ++tr.total;
    }

    std::size_t ringCapacity() const { return capacity_; }
    std::size_t numTracks() const { return tracks_.size(); }

    /** Total events recorded across all tracks (including dropped). */
    std::uint64_t totalRecorded() const;

    /** Events currently retained across all tracks. */
    std::uint64_t totalRetained() const;

    /**
     * Visit a track's retained events oldest-first. Returns the
     * track's total recorded count (> retained when the ring
     * wrapped). TrackId must come from track().
     */
    struct Track
    {
        std::string name;
        std::vector<Event> ring;
        std::size_t next = 0;    ///< overwrite cursor once full
        std::uint64_t total = 0; ///< events ever recorded
    };

    const std::vector<Track> &tracks() const { return tracks_; }

    /**
     * Export all tracks as Chrome `trace_event` JSON. Deterministic:
     * track order is registration order, event order is record
     * order. Timestamps are simulated cycles (1 cycle = 1 "us" in
     * the viewer's timeline).
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::size_t capacity_;
    std::vector<Track> tracks_;
};

} // namespace gtsc::obs

#endif // GTSC_OBS_TRACER_HH_
