/**
 * @file
 * Runtime coherence checker.
 *
 * Records every globally performed store and validates every load
 * the moment it completes:
 *
 *  - G-TSC (logical time): per word, store write-timestamps must be
 *    strictly increasing within an epoch; a load at effective
 *    timestamp t must return the value of the store with the largest
 *    wts <= t in its epoch (or the carried-over latest value of an
 *    earlier epoch / the kernel's initial value).
 *
 *  - Physical-time protocols (TC, baselines): a load that returns
 *    data the L2 granted at cycle g and completes at cycle c must
 *    return a value whose version interval [performed, next-store)
 *    intersects [g, c] — i.e. the data was current at some point the
 *    protocol allows (TC permits lease-window staleness; reads from
 *    the future are violations).
 */

#ifndef GTSC_HARNESS_CHECKER_HH_
#define GTSC_HARNESS_CHECKER_HH_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/coherence_probe.hh"
#include "mem/main_memory.hh"
#include "sim/types.hh"

namespace gtsc::obs
{
class Transcript;
}

namespace gtsc::harness
{

class CoherenceChecker : public mem::CoherenceProbe
{
  public:
    void onStoreTs(Addr word_addr, std::uint32_t epoch, Ts wts,
                   std::uint32_t value, SmId sm, WarpId warp) override;
    void onLoadTs(Addr word_addr, std::uint32_t epoch, Ts ts,
                  std::uint32_t value, SmId sm, WarpId warp) override;
    void onStorePhys(Addr word_addr, Cycle when, std::uint32_t value,
                     SmId sm, WarpId warp) override;
    void onLoadPhys(Addr word_addr, Cycle grant, Cycle when,
                    std::uint32_t value, SmId sm, WarpId warp) override;
    void onEpochReset(std::uint32_t new_epoch) override;

    /**
     * Attach a protocol transcript (obs.transcript): violation
     * reports then end with the line's recent coherence-message
     * history, pointing straight at the first divergence.
     */
    void setTranscript(const obs::Transcript *transcript)
    {
        transcript_ = transcript;
    }

    /**
     * Kernel boundary: forget run history and re-snapshot base
     * values (host-side initMemory may have rewritten anything).
     */
    void snapshotBase(const mem::MainMemory &memory);

    std::uint64_t violations() const { return violations_; }
    std::uint64_t loadsChecked() const { return loadsChecked_; }
    std::uint64_t storesRecorded() const { return storesRecorded_; }

    /** First few violation descriptions (diagnostics). */
    const std::vector<std::string> &reports() const { return reports_; }

  private:
    struct TsVersion
    {
        std::uint32_t epoch;
        Ts wts;
        std::uint32_t value;
        SmId sm;
        WarpId warp;
    };

    struct PhysVersion
    {
        Cycle start;
        std::uint32_t value;
        SmId sm;
        WarpId warp;
    };

    std::uint32_t baseValue(Addr word_addr) const;
    void report(const std::string &what, Addr word_addr);

    /**
     * One lock per probe call, so a checker shared between threads
     * keeps its histories consistent. The simulator itself probes
     * from one thread; the lock is uncontended there.
     */
    std::mutex mutex_;

    std::unordered_map<Addr, std::vector<TsVersion>> tsHist_;
    std::unordered_map<Addr, std::vector<PhysVersion>> physHist_;
    mem::MainMemory base_;
    const obs::Transcript *transcript_ = nullptr;
    std::uint64_t violations_ = 0;
    std::uint64_t loadsChecked_ = 0;
    std::uint64_t storesRecorded_ = 0;
    std::vector<std::string> reports_;
};

} // namespace gtsc::harness

#endif // GTSC_HARNESS_CHECKER_HH_
