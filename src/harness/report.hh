/**
 * @file
 * What the harness reports about a run. The counts themselves live
 * once, in RunResult::stats; this file defines the composites built
 * from them and the one column list that the CSV rows, the JSON
 * objects and gtscd's result lines print.
 */

#ifndef GTSC_HARNESS_REPORT_HH_
#define GTSC_HARNESS_REPORT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/stats.hh"

namespace gtsc::harness
{

/** Interconnect bytes, requests plus responses. */
std::uint64_t nocBytes(const RunResult &r);

/** Interconnect packets, requests plus responses. */
std::uint64_t nocPackets(const RunResult &r);

/** DRAM reads plus writes. */
std::uint64_t dramAccesses(const RunResult &r);

/** Packet latency over both networks, one distribution. */
sim::Distribution nocLatency(const RunResult &r);

/**
 * L1 hits as a percentage of all L1 probes (hits, cold and expired
 * misses); 0 when no probe reached an L1.
 */
double l1HitPercent(const RunResult &r);

/** Column names, comma-separated (no trailing newline). */
std::string csvHeader();

/** One result as a CSV row (no trailing newline). */
std::string csvRow(const RunResult &r);

/** Write header + rows to a file; fatal on I/O errors. */
void writeCsv(const std::string &path,
              const std::vector<RunResult> &results);

/** One result as a flat JSON object with the CSV's columns. */
std::string toJson(const RunResult &r);

/** Write a JSON array of results; fatal on I/O errors. */
void writeJson(const std::string &path,
               const std::vector<RunResult> &results);

/** Human-readable one-line summary of a run. */
std::string summaryLine(const RunResult &r);

} // namespace gtsc::harness

#endif // GTSC_HARNESS_REPORT_HH_
