/**
 * @file
 * Trace-file workload: run instruction streams parsed from a plain
 * text file instead of a built-in generator, so users can replay
 * their own memory traces through any protocol.
 *
 * Format (one directive per line, '#' comments):
 *
 *   kernel <n>              start the instruction lists of kernel n
 *   mem <hexaddr> <value>   initialize a memory word before launch
 *   warp <sm> <warp>        following instructions belong to this warp
 *   ld <hexaddr> [mask]     load (lane-strided from addr, hex mask)
 *   st <hexaddr> <value>|auto [mask]   store
 *   cmp <cycles>            compute
 *   fence                   memory fence
 *   spin <hexaddr> <expect> [maxiters] spin-load until >= expect
 *
 * Numbers are decimal or 0x-prefixed hex, unsigned, and no larger
 * than their field holds (32-bit values, masks and cycle counts;
 * 16-bit SM and warp ids; 64-bit addresses). Warps not mentioned
 * exit immediately; a 'warp' directive naming an SM or warp the
 * machine lacks is an error when the kernel's programs are built.
 * Select with the registry name "trace:<path>".
 */

#ifndef GTSC_WORKLOADS_TRACE_FILE_HH_
#define GTSC_WORKLOADS_TRACE_FILE_HH_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/kernel.hh"

namespace gtsc::workloads
{

class TraceFileWorkload : public gpu::Workload
{
  public:
    /** Parse the trace; fatal on syntax errors (with line numbers). */
    explicit TraceFileWorkload(const std::string &path);

    /** Parse from an already-loaded string (tests). */
    static std::unique_ptr<TraceFileWorkload>
    fromString(const std::string &text, const std::string &name);

    std::string name() const override { return name_; }
    bool requiresCoherence() const override { return true; }
    unsigned numKernels() const override;

    void initMemory(mem::MainMemory &memory, unsigned kernel) override;

    std::unique_ptr<gpu::WarpProgram>
    makeProgram(unsigned kernel, SmId sm, WarpId warp,
                const gpu::GpuParams &params) override;

  private:
    TraceFileWorkload() = default;

    void parse(const std::string &text);

    /** A 'warp <sm> <warp>' directive and its line (0: none). */
    struct Target
    {
        SmId sm = 0;
        WarpId warp = 0;
        unsigned line = 0;
    };

    struct KernelTrace
    {
        std::vector<std::pair<Addr, std::uint32_t>> memInit;
        std::map<std::pair<unsigned, unsigned>,
                 std::vector<gpu::WarpInstr>>
            programs;
        /** The directives naming the highest SM and the highest
         *  warp, checked against the machine in makeProgram. */
        Target highestSm;
        Target highestWarp;
    };

    std::string name_ = "TRACE";
    std::vector<KernelTrace> kernels_;
};

} // namespace gtsc::workloads

#endif // GTSC_WORKLOADS_TRACE_FILE_HH_
