#include "workloads/trace_file.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "sim/log.hh"

namespace gtsc::workloads
{

namespace
{

/**
 * A field of type T: decimal digits, or 0x and hex digits, no sign
 * and no other text, and no larger than T holds (the caller must
 * never narrow a bigger value into a different one).
 */
template <typename T>
T
parseNum(const std::string &tok, unsigned line_no)
{
    bool hex = tok.size() > 2 && tok[0] == '0' &&
               (tok[1] == 'x' || tok[1] == 'X');
    std::size_t first = hex ? 2 : 0;
    if (tok.size() == first)
        GTSC_FATAL("trace line ", line_no, ": bad number '", tok, "'");
    const std::uint64_t max = std::numeric_limits<T>::max();
    const std::uint64_t base = hex ? 16 : 10;
    std::uint64_t v = 0;
    for (std::size_t i = first; i < tok.size(); ++i) {
        char c = tok[i];
        std::uint64_t d;
        if (c >= '0' && c <= '9')
            d = static_cast<std::uint64_t>(c - '0');
        else if (hex && c >= 'a' && c <= 'f')
            d = static_cast<std::uint64_t>(c - 'a' + 10);
        else if (hex && c >= 'A' && c <= 'F')
            d = static_cast<std::uint64_t>(c - 'A' + 10);
        else
            GTSC_FATAL("trace line ", line_no, ": bad number '", tok,
                       "'");
        if (v > (max - d) / base)
            GTSC_FATAL("trace line ", line_no, ": number '", tok,
                       "' is larger than its field holds (", max, ")");
        v = v * base + d;
    }
    return static_cast<T>(v);
}

} // namespace

TraceFileWorkload::TraceFileWorkload(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GTSC_FATAL("cannot open trace file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    name_ = "TRACE(" + path + ")";
    parse(buf.str());
}

std::unique_ptr<TraceFileWorkload>
TraceFileWorkload::fromString(const std::string &text,
                              const std::string &name)
{
    std::unique_ptr<TraceFileWorkload> wl(new TraceFileWorkload());
    wl->name_ = name;
    wl->parse(text);
    return wl;
}

void
TraceFileWorkload::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    unsigned line_no = 0;
    KernelTrace *kernel = nullptr;
    std::vector<gpu::WarpInstr> *program = nullptr;

    auto need_kernel = [&]() -> KernelTrace & {
        if (!kernel) {
            kernels_.emplace_back();
            kernel = &kernels_.back();
        }
        return *kernel;
    };
    auto need_program = [&](unsigned ln) -> std::vector<gpu::WarpInstr> & {
        if (!program)
            GTSC_FATAL("trace line ", ln,
                       ": instruction before any 'warp' directive");
        return *program;
    };

    while (std::getline(in, line)) {
        ++line_no;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string op;
        if (!(ls >> op))
            continue;
        std::vector<std::string> args;
        std::string tok;
        while (ls >> tok)
            args.push_back(tok);

        if (op == "kernel") {
            if (args.size() != 1)
                GTSC_FATAL("trace line ", line_no, ": kernel <n>");
            unsigned idx = parseNum<unsigned>(args[0], line_no);
            if (idx != kernels_.size())
                GTSC_FATAL("trace line ", line_no,
                           ": kernels must be declared in order; "
                           "expected ",
                           kernels_.size());
            kernels_.emplace_back();
            kernel = &kernels_.back();
            program = nullptr;
        } else if (op == "mem") {
            if (args.size() != 2)
                GTSC_FATAL("trace line ", line_no,
                           ": mem <addr> <value>");
            need_kernel().memInit.emplace_back(
                parseNum<Addr>(args[0], line_no),
                parseNum<std::uint32_t>(args[1], line_no));
        } else if (op == "warp") {
            if (args.size() != 2)
                GTSC_FATAL("trace line ", line_no, ": warp <sm> <warp>");
            KernelTrace &k = need_kernel();
            SmId sm = parseNum<SmId>(args[0], line_no);
            WarpId warp = parseNum<WarpId>(args[1], line_no);
            // Remember the directives naming the highest SM and warp:
            // makeProgram refuses them on a machine without those.
            if (k.highestSm.line == 0 || sm > k.highestSm.sm)
                k.highestSm = {sm, warp, line_no};
            if (k.highestWarp.line == 0 || warp > k.highestWarp.warp)
                k.highestWarp = {sm, warp, line_no};
            program = &k.programs[{sm, warp}];
        } else if (op == "ld") {
            if (args.empty() || args.size() > 2)
                GTSC_FATAL("trace line ", line_no, ": ld <addr> [mask]");
            std::uint32_t mask =
                args.size() == 2
                    ? parseNum<std::uint32_t>(args[1], line_no)
                    : 0x1u;
            need_program(line_no)
                .push_back(gpu::WarpInstr::loadStrided(
                    parseNum<Addr>(args[0], line_no), gpu::kMaxWarpSize,
                    4, mask));
        } else if (op == "st") {
            if (args.size() < 2 || args.size() > 3)
                GTSC_FATAL("trace line ", line_no,
                           ": st <addr> <value>|auto [mask]");
            std::uint32_t mask =
                args.size() == 3
                    ? parseNum<std::uint32_t>(args[2], line_no)
                    : 0x1u;
            gpu::WarpInstr instr = gpu::WarpInstr::storeStrided(
                parseNum<Addr>(args[0], line_no), gpu::kMaxWarpSize, 4,
                mask);
            if (args[1] != "auto") {
                instr.hasValue = true;
                instr.value = parseNum<std::uint32_t>(args[1], line_no);
            }
            need_program(line_no).push_back(instr);
        } else if (op == "cmp") {
            if (args.size() != 1)
                GTSC_FATAL("trace line ", line_no, ": cmp <cycles>");
            need_program(line_no)
                .push_back(gpu::WarpInstr::compute(
                    parseNum<std::uint32_t>(args[0], line_no)));
        } else if (op == "fence") {
            need_program(line_no).push_back(gpu::WarpInstr::fence());
        } else if (op == "spin") {
            if (args.size() < 2 || args.size() > 3)
                GTSC_FATAL("trace line ", line_no,
                           ": spin <addr> <expect> [maxiters]");
            std::uint32_t max_iters =
                args.size() == 3
                    ? parseNum<std::uint32_t>(args[2], line_no)
                    : 256u;
            need_program(line_no)
                .push_back(gpu::WarpInstr::spinUntil(
                    parseNum<Addr>(args[0], line_no),
                    parseNum<std::uint32_t>(args[1], line_no),
                    max_iters));
        } else {
            GTSC_FATAL("trace line ", line_no, ": unknown directive '",
                       op, "'");
        }
    }
    if (kernels_.empty())
        GTSC_FATAL("trace contains no kernels/instructions");
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
        if (kernels_[k].programs.empty() && kernels_[k].memInit.empty())
            GTSC_FATAL("trace kernel ", k,
                       ": empty (no warp programs or mem init)");
    }
}

unsigned
TraceFileWorkload::numKernels() const
{
    return static_cast<unsigned>(kernels_.size());
}

void
TraceFileWorkload::initMemory(mem::MainMemory &memory, unsigned kernel)
{
    for (const auto &[addr, value] : kernels_[kernel].memInit)
        memory.writeWord(addr, value);
}

std::unique_ptr<gpu::WarpProgram>
TraceFileWorkload::makeProgram(unsigned kernel, SmId sm, WarpId warp,
                               const gpu::GpuParams &params)
{
    // A program the machine has no SM or warp for would never run.
    const KernelTrace &k = kernels_[kernel];
    for (const Target &t : {k.highestSm, k.highestWarp}) {
        if (t.line != 0 &&
            (t.sm >= params.numSms || t.warp >= params.warpsPerSm)) {
            GTSC_FATAL("trace line ", t.line, ": 'warp ", t.sm, " ",
                       t.warp, "' names a warp the machine lacks (",
                       params.numSms, " SMs x ", params.warpsPerSm,
                       " warps)");
        }
    }
    const auto &programs = k.programs;
    auto it = programs.find({sm, warp});
    if (it == programs.end()) {
        return std::make_unique<gpu::TraceProgram>(
            std::vector<gpu::WarpInstr>{gpu::WarpInstr::exit()});
    }
    std::vector<gpu::WarpInstr> instrs = it->second;
    instrs.push_back(gpu::WarpInstr::exit());
    return std::make_unique<gpu::TraceProgram>(std::move(instrs));
}

} // namespace gtsc::workloads
