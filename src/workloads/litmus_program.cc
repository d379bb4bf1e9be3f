/**
 * @file
 * LitmusSpec parsing/formatting and the interpreter workload that
 * executes a spec (see litmus_program.hh for the grammar).
 */

#include "workloads/litmus_program.hh"

#include <algorithm>
#include <cstdlib>

#include "sim/log.hh"
#include "workloads/common.hh"

namespace gtsc::workloads
{

namespace
{

/** Split `s` on `sep` (no empty-field suppression). */
std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true)
    {
        std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos)
        {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

/** Parse an unsigned decimal; false on empty/trailing garbage. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end == s.c_str() + s.size();
}

bool
fail(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Parse one op token (`W0=1`, `R1:r0`, `F`, `D20`). */
bool
parseOp(const std::string &tok, LitmusSpec::Op &op, std::string *err)
{
    std::uint64_t v = 0;
    if (tok == "F")
    {
        op.kind = LitmusSpec::Op::Kind::Fence;
        return true;
    }
    if (tok.size() >= 2 && tok[0] == 'D')
    {
        if (!parseU64(tok.substr(1), v) || v > 0xffff)
            return fail(err, "bad delay op '" + tok + "'");
        op.kind = LitmusSpec::Op::Kind::Delay;
        op.cycles = static_cast<std::uint16_t>(v);
        return true;
    }
    if (tok.size() >= 2 && tok[0] == 'W')
    {
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos)
            return fail(err, "bad store op '" + tok + "'");
        std::uint64_t loc = 0;
        if (!parseU64(tok.substr(1, eq - 1), loc) || loc > 0xff ||
            !parseU64(tok.substr(eq + 1), v) || v > 0xffffffffULL)
            return fail(err, "bad store op '" + tok + "'");
        op.kind = LitmusSpec::Op::Kind::Store;
        op.loc = static_cast<std::uint8_t>(loc);
        op.value = static_cast<std::uint32_t>(v);
        return true;
    }
    if (tok.size() >= 2 && tok[0] == 'R')
    {
        std::size_t colon = tok.find(":r");
        if (colon == std::string::npos)
            return fail(err, "bad load op '" + tok + "'");
        std::uint64_t loc = 0;
        if (!parseU64(tok.substr(1, colon - 1), loc) || loc > 0xff ||
            !parseU64(tok.substr(colon + 2), v) || v >= kLitmusMaxRegs)
            return fail(err, "bad load op '" + tok + "'");
        op.kind = LitmusSpec::Op::Kind::Load;
        op.loc = static_cast<std::uint8_t>(loc);
        op.reg = static_cast<std::uint8_t>(v);
        return true;
    }
    return fail(err, "unknown op '" + tok + "'");
}

/** Parse one forbid term (`t1.r0=1`). */
bool
parseTerm(const std::string &tok, LitmusSpec::Term &term, std::string *err)
{
    std::size_t dot = tok.find(".r");
    std::size_t eq = tok.find('=');
    std::uint64_t t = 0, r = 0, v = 0;
    if (tok.size() < 6 || tok[0] != 't' || dot == std::string::npos ||
        eq == std::string::npos || eq < dot ||
        !parseU64(tok.substr(1, dot - 1), t) || t > 0xff ||
        !parseU64(tok.substr(dot + 2, eq - dot - 2), r) ||
        r >= kLitmusMaxRegs || !parseU64(tok.substr(eq + 1), v) ||
        v > 0xffffffffULL)
        return fail(err, "bad forbid term '" + tok + "'");
    term.thread = static_cast<std::uint8_t>(t);
    term.reg = static_cast<std::uint8_t>(r);
    term.value = static_cast<std::uint32_t>(v);
    return true;
}

} // namespace

Addr
LitmusSpec::locAddr(unsigned loc) const
{
    GTSC_ASSERT(loc < locs.size(), "litmus loc index out of range");
    return lineAt(kSharedBase, locs[loc].line) +
           locs[loc].word * mem::kWordBytes;
}

Addr
LitmusSpec::resultAddr(unsigned thread, unsigned reg)
{
    return kResultBase +
           (Addr{thread} * kLitmusMaxRegs + reg) * mem::kWordBytes;
}

std::vector<std::uint8_t>
LitmusSpec::usedRegs(unsigned thread) const
{
    std::vector<std::uint8_t> regs;
    for (const Op &op : threads[thread])
        if (op.kind == Op::Kind::Load)
            regs.push_back(op.reg);
    std::sort(regs.begin(), regs.end());
    regs.erase(std::unique(regs.begin(), regs.end()), regs.end());
    return regs;
}

std::string
LitmusSpec::format() const
{
    std::string s = "v1;shape=" + shape + ";seed=" + std::to_string(seed);
    if (scOnly)
        s += ";sc_only=1";
    s += ";locs=";
    for (std::size_t i = 0; i < locs.size(); ++i)
    {
        if (i)
            s += ',';
        s += std::to_string(locs[i].line) + "." + std::to_string(locs[i].word);
    }
    for (const auto &ops : threads)
    {
        s += ";t=";
        for (std::size_t i = 0; i < ops.size(); ++i)
        {
            if (i)
                s += ',';
            const Op &op = ops[i];
            switch (op.kind)
            {
            case Op::Kind::Store:
                s += "W" + std::to_string(op.loc) + "=" +
                     std::to_string(op.value);
                break;
            case Op::Kind::Load:
                s += "R" + std::to_string(op.loc) + ":r" +
                     std::to_string(op.reg);
                break;
            case Op::Kind::Fence:
                s += "F";
                break;
            case Op::Kind::Delay:
                s += "D" + std::to_string(op.cycles);
                break;
            }
        }
    }
    if (!forbid.empty())
    {
        s += ";forbid=";
        for (std::size_t c = 0; c < forbid.size(); ++c)
        {
            if (c)
                s += '|';
            for (std::size_t t = 0; t < forbid[c].size(); ++t)
            {
                if (t)
                    s += '&';
                const Term &term = forbid[c][t];
                s += "t" + std::to_string(term.thread) + ".r" +
                     std::to_string(term.reg) + "=" +
                     std::to_string(term.value);
            }
        }
    }
    return s;
}

bool
LitmusSpec::parse(const std::string &s, LitmusSpec &out, std::string *err)
{
    out = LitmusSpec{};
    out.shape = "custom";
    std::vector<std::string> fields = split(s, ';');
    if (fields.empty() || fields[0] != "v1")
        return fail(err, "litmus spec must start with 'v1'");
    for (std::size_t f = 1; f < fields.size(); ++f)
    {
        const std::string &field = fields[f];
        std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            return fail(err, "field without '=': '" + field + "'");
        std::string key = field.substr(0, eq);
        std::string value = field.substr(eq + 1);
        std::uint64_t v = 0;
        if (key == "shape")
        {
            out.shape = value;
        }
        else if (key == "seed")
        {
            if (!parseU64(value, v))
                return fail(err, "bad seed '" + value + "'");
            out.seed = v;
        }
        else if (key == "sc_only")
        {
            out.scOnly = (value == "1");
        }
        else if (key == "locs")
        {
            for (const std::string &tok : split(value, ','))
            {
                std::size_t dot = tok.find('.');
                std::uint64_t line = 0, word = 0;
                if (dot == std::string::npos ||
                    !parseU64(tok.substr(0, dot), line) || line > 0xff ||
                    !parseU64(tok.substr(dot + 1), word) ||
                    word >= mem::kLineBytes / mem::kWordBytes)
                    return fail(err, "bad loc '" + tok + "'");
                out.locs.push_back(Loc{static_cast<std::uint8_t>(line),
                                       static_cast<std::uint8_t>(word)});
            }
        }
        else if (key == "t")
        {
            std::vector<Op> ops;
            if (!value.empty())
                for (const std::string &tok : split(value, ','))
                {
                    Op op;
                    if (!parseOp(tok, op, err))
                        return false;
                    ops.push_back(op);
                }
            out.threads.push_back(std::move(ops));
        }
        else if (key == "forbid")
        {
            for (const std::string &clause : split(value, '|'))
            {
                std::vector<Term> terms;
                for (const std::string &tok : split(clause, '&'))
                {
                    Term term;
                    if (!parseTerm(tok, term, err))
                        return false;
                    terms.push_back(term);
                }
                out.forbid.push_back(std::move(terms));
            }
        }
        else
        {
            return fail(err, "unknown field '" + key + "'");
        }
    }
    if (out.threads.empty())
        return fail(err, "litmus spec has no threads");
    for (const auto &ops : out.threads)
        for (const Op &op : ops)
            if ((op.kind == Op::Kind::Store || op.kind == Op::Kind::Load) &&
                op.loc >= out.locs.size())
                return fail(err, "op references loc out of range");
    for (const auto &clause : out.forbid)
        for (const Term &term : clause)
            if (term.thread >= out.threads.size())
                return fail(err, "forbid term references missing thread");
    return true;
}

namespace
{

/**
 * Interprets one litmus thread: runs the spec's ops, then stores each
 * loaded register to its result slot, fences and exits. The result
 * stores are what verify() and the forbidden-outcome oracle read.
 */
class LitmusThreadProgram final : public gpu::WarpProgram
{
  public:
    LitmusThreadProgram(const LitmusSpec &spec, unsigned thread)
        : spec_(spec), thread_(thread), resultRegs_(spec.usedRegs(thread))
    {}

    gpu::WarpInstr
    next() override
    {
        if (pendingReg_ >= 0)
        {
            regs_[pendingReg_] = observed_;
            pendingReg_ = -1;
        }
        const auto &ops = spec_.threads[thread_];
        if (pos_ < ops.size())
        {
            const LitmusSpec::Op &op = ops[pos_++];
            switch (op.kind)
            {
            case LitmusSpec::Op::Kind::Store:
                return gpu::WarpInstr::storeScalar(spec_.locAddr(op.loc),
                                                   op.value);
            case LitmusSpec::Op::Kind::Load:
                pendingReg_ = op.reg;
                return gpu::WarpInstr::loadScalar(spec_.locAddr(op.loc));
            case LitmusSpec::Op::Kind::Fence:
                return gpu::WarpInstr::fence();
            case LitmusSpec::Op::Kind::Delay:
                return gpu::WarpInstr::compute(op.cycles);
            }
        }
        if (resultPos_ < resultRegs_.size())
        {
            std::uint8_t reg = resultRegs_[resultPos_++];
            return gpu::WarpInstr::storeScalar(
                LitmusSpec::resultAddr(thread_, reg), regs_[reg]);
        }
        if (!finalFence_)
        {
            finalFence_ = true;
            return gpu::WarpInstr::fence();
        }
        return gpu::WarpInstr::exit();
    }

    void observe(std::uint32_t value) override { observed_ = value; }

  private:
    const LitmusSpec &spec_;
    unsigned thread_;
    std::vector<std::uint8_t> resultRegs_;
    std::size_t pos_ = 0;
    std::size_t resultPos_ = 0;
    bool finalFence_ = false;
    int pendingReg_ = -1;
    std::uint32_t observed_ = 0;
    std::uint32_t regs_[kLitmusMaxRegs] = {};
};

class LitmusWorkload final : public gpu::Workload
{
  public:
    explicit LitmusWorkload(LitmusSpec spec) : spec_(std::move(spec)) {}

    std::string name() const override { return "litmusgen:" + spec_.shape; }

    bool requiresCoherence() const override { return true; }

    void
    initMemory(mem::MainMemory &memory, unsigned) override
    {
        for (unsigned loc = 0; loc < spec_.locs.size(); ++loc)
            memory.writeWord(spec_.locAddr(loc), 0);
        for (unsigned t = 0; t < spec_.threads.size(); ++t)
            for (std::uint8_t reg : spec_.usedRegs(t))
                memory.writeWord(LitmusSpec::resultAddr(t, reg),
                                 kLitmusUnwritten);
    }

    std::unique_ptr<gpu::WarpProgram>
    makeProgram(unsigned, SmId sm, WarpId warp,
                const gpu::GpuParams &params) override
    {
        if (params.numSms < spec_.threads.size())
            GTSC_FATAL("litmus spec needs ", spec_.threads.size(),
                       " SMs but gpu.num_sms=", params.numSms);
        if (warp != 0 || sm >= spec_.threads.size())
            return std::make_unique<gpu::TraceProgram>(
                std::vector<gpu::WarpInstr>{});
        return std::make_unique<LitmusThreadProgram>(spec_, sm);
    }

    bool
    verify(const mem::MainMemory &memory) const override
    {
        // Every thread must have completed (written its result slots)
        for (unsigned t = 0; t < spec_.threads.size(); ++t)
            for (std::uint8_t reg : spec_.usedRegs(t))
                if (memory.readWord(LitmusSpec::resultAddr(t, reg)) ==
                    kLitmusUnwritten)
                    return false;
        return !forbiddenOutcome(memory);
    }

    /** True if any forbid clause is fully satisfied by the results. */
    bool
    forbiddenOutcome(const mem::MainMemory &memory) const
    {
        for (const auto &clause : spec_.forbid)
        {
            bool all = !clause.empty();
            for (const LitmusSpec::Term &term : clause)
                if (memory.readWord(LitmusSpec::resultAddr(
                        term.thread, term.reg)) != term.value)
                {
                    all = false;
                    break;
                }
            if (all)
                return true;
        }
        return false;
    }

    const LitmusSpec &spec() const { return spec_; }

  private:
    LitmusSpec spec_;
};

} // namespace

std::unique_ptr<gpu::Workload>
makeLitmusWorkload(LitmusSpec spec)
{
    return std::make_unique<LitmusWorkload>(std::move(spec));
}

std::unique_ptr<gpu::Workload>
makeLitmusGen(const sim::Config &cfg)
{
    std::string text = cfg.getString("verify.litmus_spec");
    if (text.empty())
        GTSC_FATAL("workload 'litmusgen' requires verify.litmus_spec");
    LitmusSpec spec;
    std::string err;
    if (!LitmusSpec::parse(text, spec, &err))
        GTSC_FATAL("bad verify.litmus_spec: ", err, " in '", text, "'");
    return makeLitmusWorkload(std::move(spec));
}

} // namespace gtsc::workloads
