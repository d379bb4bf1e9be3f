#include "verify/oracle.hh"

#include <algorithm>
#include <sstream>

namespace gtsc::verify
{

namespace
{

std::string
hex(Addr a)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << a;
    return oss.str();
}

/** Orders versions by word address (the runs' sort key). */
struct ByAddr
{
    bool
    operator()(const VersionOracle::Version &v, Addr a) const
    {
        return v.addr < a;
    }

    bool
    operator()(Addr a, const VersionOracle::Version &v) const
    {
        return a < v.addr;
    }
};

} // namespace

void
VersionOracle::onStoreTs(Addr word_addr, std::uint32_t epoch, Ts wts,
                         std::uint32_t value, SmId sm, WarpId warp)
{
    (void)warp;
    auto &vs = state_.versions;
    // Appending to the word's run: insert after its last version.
    auto end = std::upper_bound(vs.begin(), vs.end(), word_addr, ByAddr{});
    if (end != vs.begin() && end[-1].addr == word_addr &&
        end[-1].epoch == epoch && wts <= end[-1].wts)
    {
        std::ostringstream oss;
        oss << "StoreWtsMonotone: store by sm" << sm << " at word "
            << hex(word_addr) << " epoch " << epoch << " wts " << wts
            << " value " << value << " not after previous version wts "
            << end[-1].wts << " value " << end[-1].value;
        violations_.push_back(oss.str());
    }
    vs.insert(end, Version{word_addr, wts, epoch, value});
}

void
VersionOracle::onLoadTs(Addr word_addr, std::uint32_t epoch, Ts ts,
                        std::uint32_t value, SmId sm, WarpId warp)
{
    (void)warp;
    // A load from an epoch older than the oracle's is a completion
    // that raced a reset inside the same settle window; its history
    // was collapsed, so it cannot be validated here. (The pre-reset
    // history already validated everything visible at that time.)
    if (epoch < state_.epoch)
        return;

    // A word never stored has an empty run: the load must see the
    // initial value the model wrote to backing memory, which the
    // oracle does not track — nothing to check.
    const auto [first, last] = std::equal_range(
        state_.versions.begin(), state_.versions.end(), word_addr,
        ByAddr{});
    // The version in force at logical time ts: the last one with
    // wts <= ts. Everything before the first version is the initial
    // memory value, which the oracle does not track.
    const Version *current = nullptr;
    for (auto v = first; v != last; ++v)
    {
        if (v->epoch == epoch && v->wts <= ts)
            current = &*v;
        if (v->epoch == epoch && v->wts > ts)
            break;
    }
    if (!current)
        return; // load logically before the first tracked store
    if (value != current->value)
    {
        std::ostringstream oss;
        oss << "LoadSerializability: load by sm" << sm << " at word "
            << hex(word_addr) << " epoch " << epoch << " ts " << ts
            << " observed " << value << " but version wts "
            << current->wts << " holds " << current->value;
        violations_.push_back(oss.str());
    }
}

void
VersionOracle::onEpochReset(std::uint32_t new_epoch)
{
    state_.epoch = new_epoch;
    // Keep the last version of each run, in place. The surviving
    // value re-enters the new epoch as the base version: L2 rewinds
    // the line to wts=1 keeping its data.
    auto &vs = state_.versions;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < vs.size(); ++i)
    {
        if (i + 1 < vs.size() && vs[i + 1].addr == vs[i].addr)
            continue;
        vs[kept++] = Version{vs[i].addr, 0, new_epoch, vs[i].value};
    }
    vs.resize(kept);
}

} // namespace gtsc::verify
