#include "sim/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace gtsc::sim
{

namespace
{

using Knob = Config::Knob;
using Type = Config::Type;

/**
 * Every knob the simulator, the harness and the tools read, sorted
 * by name. docs/CONFIGURATION.md documents each one; a test keeps the
 * two in step.
 */
constexpr Knob kKnobs[] = {
    {"check.enabled", Type::Bool, "true"},
    {"dram.banks", Type::Uint, "8"},
    {"dram.bus_bytes_per_cycle", Type::Uint, "16"},
    {"dram.row_bytes", Type::Uint, "2048"},
    {"dram.sched_window", Type::Uint, "16"},
    {"dram.scheduler", Type::String, "fcfs"},
    {"dram.t_row_hit", Type::Uint, "40"},
    {"dram.t_row_miss", Type::Uint, "100"},
    {"energy.dram_access_pj", Type::Double, "2600"},
    {"energy.dram_static_pj_cycle", Type::Double, "500"},
    {"energy.instr_pj", Type::Double, "800"},
    {"energy.l1_data_pj", Type::Double, "65"},
    {"energy.l1_meta_gtsc_pj", Type::Double, "9"},
    {"energy.l1_meta_tc_pj", Type::Double, "6"},
    {"energy.l1_static_pj_cycle", Type::Double, "18"},
    {"energy.l1_tag_pj", Type::Double, "12"},
    {"energy.l2_access_pj", Type::Double, "240"},
    {"energy.l2_static_pj_cycle", Type::Double, "260"},
    {"energy.noc_byte_pj", Type::Double, "2.6"},
    {"energy.noc_static_pj_cycle", Type::Double, "220"},
    {"energy.sm_active_pj", Type::Double, "5000"},
    {"energy.sm_idle_pj", Type::Double, "1200"},
    {"gpu.consistency", Type::String, "rc"},
    {"gpu.flush_l2_between_kernels", Type::Bool, "true"},
    {"gpu.issue_width", Type::Uint, "1"},
    {"gpu.max_cycles", Type::Uint, "500000000"},
    {"gpu.num_partitions", Type::Uint, "8"},
    {"gpu.num_sms", Type::Uint, "16"},
    {"gpu.scheduler", Type::String, "gto"},
    {"gpu.spin_backoff_cycles", Type::Uint, "16"},
    {"gpu.warp_size", Type::Uint, "32"},
    {"gpu.warps_per_sm", Type::Uint, "48"},
    {"gpu.watchdog_cycles", Type::Uint, "400000"},
    {"gtsc.adaptive_lease", Type::Bool, "false"},
    {"gtsc.combine_mshr", Type::Bool, "true"},
    {"gtsc.lease", Type::Uint, "10"},
    {"gtsc.max_lease", Type::Uint, nullptr},
    {"gtsc.spin_ts_boost", Type::Uint, nullptr},
    {"gtsc.ts_bits", Type::Uint, "16"},
    {"gtsc.update_visibility", Type::String, "block"},
    {"gtsc.write_buffer_entries", Type::Uint, "8"},
    {"l1.assoc", Type::Uint, "4"},
    {"l1.hit_latency", Type::Uint, "4"},
    {"l1.mshr_entries", Type::Uint, "32"},
    {"l1.size_bytes", Type::Uint, "16384"},
    {"l2.access_latency", Type::Uint, "20"},
    {"l2.assoc", Type::Uint, "8"},
    {"l2.mshr_entries", Type::Uint, "32"},
    {"l2.partition_bytes", Type::Uint, "131072"},
    {"l2.ports", Type::Uint, "1"},
    {"noc.bytes_per_cycle", Type::Uint, "32"},
    {"noc.hop_latency", Type::Uint, "12"},
    {"noc.mesh_hop_latency", Type::Uint, "3"},
    {"noc.topology", Type::String, "xbar"},
    {"nol1.max_pending", Type::Uint, "256"},
    {"obs.ring_capacity", Type::Uint, "65536"},
    {"obs.sample_interval", Type::Uint, nullptr},
    {"obs.sample_keys", Type::String, ""},
    {"obs.trace", Type::Bool, "false"},
    {"obs.trace_dir", Type::String, ""},
    {"obs.transcript", Type::Bool, nullptr},
    {"obs.transcript_depth", Type::Uint, "64"},
    {"obs.transcript_filter", Type::String, ""},
    {"sweep.store", Type::Bool, "false"},
    {"sweep.store_max_bytes", Type::Uint, "268435456"},
    {"sweep.store_path", Type::String, ""},
    {"tc.lease", Type::Uint, "100"},
    {"tc.mode", Type::String, "auto"},
    {"verify.boosts", Type::Uint, "0"},
    {"verify.consistency", Type::String, "sc"},
    {"verify.evictions", Type::Bool, "true"},
    {"verify.lines", Type::Uint, "2"},
    {"verify.litmus_spec", Type::String, ""},
    {"verify.max_depth", Type::Uint, "64"},
    {"verify.max_epochs", Type::Uint, "3"},
    {"verify.max_outstanding", Type::Uint, "2"},
    {"verify.max_states", Type::Uint, "1000000"},
    {"verify.max_witnesses", Type::Uint, "1"},
    {"verify.mutation", Type::String, ""},
    {"verify.ops_per_thread", Type::Uint, "2"},
    {"verify.settle_cap", Type::Uint, "20000"},
    {"verify.sms", Type::Uint, "2"},
    {"wl.scale", Type::Double, "1"},
    {"wl.seed", Type::Uint, "1"},
};

static_assert(std::adjacent_find(std::begin(kKnobs), std::end(kKnobs),
                                 [](const Knob &a, const Knob &b) {
                                     return a.name >= b.name;
                                 }) == std::end(kKnobs),
              "kKnobs must be sorted by name with no repeats: lookups "
              "binary-search it");

const Knob *
findKnob(std::string_view key)
{
    const Knob *it = std::lower_bound(
        std::begin(kKnobs), std::end(kKnobs), key,
        [](const Knob &k, std::string_view key) { return k.name < key; });
    return it != std::end(kKnobs) && it->name == key ? it : nullptr;
}

bool
parseUint(const char *s, std::uint64_t *out)
{
    // strtoull takes a sign and wraps "-1" to ULLONG_MAX, so the value
    // must start with a digit; ERANGE catches what does not fit.
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    errno = 0;
    char *end = nullptr;
    *out = std::strtoull(s, &end, 0);
    return *end == '\0' && errno != ERANGE;
}

bool
parseDouble(const char *s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

bool
parseBool(const char *s, bool *out)
{
    std::string_view v = s;
    *out = v == "true" || v == "1" || v == "yes" || v == "on";
    return *out || v == "false" || v == "0" || v == "no" || v == "off";
}

/**
 * `text` spelled canonically for `type` into *out: an unsigned in
 * decimal, a boolean as "1"/"0", anything else verbatim. False when
 * it does not parse as `type`.
 */
bool
canonical(Type type, const std::string &text, std::string *out)
{
    std::uint64_t u = 0;
    double d = 0;
    bool b = false;
    if (type == Type::Uint && parseUint(text.c_str(), &u))
        *out = std::to_string(u);
    else if (type == Type::Bool && parseBool(text.c_str(), &b))
        *out = b ? "1" : "0";
    else if (type == Type::String ||
             (type == Type::Double && parseDouble(text.c_str(), &d)))
        *out = text;
    else
        return false;
    return true;
}

} // namespace

std::span<const Knob>
Config::knobs()
{
    return kKnobs;
}

void
Config::set(const std::string &key, const std::string &value)
{
    const Knob *k = findKnob(key);
    if (k == nullptr)
        GTSC_FATAL("unknown config key '", key, "'");
    std::string text;
    if (!canonical(k->type, value, &text)) {
        const char *what = k->type == Type::Uint   ? "an unsigned integer"
                           : k->type == Type::Bool ? "a boolean"
                                                   : "a number";
        GTSC_FATAL("config key '", key, "' is not ", what, ": '", value,
                   "'");
    }
    values_[key] = std::move(text);
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    set(key, std::to_string(value));
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream oss;
    oss << value;
    set(key, oss.str());
}

void
Config::setBool(const std::string &key, bool value)
{
    set(key, value ? "true" : "false");
}

bool
Config::has(std::string_view key) const
{
    return values_.find(key) != values_.end();
}

const char *
Config::text(std::string_view key, Type type) const
{
    const Knob *k = findKnob(key);
    if (k == nullptr || k->type != type)
        GTSC_PANIC("config key '", key,
                   "' is not declared with the type it is read as");
    auto it = values_.find(key);
    if (it != values_.end())
        return it->second.c_str();
    if (k->def == nullptr)
        GTSC_PANIC("config key '", key,
                   "' has a computed default: read it behind has()");
    return k->def;
}

// The getters need no error path: set() refuses what does not parse,
// and Config.DeclaredDefaultsParse checks the table's defaults.

std::uint64_t
Config::getUint(std::string_view key) const
{
    std::uint64_t v = 0;
    parseUint(text(key, Type::Uint), &v);
    return v;
}

double
Config::getDouble(std::string_view key) const
{
    double v = 0;
    parseDouble(text(key, Type::Double), &v);
    return v;
}

bool
Config::getBool(std::string_view key) const
{
    bool v = false;
    parseBool(text(key, Type::Bool), &v);
    return v;
}

std::string
Config::getString(std::string_view key) const
{
    return text(key, Type::String);
}

std::string
Config::getString(std::string_view key, const std::string &fallback) const
{
    auto it = values_.find(key);
    return it != values_.end() ? it->second : fallback;
}

bool
Config::parseOverride(const std::string &text)
{
    auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(text.substr(0, eq), text.substr(eq + 1));
    return true;
}

void
Config::parseOverrides(const std::vector<std::string> &items)
{
    for (const auto &item : items) {
        if (!parseOverride(item))
            GTSC_FATAL("malformed config override '", item,
                       "', expected key=value");
    }
}

void
Config::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        GTSC_FATAL("cannot open config file '", path, "'");
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        // Strip whitespace (also around '=').
        std::string stripped;
        for (char c : line) {
            if (!std::isspace(static_cast<unsigned char>(c)))
                stripped.push_back(c);
        }
        if (stripped.empty())
            continue;
        if (!parseOverride(stripped))
            GTSC_FATAL("config file ", path, " line ", line_no,
                       ": expected key=value, got '", line, "'");
    }
}

std::string
Config::toString() const
{
    std::string out;
    for (const Knob &k : kKnobs) {
        std::string value;
        auto it = values_.find(k.name);
        if (it != values_.end())
            value = it->second;
        else if (k.def != nullptr)
            canonical(k.type, k.def, &value);
        else {
            out.append("# ").append(k.name).append(" (computed)\n");
            continue;
        }
        out.append(k.name).append("=").append(value).append("\n");
    }
    return out;
}

std::string
Config::canonicalString() const
{
    std::string out;
    for (const auto &[key, value] : values_)
        out.append(key).append("=").append(value).append("\n");
    return out;
}

} // namespace gtsc::sim
