#include "sim/config.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace gtsc::sim
{

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::setDouble(const std::string &key, double value)
{
    std::ostringstream oss;
    oss << value;
    values_[key] = oss.str();
}

void
Config::setBool(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t default_value) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        consulted_[key] = std::to_string(default_value);
        return default_value;
    }
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE)
        GTSC_FATAL("config key '", key, "' is not an integer: '",
                   it->second, "'");
    return v;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t default_value) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        consulted_[key] = std::to_string(default_value);
        return default_value;
    }
    // strtoull takes a sign and wraps "-1" to ULLONG_MAX, so the value
    // must start with a digit; ERANGE catches what does not fit.
    const std::string &text = it->second;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE)
        GTSC_FATAL("config key '", key, "' is not an unsigned integer: '",
                   text, "'");
    return v;
}

double
Config::getDouble(const std::string &key, double default_value) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        std::ostringstream oss;
        oss << default_value;
        consulted_[key] = oss.str();
        return default_value;
    }
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        GTSC_FATAL("config key '", key, "' is not a number: '",
                   it->second, "'");
    return v;
}

bool
Config::getBool(const std::string &key, bool default_value) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        consulted_[key] = default_value ? "true" : "false";
        return default_value;
    }
    const std::string &s = it->second;
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    GTSC_FATAL("config key '", key, "' is not a boolean: '", s, "'");
}

std::string
Config::getString(const std::string &key,
                  const std::string &default_value) const
{
    auto it = values_.find(key);
    if (it == values_.end()) {
        consulted_[key] = default_value;
        return default_value;
    }
    return it->second;
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

std::map<std::string, std::string>
Config::effective() const
{
    std::map<std::string, std::string> out = consulted_;
    for (const auto &kv : values_)
        out[kv.first] = kv.second;
    return out;
}

std::string
Config::toString() const
{
    std::ostringstream oss;
    for (const auto &kv : effective())
        oss << kv.first << "=" << kv.second << "\n";
    return oss.str();
}

std::string
Config::explicitString() const
{
    std::ostringstream oss;
    for (const auto &kv : values_)
        oss << kv.first << "=" << kv.second << "\n";
    return oss.str();
}

std::string
Config::canonicalValue(const std::string &value)
{
    // Boolean spellings getBool() accepts collapse to "1"/"0" (both
    // of which getBool() also accepts, so the meaning is preserved).
    if (value == "true" || value == "yes" || value == "on")
        return "1";
    if (value == "false" || value == "no" || value == "off")
        return "0";
    // Integer spellings collapse to canonical decimal using the same
    // parse getInt()/getUint() apply (strtoll, base 0): "0x10", "020"
    // and "16" all mean the same knob value to the simulator. A
    // partial parse ("1.5", "2x") or out-of-range value is kept
    // verbatim — normalization must never change what a getter sees.
    if (!value.empty()) {
        errno = 0;
        char *end = nullptr;
        long long v = std::strtoll(value.c_str(), &end, 0);
        if (end != value.c_str() && *end == '\0' && errno != ERANGE)
            return std::to_string(v);
    }
    return value;
}

std::string
Config::canonicalString() const
{
    std::ostringstream oss;
    for (const auto &kv : values_)
        oss << kv.first << "=" << canonicalValue(kv.second) << "\n";
    return oss.str();
}

} // namespace gtsc::sim
