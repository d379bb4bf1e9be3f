/**
 * @file
 * A small hierarchical configuration dictionary.
 *
 * Every knob is declared once, in the table in config.cc, with its
 * type and default. Components pull typed values out of the flat
 * "section.key" namespace by key alone, so a fully default-constructed
 * Config is a runnable configuration. Values can be overridden
 * programmatically or parsed from "key=value" strings (used by the
 * binaries); an undeclared key or a value that does not parse as the
 * knob's type is refused where it is set.
 */

#ifndef GTSC_SIM_CONFIG_HH_
#define GTSC_SIM_CONFIG_HH_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gtsc::sim
{

/** String-keyed configuration store with typed accessors. */
class Config
{
  public:
    /** The value type a knob is declared with. */
    enum class Type
    {
        Uint,
        Double,
        Bool,
        String
    };

    /**
     * One declared knob. A null `def` marks a knob whose default is
     * computed from other knobs at its one read site, which reads it
     * only behind has().
     */
    struct Knob
    {
        std::string_view name;
        Type type;
        const char *def;
    };

    /** Every declared knob, sorted by name. */
    static std::span<const Knob> knobs();

    Config() = default;

    /**
     * Set (or override) a value. Fatal when the key is not declared
     * or the value does not parse as the knob's type.
     */
    void set(const std::string &key, const std::string &value);
    void setInt(const std::string &key, std::int64_t value);
    void setDouble(const std::string &key, double value);
    void setBool(const std::string &key, bool value);

    /** True when the key has been explicitly set. */
    bool has(std::string_view key) const;

    /**
     * Typed getters: the set value, else the declared default. The
     * key must be declared with the getter's type.
     */
    std::uint64_t getUint(std::string_view key) const;
    double getDouble(std::string_view key) const;
    bool getBool(std::string_view key) const;
    std::string getString(std::string_view key) const;

    /**
     * The set text of any knob, else `fallback`. Only perfbench/
     * reads a knob this way.
     */
    std::string getString(std::string_view key,
                          const std::string &fallback) const;

    /**
     * Parse a single "key=value" override.
     * @return false when the string is not of that shape; fatal, as
     * set() is, on an undeclared key or an ill-typed value.
     */
    bool parseOverride(const std::string &text);

    /** Parse a list of overrides; fatal on malformed entries. */
    void parseOverrides(const std::vector<std::string> &items);

    /**
     * Load "key = value" lines from a file ('#' comments, blank
     * lines ignored); fatal on I/O or syntax errors and on what
     * set() refuses. Later settings override earlier ones.
     */
    void loadFile(const std::string &path);

    /**
     * Every declared knob, one "key=value" per line in table order:
     * the set value, else the default. A knob with a computed default
     * that is not set prints as a '#' comment line.
     */
    std::string toString() const;

    /**
     * The explicitly set values, one "key=value" per line sorted by
     * key, each normalized by its declared type: an unsigned value in
     * decimal ("0x10" -> "16"), a boolean as "1"/"0"; doubles and
     * strings stay verbatim. Two configs that set the same knobs to
     * the same values print the same text, however the values were
     * spelled. The sweep cell cache, the result store and trace file
     * names key on it.
     */
    std::string canonicalString() const;

  private:
    std::map<std::string, std::string, std::less<>> values_;

    /** The set text of a declared knob of `type`, else its default. */
    const char *text(std::string_view key, Type type) const;
};

} // namespace gtsc::sim

#endif // GTSC_SIM_CONFIG_HH_
