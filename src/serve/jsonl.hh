/**
 * @file
 * Minimal JSON parsing for the gtscd line-delimited protocol.
 * Supports the full JSON value grammar (objects, arrays, strings
 * with \uXXXX escapes, numbers, booleans, null) into a simple tagged
 * value; no external dependencies. Writing stays string-building at
 * the call sites (the protocol emits flat objects), with
 * sim::jsonEscape() for string payloads.
 */

#ifndef GTSC_SERVE_JSONL_HH_
#define GTSC_SERVE_JSONL_HH_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gtsc::serve::json
{

struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    /** Insertion order preserved; duplicate keys keep the last. */
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *get(std::string_view key) const;

    /**
     * Loose scalar-to-string coercion: strings verbatim, numbers
     * via shortest round-trip-ish %g, booleans "true"/"false".
     * Empty for null/array/object. Lets clients send config values
     * as native JSON types.
     */
    std::string asString() const;
};

/**
 * Parse one JSON document (trailing whitespace allowed, trailing
 * garbage rejected). Returns false with *error set on failure.
 */
bool parse(std::string_view text, Value *out, std::string *error);

} // namespace gtsc::serve::json

#endif // GTSC_SERVE_JSONL_HH_
