#include "serve/jsonl.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace gtsc::serve::json
{

const Value *
Value::get(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    const Value *found = nullptr;
    for (const auto &kv : object) {
        if (kv.first == key)
            found = &kv.second;
    }
    return found;
}

std::string
Value::asString() const
{
    switch (type) {
    case Type::String:
        return str;
    case Type::Bool:
        return boolean ? "true" : "false";
    case Type::Number: {
        // Integral numbers render without a decimal point so config
        // overrides like {"gpu.num_sms": 4} become "4", not "4.0".
        long long ll = static_cast<long long>(number);
        if (static_cast<double>(ll) == number)
            return std::to_string(ll);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number);
        return buf;
    }
    default:
        return "";
    }
}

namespace
{

class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    run(Value *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (error_)
            *error_ = why + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            pos_++;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out->type = Value::Type::String;
            return parseString(&out->str);
        }
        if (literal("true")) {
            out->type = Value::Type::Bool;
            out->boolean = true;
            return true;
        }
        if (literal("false")) {
            out->type = Value::Type::Bool;
            out->boolean = false;
            return true;
        }
        if (literal("null")) {
            out->type = Value::Type::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseObject(Value *out)
    {
        out->type = Value::Type::Object;
        pos_++; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            pos_++;
            skipWs();
            Value v;
            if (!parseValue(&v))
                return false;
            out->object.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == '}') {
                pos_++;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value *out)
    {
        out->type = Value::Type::Array;
        pos_++; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            Value v;
            if (!parseValue(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == ']') {
                pos_++;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string *out)
    {
        pos_++; // opening quote
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out->push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out->push_back(e);
                break;
            case 'b':
                out->push_back('\b');
                break;
            case 'f':
                out->push_back('\f');
                break;
            case 'n':
                out->push_back('\n');
                break;
            case 'r':
                out->push_back('\r');
                break;
            case 't':
                out->push_back('\t');
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode the BMP code point (surrogate pairs
                // are passed through as two 3-byte sequences; the
                // protocol carries ASCII identifiers in practice).
                if (cp < 0x80) {
                    out->push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out->push_back(
                        static_cast<char>(0xc0 | (cp >> 6)));
                    out->push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out->push_back(
                        static_cast<char>(0xe0 | (cp >> 12)));
                    out->push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f)));
                    out->push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value *out)
    {
        const char *start = text_.data() + pos_;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected value");
        pos_ += static_cast<std::size_t>(end - start);
        out->type = Value::Type::Number;
        out->number = v;
        return true;
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parse(std::string_view text, Value *out, std::string *error)
{
    *out = Value();
    return Parser(text, error).run(out);
}

} // namespace gtsc::serve::json
