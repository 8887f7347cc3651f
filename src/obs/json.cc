#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace wsl {

namespace {

/** Parser state: a cursor over the input plus an error slot. */
struct Parser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error;

    /** Guards against stack exhaustion on adversarial inputs. */
    static constexpr unsigned maxDepth = 64;

    bool
    fail(const std::string &message)
    {
        if (error.empty())
            error = message + " at byte " + std::to_string(pos);
        return false;
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    return fail("truncated escape");
                const char esc = text[pos++];
                switch (esc) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // degrade to their individual halves; the manifests
                    // we read never contain them).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xC0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xE0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3F)));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out.push_back(c);
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        const std::string token(text.substr(start, pos - start));
        if (token.empty() || token == "-")
            return fail("expected number");
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(out))
            return fail("malformed number '" + token + "'");
        return true;
    }

    bool
    parseValue(JsonValue &out, unsigned depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= text.size())
            return fail("unexpected end of input");
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out = JsonValue::makeObject();
            skipSpace();
            if (consume('}'))
                return true;
            while (true) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.set(std::move(key), std::move(member));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return true;
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out = JsonValue::makeArray();
            skipSpace();
            if (consume(']'))
                return true;
            while (true) {
                JsonValue item;
                if (!parseValue(item, depth + 1))
                    return false;
                out.append(std::move(item));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return true;
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out = JsonValue::makeString(std::move(s));
            return true;
        }
        if (c == 't') {
            out = JsonValue::makeBool(true);
            return literal("true");
        }
        if (c == 'f') {
            out = JsonValue::makeBool(false);
            return literal("false");
        }
        if (c == 'n') {
            out = JsonValue();
            return literal("null");
        }
        double n = 0;
        if (!parseNumber(n))
            return false;
        out = JsonValue::makeNumber(n);
        return true;
    }
};

} // namespace

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.valueKind = Kind::Bool;
    v.boolValue = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.valueKind = Kind::Number;
    v.numberValue = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.valueKind = Kind::String;
    v.stringValue = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.valueKind = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.valueKind = Kind::Object;
    return v;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (valueKind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : objectMembers)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue *
JsonValue::findObject(std::string_view key) const
{
    const JsonValue *v = find(key);
    return v && v->isObject() ? v : nullptr;
}

const JsonValue *
JsonValue::findArray(std::string_view key) const
{
    const JsonValue *v = find(key);
    return v && v->isArray() ? v : nullptr;
}

bool
JsonValue::hasNumber(std::string_view key) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber();
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
JsonValue::stringOr(std::string_view key,
                    const std::string &fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isString() ? v->asString() : fallback;
}

bool
JsonValue::boolOr(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v && v->isBool() ? v->asBool() : fallback;
}

void
JsonValue::append(JsonValue v)
{
    valueKind = Kind::Array;
    arrayItems.push_back(std::move(v));
}

void
JsonValue::set(std::string key, JsonValue v)
{
    valueKind = Kind::Object;
    for (auto &[name, value] : objectMembers) {
        if (name == key) {
            value = std::move(v);
            return;
        }
    }
    objectMembers.emplace_back(std::move(key), std::move(v));
}

void
JsonValue::write(std::ostream &os) const
{
    switch (valueKind) {
      case Kind::Null:
        os << "null";
        return;
      case Kind::Bool:
        os << (boolValue ? "true" : "false");
        return;
      case Kind::Number: {
        // Integers (the common case for counters) print exactly;
        // everything else gets enough digits to round-trip.
        if (numberValue ==
                static_cast<double>(
                    static_cast<long long>(numberValue)) &&
            std::fabs(numberValue) < 1e15) {
            os << static_cast<long long>(numberValue);
        } else {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", numberValue);
            os << buf;
        }
        return;
      }
      case Kind::String:
        os << '"' << jsonEscaped(stringValue) << '"';
        return;
      case Kind::Array: {
        os << '[';
        for (std::size_t i = 0; i < arrayItems.size(); ++i) {
            if (i)
                os << ',';
            arrayItems[i].write(os);
        }
        os << ']';
        return;
      }
      case Kind::Object: {
        os << '{';
        for (std::size_t i = 0; i < objectMembers.size(); ++i) {
            if (i)
                os << ',';
            os << '"' << jsonEscaped(objectMembers[i].first) << "\":";
            objectMembers[i].second.write(os);
        }
        os << '}';
        return;
      }
    }
}

std::string
JsonValue::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    Parser p{text, 0, {}};
    if (!p.parseValue(out, 0)) {
        error = p.error;
        return false;
    }
    p.skipSpace();
    if (p.pos != text.size()) {
        error = "trailing garbage at byte " + std::to_string(p.pos);
        return false;
    }
    return true;
}

bool
loadJsonFile(const std::string &path, JsonValue &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!parseJson(buffer.str(), out, error)) {
        error = "'" + path + "': " + error;
        return false;
    }
    return true;
}

std::string
jsonEscaped(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace wsl
