/**
 * @file
 * Minimal JSON document model and recursive-descent parser for the
 * observability tooling. The simulator has long *written* JSON (bench
 * reports, telemetry series, manifests); `wslicer-report` must also
 * *read* it back to validate manifests and diff two runs, and pulling
 * in an external dependency for that is off the table. The model is
 * deliberately small: numbers are doubles (every value we emit fits),
 * object key order is preserved for stable round-trips, and parse
 * errors carry a byte offset for actionable messages.
 */

#ifndef WSL_OBS_JSON_HH
#define WSL_OBS_JSON_HH

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wsl {

/** One JSON value; a tree of these is a document. */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double n);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();

    Kind kind() const { return valueKind; }
    bool isNull() const { return valueKind == Kind::Null; }
    bool isBool() const { return valueKind == Kind::Bool; }
    bool isNumber() const { return valueKind == Kind::Number; }
    bool isString() const { return valueKind == Kind::String; }
    bool isArray() const { return valueKind == Kind::Array; }
    bool isObject() const { return valueKind == Kind::Object; }

    bool asBool() const { return boolValue; }
    double asNumber() const { return numberValue; }
    const std::string &asString() const { return stringValue; }
    const std::vector<JsonValue> &items() const { return arrayItems; }
    /** Object members in source order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return objectMembers;
    }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** Convenience typed lookups (nullptr / fallback when absent or
     *  of the wrong kind). */
    const JsonValue *findObject(std::string_view key) const;
    const JsonValue *findArray(std::string_view key) const;
    bool hasNumber(std::string_view key) const;
    double numberOr(std::string_view key, double fallback) const;
    std::string stringOr(std::string_view key,
                         const std::string &fallback) const;
    bool boolOr(std::string_view key, bool fallback) const;

    // ---- Building (used by tests crafting fixture documents) ----
    void append(JsonValue v);                       //!< array push
    void set(std::string key, JsonValue v);         //!< object insert

    /** Serialize compactly (no insignificant whitespace). */
    void write(std::ostream &os) const;
    std::string dump() const;

  private:
    Kind valueKind = Kind::Null;
    bool boolValue = false;
    double numberValue = 0.0;
    std::string stringValue;
    std::vector<JsonValue> arrayItems;
    std::vector<std::pair<std::string, JsonValue>> objectMembers;
};

/**
 * Parse a complete JSON document. Returns false (and fills `error`
 * with a message naming the byte offset) on malformed input, trailing
 * garbage, or nesting deeper than an internal sanity bound.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string &error);

/** Read and parse the JSON file at `path`; false, with `error` naming
 *  the file, when it cannot be opened or does not parse. */
bool loadJsonFile(const std::string &path, JsonValue &out,
                  std::string &error);

/** Escape a string for embedding in JSON output ('"' not included). */
std::string jsonEscaped(std::string_view s);

} // namespace wsl

#endif // WSL_OBS_JSON_HH
