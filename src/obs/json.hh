/**
 * @file
 * Minimal JSON reader for validating and re-ingesting the artifacts
 * the observability layer writes.
 *
 * The simulator emits three JSON artifact kinds (Chrome trace, JSONL
 * event dump, run report); tests and the CI checker must parse them
 * back without external dependencies, so this is a small recursive-
 * descent parser producing a plain DOM. It accepts strict JSON (no
 * comments, no trailing commas) — exactly what the exporters write —
 * and is not a performance path. The fault, admission and domain plan
 * parsers read their flat knobs through one table reader here.
 */

#ifndef RC_OBS_JSON_HH_
#define RC_OBS_JSON_HH_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace rc::obs {

/** One parsed JSON value (a small tagged tree). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }

    /** Member lookup on an object; nullptr when absent or not one. */
    const JsonValue* find(const std::string& key) const;

    /** Number value of member @p key, or @p fallback. */
    double numberAt(const std::string& key, double fallback = 0.0) const;

    /** String value of member @p key, or @p fallback. */
    std::string stringAt(const std::string& key,
                         const std::string& fallback = "") const;
};

/**
 * Parse @p text as one JSON document.
 *
 * @param text   Complete JSON text.
 * @param out    Receives the parsed tree on success.
 * @param error  Optional; receives a position-tagged message on failure.
 * @return true on success.
 */
bool parseJson(const std::string& text, JsonValue& out,
               std::string* error = nullptr);

/** Escape @p raw for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string& raw);

/**
 * One knob of a flat JSON plan (fault, admission, domain): a member
 * name, the kind of value it takes, and the field it fills.
 */
struct JsonKnob
{
    enum class Kind : std::uint8_t
    {
        Fraction,      //!< number in [0, 1] into a double
        NonNegative,   //!< number in [0, 1e9] (seconds, rates,
                       //!< factors) into a double
        SecondsAsTick, //!< seconds >= 0 into a sim::Tick
        Count,         //!< non-negative integer into a std::uint32_t
        Flag,          //!< boolean into a bool
    };

    const char* key;
    Kind kind;
    void* target; //!< a field of the type @ref kind names
};

/**
 * Fill the target of the knob named @p key from @p value.
 *
 * @param plan   Names the schema in the unknown-key message
 *               ("unknown <plan> key '<key>'").
 * @param error  Optional; receives the message on failure. A value of
 *               the wrong kind or out of range reads
 *               "<key>: <reason>".
 * @return true on success.
 */
bool readJsonKnob(std::span<const JsonKnob> knobs, const std::string& key,
                  const JsonValue& value, const std::string& plan,
                  std::string* error);

/**
 * Fill knob targets from every member of @p object through
 * readJsonKnob(), in document order; fails with "<plan> must be a
 * JSON object" unless @p object is one. Targets of members before a
 * failing one are already written.
 */
bool readJsonKnobs(const JsonValue& object, std::span<const JsonKnob> knobs,
                   const std::string& plan, std::string* error);

/** Read the whole file at @p path; fails with "cannot open <path>". */
bool readTextFile(const std::string& path, std::string& text,
                  std::string* error);

} // namespace rc::obs

#endif // RC_OBS_JSON_HH_
