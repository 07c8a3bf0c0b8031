#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/time.hh"

namespace rc::obs {

const JsonValue*
JsonValue::find(const std::string& key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto& [name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

double
JsonValue::numberAt(const std::string& key, double fallback) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isNumber()) ? v->number : fallback;
}

std::string
JsonValue::stringAt(const std::string& key,
                    const std::string& fallback) const
{
    const JsonValue* v = find(key);
    return (v != nullptr && v->isString()) ? v->str : fallback;
}

namespace {

/** Recursive-descent state over the input text. */
class Parser
{
  public:
    Parser(const std::string& text, std::string* error)
        : _text(text), _error(error)
    {
    }

    bool
    parse(JsonValue& out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (_pos != _text.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char* message)
    {
        if (_error != nullptr) {
            *_error = std::string(message) + " at offset " +
                      std::to_string(_pos);
        }
        return false;
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos]))) {
            ++_pos;
        }
    }

    bool
    literal(const char* word, JsonValue& out, JsonValue::Kind kind,
            bool boolean)
    {
        const std::size_t len = std::string(word).size();
        if (_text.compare(_pos, len, word) != 0)
            return fail("unexpected token");
        _pos += len;
        out.kind = kind;
        out.boolean = boolean;
        return true;
    }

    bool
    value(JsonValue& out)
    {
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        switch (_text[_pos]) {
          case '{': return objectValue(out);
          case '[': return arrayValue(out);
          case '"': return stringValue(out);
          case 't': return literal("true", out, JsonValue::Kind::Bool, true);
          case 'f':
            return literal("false", out, JsonValue::Kind::Bool, false);
          case 'n': return literal("null", out, JsonValue::Kind::Null, false);
          default: return numberValue(out);
        }
    }

    bool
    stringBody(std::string& out)
    {
        ++_pos; // opening quote
        while (_pos < _text.size() && _text[_pos] != '"') {
            char c = _text[_pos];
            if (c == '\\') {
                if (_pos + 1 >= _text.size())
                    return fail("truncated escape");
                const char esc = _text[_pos + 1];
                switch (esc) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u': {
                    // The exporters never emit \u; decode to '?' so
                    // foreign files still round-trip structurally.
                    if (_pos + 5 >= _text.size())
                        return fail("truncated \\u escape");
                    _pos += 4;
                    c = '?';
                    break;
                  }
                  default: return fail("unknown escape");
                }
                _pos += 2;
                out.push_back(c);
                continue;
            }
            out.push_back(c);
            ++_pos;
        }
        if (_pos >= _text.size())
            return fail("unterminated string");
        ++_pos; // closing quote
        return true;
    }

    bool
    stringValue(JsonValue& out)
    {
        out.kind = JsonValue::Kind::String;
        return stringBody(out.str);
    }

    bool
    numberValue(JsonValue& out)
    {
        const char* start = _text.c_str() + _pos;
        char* end = nullptr;
        const double parsed = std::strtod(start, &end);
        if (end == start)
            return fail("invalid number");
        _pos += static_cast<std::size_t>(end - start);
        out.kind = JsonValue::Kind::Number;
        out.number = parsed;
        return true;
    }

    bool
    arrayValue(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Array;
        ++_pos; // '['
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        for (;;) {
            JsonValue element;
            if (!value(element))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                skipWs();
                continue;
            }
            if (_text[_pos] == ']') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    objectValue(JsonValue& out)
    {
        out.kind = JsonValue::Kind::Object;
        ++_pos; // '{'
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!stringBody(key))
                return false;
            skipWs();
            if (_pos >= _text.size() || _text[_pos] != ':')
                return fail("expected ':'");
            ++_pos;
            skipWs();
            JsonValue member;
            if (!value(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            if (_text[_pos] == '}') {
                ++_pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string& _text;
    std::string* _error;
    std::size_t _pos = 0;
};

} // namespace

bool
parseJson(const std::string& text, JsonValue& out, std::string* error)
{
    out = JsonValue{}; // a reused value must not keep old members
    return Parser(text, error).parse(out);
}

std::string
jsonEscape(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

namespace {

/** Largest SecondsAsTick value; its tick count fits a sim::Tick. */
constexpr double kMaxTickSeconds = 9e12;

/**
 * Largest NonNegative value. Seconds knobs read this way reach ticks
 * later, some through random draws: an exponential draw reaches about
 * 37x its mean (-ln 2^-53), so a 9e12 s MTBF overflows a sim::Tick
 * while a 1e9 s one stays near 4e16 of its 9.2e18 ticks. No seconds,
 * rate or factor knob needs more.
 */
constexpr double kMaxNonNegative = 1e9;

} // namespace

bool
readJsonKnob(std::span<const JsonKnob> knobs, const std::string& key,
             const JsonValue& value, const std::string& plan,
             std::string* error)
{
    const JsonKnob* knob = nullptr;
    for (const JsonKnob& candidate : knobs) {
        if (key == candidate.key) {
            knob = &candidate;
            break;
        }
    }
    const auto fail = [error](const std::string& what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    if (knob == nullptr)
        return fail("unknown " + plan + " key '" + key + "'");

    using Kind = JsonKnob::Kind;
    if (knob->kind == Kind::Flag) {
        if (value.kind != JsonValue::Kind::Bool)
            return fail(key + ": expected a boolean");
        *static_cast<bool*>(knob->target) = value.boolean;
        return true;
    }
    if (!value.isNumber())
        return fail(key + ": expected a number");
    const double v = value.number;
    switch (knob->kind) {
      case Kind::Fraction:
        if (v < 0.0 || v > 1.0)
            return fail(key + ": must be in [0, 1]");
        *static_cast<double*>(knob->target) = v;
        return true;
      case Kind::NonNegative:
        if (v < 0.0 || v > kMaxNonNegative)
            return fail(key + ": must be in [0, 1e9]");
        *static_cast<double*>(knob->target) = v;
        return true;
      case Kind::SecondsAsTick:
        // Bounded so the conversion to integer ticks cannot overflow.
        if (v < 0.0 || v > kMaxTickSeconds)
            return fail(key + ": must be in [0, 9e12] seconds");
        *static_cast<sim::Tick*>(knob->target) = sim::fromSeconds(v);
        return true;
      case Kind::Count:
        if (v < 0.0 || v != std::floor(v) ||
            v > std::numeric_limits<std::uint32_t>::max())
            return fail(key + ": must be a non-negative 32-bit integer");
        *static_cast<std::uint32_t*>(knob->target) =
            static_cast<std::uint32_t>(v);
        return true;
      case Kind::Flag:
        break;
    }
    return fail(key + ": bad knob kind");
}

bool
readJsonKnobs(const JsonValue& object, std::span<const JsonKnob> knobs,
              const std::string& plan, std::string* error)
{
    if (!object.isObject()) {
        if (error != nullptr)
            *error = plan + " must be a JSON object";
        return false;
    }
    for (const auto& [key, value] : object.object) {
        if (!readJsonKnob(knobs, key, value, plan, error))
            return false;
    }
    return true;
}

bool
readTextFile(const std::string& path, std::string& text, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
    return true;
}

} // namespace rc::obs
