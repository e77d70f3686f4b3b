/**
 * @file
 * A small dependency-free JSON value tree, writer and parser.
 *
 * Backs the unified reporting API: SimReport/EnergyBreakdown/
 * LayerCost/PipelinedBatchResult serialise through json::Value, the
 * benches write BENCH_<name>.json perf-trajectory files, and the
 * pipeline trace recorder emits Chrome trace-event JSON.  Objects
 * preserve insertion order and numbers print with round-trippable
 * precision, so every dump is byte-deterministic — a property the
 * observability tests rely on.
 */

#ifndef PIPELAYER_COMMON_JSON_HH_
#define PIPELAYER_COMMON_JSON_HH_

#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pipelayer {
namespace json {

/** Thrown by parse() on malformed input. */
class ParseError : public std::runtime_error
{
  public:
    ParseError(const std::string &what, size_t offset)
        : std::runtime_error(what + " at offset " +
                             std::to_string(offset)),
          offset_(offset)
    {
    }

    /** Byte offset of the error in the parsed text. */
    size_t offset() const { return offset_; }

  private:
    size_t offset_;
};

/**
 * One JSON value: null, bool, number, string, array or object.
 *
 * Objects preserve member insertion order (dumps are deterministic);
 * operator[] on an object inserts missing keys, so reports build up
 * naturally:
 * @code
 *   json::Value report = json::Value::object();
 *   report["bench"] = "fig15_speedup";
 *   report["metrics"]["gmean_speedup"] = 13.85;
 * @endcode
 */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default; //!< null
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(double v) : kind_(Kind::Number), number_(v) {}
    Value(int64_t v) : kind_(Kind::Number),
                       number_(static_cast<double>(v)) {}
    Value(int v) : Value(static_cast<int64_t>(v)) {}
    Value(const char *s) : kind_(Kind::String), string_(s) {}
    Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    /** An empty array / object (distinct from null). */
    static Value array() { Value v; v.kind_ = Kind::Array; return v; }
    static Value object() { Value v; v.kind_ = Kind::Object; return v; }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @name Typed accessors (panic on kind mismatch). */
    ///@{
    bool asBool() const;
    double asNumber() const;
    /**
     * asNumber() as an integer.  Throws ConfigError, naming the
     * value, when it has a fraction or lies outside int64.
     */
    int64_t asInt() const;
    const std::string &asString() const;
    ///@}

    /** Array/object element count (0 for scalars). */
    size_t size() const;

    /** Append to an array (value must be an array or null). */
    void push(Value v);

    /** Array element access. @pre isArray() and i < size(). */
    const Value &at(size_t i) const;

    /**
     * Object member access; inserts a null member when missing (the
     * value silently becomes an object if it was null).
     */
    Value &operator[](const std::string &key);

    /** Lookup without insertion; nullptr when absent or not object. */
    const Value *find(const std::string &key) const;

    /** Object member access. @pre find(key) != nullptr. */
    const Value &at(const std::string &key) const;

    /** Ordered array elements. @pre isArray(). */
    const std::vector<Value> &elements() const;

    /** Ordered object members. @pre isObject(). */
    const std::vector<std::pair<std::string, Value>> &members() const;

    /** Deep structural equality (numbers compared exactly). */
    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const
    {
        return !(*this == other);
    }

    /**
     * Serialise.  @p indent < 0 gives compact one-line output;
     * otherwise members/elements are newline-separated with
     * @p indent spaces per nesting level.
     */
    void write(std::ostream &os, int indent = -1) const;
    std::string dump(int indent = -1) const;

    /** Quote + escape a string per RFC 8259. */
    static std::string escape(const std::string &s);

    /** Round-trippable text form of a double ("17" for integers). */
    static std::string formatNumber(double v);

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> elements_;
    std::vector<std::pair<std::string, Value>> members_;
};

/** Parse one JSON document (throws ParseError on malformed input). */
Value parse(const std::string &text);

} // namespace json
} // namespace pipelayer

#endif // PIPELAYER_COMMON_JSON_HH_
