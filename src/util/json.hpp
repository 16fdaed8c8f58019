// JSON in and out. JsonWriter is a small streaming writer: containers
// push/pop on a stack, commas and indentation are handled automatically,
// doubles round-trip via %.17g (non-finite values degrade to null).
// JsonValue + json_parse are the matching reader: a plain DOM with typed,
// throwing accessors, enough to load scenario suites and to parse the
// polarfly-run/1 documents the writer emits back into RunRecords.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pf::util {

class JsonWriter {
 public:
  /// indent <= 0 emits compact single-line JSON.
  explicit JsonWriter(int indent = 2) : indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key for the next value (valid only inside an object).
  JsonWriter& key(const std::string& name);

  JsonWriter& value(const std::string& s);
  JsonWriter& value(const char* s) { return value(std::string(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(bool b);

  /// The document so far. Well-formed once every container is closed.
  const std::string& str() const { return out_; }

  /// True when every begin_* has been matched by an end_*.
  bool complete() const { return stack_.empty() && wrote_value_; }

  static std::string escape(const std::string& s);

 private:
  struct Frame {
    char kind;        // '{' or '['
    int count = 0;    // values emitted so far
    bool keyed = false;
  };

  void before_value();
  void newline_indent();

  std::string out_;
  std::vector<Frame> stack_;
  int indent_ = 2;
  bool wrote_value_ = false;
};

/// Writes `content` to `path`, returning false on I/O failure.
bool write_text_file(const std::string& path, const std::string& content);

/// Reads a whole file into `out`, returning false on I/O failure.
bool read_text_file(const std::string& path, std::string& out);

// ---- reader --------------------------------------------------------------

/// Parse or accessor failure. Parse errors carry "line L column C";
/// accessor errors name the expected type (and key, for at()).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// An immutable parsed JSON value. Accessors throw JsonError on a type
/// mismatch instead of returning defaults, so suite/record loaders fail
/// loudly on schema drift.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  bool as_bool() const;
  /// Numeric accessors; a non-empty `path` (the value's key path) leads
  /// the type error, as in as_int_in.
  double as_double(const std::string& path = {}) const;
  /// The number as an integer; throws when the token was not integral
  /// (had a fraction/exponent) or does not fit.
  std::int64_t as_int(const std::string& path = {}) const;
  std::uint64_t as_uint(const std::string& path = {}) const;
  /// The number as an integer in [lo, hi] (int or int64 bounds). Throws
  /// naming `path`, the value's key path (e.g.
  /// "scenarios[0].config.warmup"), when the token is not an integer or
  /// falls outside the bounds, so nothing is narrowed silently.
  int as_int_in(const std::string& path, int lo, int hi) const;
  std::int64_t as_int_in(const std::string& path, std::int64_t lo,
                         std::int64_t hi) const;
  const std::string& as_string() const;

  /// Array elements / object members (in document order).
  const std::vector<JsonValue>& items() const;
  const std::vector<Member>& members() const;
  std::size_t size() const;

  /// Object member lookup: nullptr when absent (or not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object member lookup; throws naming the missing key.
  const JsonValue& at(const std::string& key) const;

  /// Re-emits this value into a writer. Numbers keep their original
  /// lexeme's value.
  void write(JsonWriter& out) const;

 private:
  friend class JsonParser;  ///< the recursive-descent parser in json.cpp

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool is_integral_ = false;  ///< token had no '.', 'e', and fit int64/uint64
  bool is_unsigned_ = false;  ///< integral token only representable unsigned
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;

  std::string describe() const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Throws JsonError with line/column on malformed input.
JsonValue json_parse(const std::string& text);

}  // namespace pf::util
