// Minimal JSON document model, serializer, and parser.
//
// Used by the telemetry exporters (metrics snapshots, Perfetto traces,
// BENCH_*.json results) and by tools/bench_report, which reads those files
// back. No external dependency: the container only guarantees the C++
// toolchain, so the repo carries its own ~RFC 8259 subset. Numbers are
// doubles (counters fit exactly up to 2^53 — far beyond any run here);
// objects preserve insertion order so exports are byte-stable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace dbgp::util::json {

class Value;
using Array = std::vector<Value>;
// Insertion-ordered; duplicate keys are not rejected (last find() wins is
// NOT implemented — find returns the first).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<double>(i)) {}
  Value(std::int64_t i) : v_(static_cast<double>(i)) {}
  Value(std::uint64_t u) : v_(static_cast<double>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
  bool is_number() const noexcept { return std::holds_alternative<double>(v_); }
  bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
  bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
  bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

  // Checked accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  // Object member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
  // Convenience: member as double/string with a default.
  double number_or(std::string_view key, double fallback) const noexcept;
  std::string string_or(std::string_view key, std::string fallback) const;

  // Appends a member to an object value.
  void set(std::string key, Value value);

  // Serializes; indent < 0 emits compact single-line JSON, otherwise
  // pretty-prints with `indent` spaces per level.
  std::string dump(int indent = -1) const;

  // Parses a complete JSON document (throws std::runtime_error with a byte
  // offset on malformed input; trailing garbage is an error).
  static Value parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> v_;
};

// Reads/writes a whole file; both throw std::runtime_error on IO failure.
Value parse_file(const std::string& path);
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace dbgp::util::json
