// Minimal streaming JSON writer.
//
// The metrics dump (`ppa_mcp --metrics-out`, and every line of the
// --snapshot-out stream) goes through this writer. It is deliberately
// tiny: objects, arrays, scalars, string escaping — no DOM, no allocation
// beyond the output stream.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ppa::obs {

/// Schema identifier stamped into every metrics dump; bump on any
/// backwards-incompatible field change (docs/observability.md).
inline constexpr std::string_view kMetricsSchema = "ppa.metrics.v1";

/// Streaming writer with automatic comma placement. Usage:
///   JsonWriter w(out);
///   w.begin_object();
///   w.key("n"); w.value(16);
///   w.key("items"); w.begin_array(); w.value("a"); w.end_array();
///   w.end_object();
/// Nesting depth is tracked internally; the caller must pair begin/end.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes an object key; the next value/begin_* call is its value.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(const std::string& text) { value(std::string_view(text)); }
  void value(double number);
  void value(bool flag);
  /// Any non-bool integral type (signed and unsigned widths collapse onto
  /// int64/uint64, so size_t-vs-uint64_t never creates overload clashes).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void value(T number) {
    if constexpr (std::is_signed_v<T>) {
      write_int(static_cast<std::int64_t>(number));
    } else {
      write_uint(static_cast<std::uint64_t>(number));
    }
  }

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  void separate();  // emits "," where the grammar needs one
  void write_int(std::int64_t number);
  void write_uint(std::uint64_t number);

  std::ostream& out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> has_element_{false};
  bool pending_key_ = false;
};

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Strict syntax check over a complete JSON document (the test suite
/// validates the emitted metrics dump and Chrome trace with this): whether
/// json_parse (obs/json_dom.hpp) accepts it. Returns false and fills
/// `error` (when non-null) on the first violation.
[[nodiscard]] bool json_valid(std::string_view text, std::string* error = nullptr);

}  // namespace ppa::obs
