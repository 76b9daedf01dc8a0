// util::FieldCursor and appendInt — allocation-free text fields for the
// per-job line formats (the SchedulerService protocol, `.repro` files, SWF
// logs).
//
// FieldCursor walks one line as whitespace-delimited tokens; whitespace is
// the classic-locale isspace set (space, \t, \n, \v, \f, \r). integer<T>()
// parses one WHOLE token with std::from_chars, so unlike `istream >>` it
// rejects trailing junk ("10junk"), out-of-range values and, for unsigned
// fields, any sign: `>>` on an unsigned field applies strtoull semantics
// and silently wraps "-1" to the type's maximum. Signed fields accept one
// leading '+' or '-'. Decimal only; leading zeros are allowed ("007" is 7).
// real() is the floating-point counterpart for SWF logs: one whole token,
// what `>>` reads for a finite double, and nothing non-finite.
//
// appendInt is the reply side: std::to_chars straight into the reply
// string, the same digits `ostream <<` prints for an integer.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace sps::util {

class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) : rest_(line) {}

  /// The next token, or an empty view when only whitespace is left.
  std::string_view word() {
    skipSpace();
    std::size_t n = 0;
    while (n < rest_.size() && !isSpace(rest_[n])) ++n;
    const std::string_view token = rest_.substr(0, n);
    rest_.remove_prefix(n);
    return token;
  }

  /// The next token as a T, or nullopt when no token is left or the token
  /// is not entirely a decimal integer in T's range. The token is consumed
  /// either way.
  template <std::integral T>
  std::optional<T> integer() {
    std::string_view token = word();
    if constexpr (std::signed_integral<T>) {
      // from_chars takes '-' but not '+'; "+-5" must still fail.
      if (token.size() > 1 && token[0] == '+' && token[1] != '-')
        token.remove_prefix(1);
    }
    T value{};
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    return value;
  }

  /// The next token as a finite double, or nullopt when no token is left or
  /// the token is not entirely a decimal number with a finite value: an
  /// optional sign, digits with an optional fraction, an optional exponent
  /// (what `istream >>` reads). Infinities, NaNs and overflows are refused.
  /// The token is consumed either way.
  std::optional<double> real() {
    std::string_view token = word();
    // from_chars takes '-' but not '+'; "+-5" must still fail.
    if (token.size() > 1 && token[0] == '+' && token[1] != '-')
      token.remove_prefix(1);
    double value = 0;
    const char* const end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end) return std::nullopt;
    // from_chars reports an underflow to zero like an overflow; `>>` reads
    // it as a signed zero. strtod (what `>>` calls) tells the two apart.
    if (ec == std::errc::result_out_of_range)
      value = std::strtod(std::string(token).c_str(), nullptr);
    if (!std::isfinite(value)) return std::nullopt;
    return value;
  }

  /// True when only whitespace is left.
  [[nodiscard]] bool atEnd() {
    skipSpace();
    return rest_.empty();
  }

 private:
  static constexpr bool isSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void skipSpace() {
    std::size_t n = 0;
    while (n < rest_.size() && isSpace(rest_[n])) ++n;
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
};

/// Append `value` in decimal to `out`.
template <std::integral T>
void appendInt(std::string& out, T value) {
  char buf[24];  // 20 digits of a 64-bit value plus a sign
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;  // cannot overflow: the buffer fits every 64-bit value
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace sps::util
