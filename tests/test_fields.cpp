// util::FieldCursor and util::appendInt (ctest label: util) — the
// allocation-free field reader behind the service protocol and `.repro`
// files (integer<T>) and SWF logs (real). On well-formed tokens it must
// read exactly what `istream >>` reads; on the inputs `>>` wraps or
// half-parses it must refuse.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/fields.hpp"

namespace sps {
namespace {

using util::FieldCursor;

constexpr std::string_view kSpace = " \t\n\v\f\r";

/// A run of 1-3 classic-locale whitespace characters.
std::string spaceRun(std::mt19937_64& rng) {
  std::string s;
  const std::size_t n = 1 + rng() % 3;
  for (std::size_t i = 0; i < n; ++i) s += kSpace[rng() % kSpace.size()];
  return s;
}

/// `magnitude` in decimal with 0-3 leading zeros.
std::string digits(std::mt19937_64& rng, std::uint64_t magnitude) {
  return std::string(rng() % 4, '0') + std::to_string(magnitude);
}

template <typename T>
T drawValue(std::mt19937_64& rng) {
  using L = std::numeric_limits<T>;
  switch (rng() % 4) {
    case 0: return L::min();
    case 1: return L::max();
    case 2: return static_cast<T>(static_cast<std::int64_t>(rng() % 2001) -
                                  (L::is_signed ? 1000 : 0));
    default: return static_cast<T>(rng());  // full range, both signs
  }
}

/// A well-formed token for `value`: leading zeros always possible; an
/// explicit '+' on signed non-negative values, '-' on negative ones.
template <typename T>
std::string tokenFor(std::mt19937_64& rng, T value) {
  if constexpr (std::numeric_limits<T>::is_signed) {
    if (value < 0) {
      // Magnitude via unsigned negation so min() does not overflow.
      const auto mag = std::uint64_t{0} - static_cast<std::uint64_t>(value);
      std::string token = "-";
      token += digits(rng, mag);
      return token;
    }
    std::string token = rng() % 2 ? "+" : "";
    token += digits(rng, static_cast<std::uint64_t>(value));
    return token;
  } else {
    return digits(rng, value);
  }
}

/// Random lines of well-formed T tokens separated by mixed whitespace:
/// integer<T> must yield the values `>>` yields, token for token.
template <typename T>
void checkAgainstStreamExtraction(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (int line = 0; line < 2000; ++line) {
    std::string text = rng() % 2 ? spaceRun(rng) : "";
    std::vector<T> expected;
    const std::size_t n = 1 + rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      expected.push_back(drawValue<T>(rng));
      text += tokenFor(rng, expected.back());
      if (i + 1 < n || rng() % 2) text += spaceRun(rng);
    }
    SCOPED_TRACE(::testing::Message() << "line '" << text << "'");
    std::istringstream in(text);
    FieldCursor cursor(text);
    for (const T want : expected) {
      T streamed{};
      ASSERT_TRUE(in >> streamed);
      EXPECT_EQ(streamed, want);
      EXPECT_EQ(cursor.integer<T>(), std::optional<T>(streamed));
    }
    EXPECT_TRUE(cursor.atEnd());
    EXPECT_EQ(cursor.integer<T>(), std::nullopt);
  }
}

TEST(FieldCursor, SignedMatchesStreamExtraction) {
  checkAgainstStreamExtraction<std::int64_t>(1);
}

TEST(FieldCursor, UnsignedMatchesStreamExtraction) {
  checkAgainstStreamExtraction<std::uint32_t>(2);
}

TEST(FieldCursor, ExtremesParse) {
  FieldCursor cursor(
      "-9223372036854775808 +9223372036854775807 0004294967295 0 -0");
  EXPECT_EQ(cursor.integer<std::int64_t>(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(cursor.integer<std::int64_t>(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(cursor.integer<std::uint32_t>(), 4294967295u);
  EXPECT_EQ(cursor.integer<std::uint32_t>(), 0u);
  EXPECT_EQ(cursor.integer<std::int64_t>(), 0);
  EXPECT_TRUE(cursor.atEnd());
}

TEST(FieldCursor, RejectsWhatStreamExtractionWrapsOrHalfParses) {
  for (const char* token :
       {"-1", "+1", "-4294967295", "4294967296", "10junk", "-", "+", "0x10",
        "1.5", "1e3", "", "++1", "+-1", "--1"}) {
    SCOPED_TRACE(token);
    FieldCursor cursor(token);
    EXPECT_EQ(cursor.integer<std::uint32_t>(), std::nullopt);
  }
  for (const char* token :
       {"9223372036854775808", "-9223372036854775809", "10junk", "-", "+",
        "++1", "+-1", "--1", "- 1", "0x10"}) {
    SCOPED_TRACE(token);
    FieldCursor cursor(token);
    EXPECT_EQ(cursor.integer<std::int64_t>(), std::nullopt);
  }
}

// real() reads what `>>` reads for a finite double, bit for bit: every
// spelling `>>` takes, and random doubles in shortest and 17-digit form.
TEST(FieldCursor, RealMatchesStreamExtraction) {
  std::vector<std::string> tokens = {
      "0", "-0", "+0", "1.5", "-1.5", ".5", "5.", "+.5", "1e3", "1E-3",
      "+1e+3", "00012.50", "1e-400", "-1e-400", "2e-324", "5e-324",
      "1.7976931348623157e308", "123456789012345678901234567890"};
  std::mt19937_64 rng(3);
  while (tokens.size() < 2000) {
    const double value = std::bit_cast<double>(rng());
    if (!std::isfinite(value)) continue;
    char buf[32];
    const auto [ptr, ec] = tokens.size() % 2
                               ? std::to_chars(buf, buf + sizeof buf, value)
                               : std::to_chars(buf, buf + sizeof buf, value,
                                               std::chars_format::general, 17);
    ASSERT_EQ(ec, std::errc{});
    tokens.emplace_back(buf, ptr);
  }
  for (const std::string& token : tokens) {
    SCOPED_TRACE(token);
    std::istringstream in(token);
    double streamed = 0;
    ASSERT_TRUE(in >> streamed);
    FieldCursor cursor(token);
    const std::optional<double> parsed = cursor.real();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*parsed),
              std::bit_cast<std::uint64_t>(streamed));
  }
}

TEST(FieldCursor, RealRejectsNonNumericOrNonFinite) {
  for (const char* token :
       {"", "junk", "1junk", "1e", "e5", ".", "+", "-", "++1", "+-1", "--1",
        "0x10", "1,5", "1..5", "inf", "-inf", "+inf", "nan", "infinity",
        "1e400", "-1e400"}) {
    SCOPED_TRACE(token);
    FieldCursor cursor(token);
    EXPECT_EQ(cursor.real(), std::nullopt);
  }
}

TEST(FieldCursor, WordSplitsOnEveryClassicSpace) {
  FieldCursor cursor("\t a\tb\nc\vd\fe\rf  ");
  for (const char* want : {"a", "b", "c", "d", "e", "f"})
    EXPECT_EQ(cursor.word(), want);
  EXPECT_TRUE(cursor.atEnd());
  EXPECT_EQ(cursor.word(), "");
}

TEST(FieldCursor, FailedIntegerStillConsumesItsToken) {
  FieldCursor cursor("x 7");
  EXPECT_EQ(cursor.integer<std::int64_t>(), std::nullopt);
  EXPECT_EQ(cursor.integer<std::int64_t>(), 7);
}

TEST(AppendInt, MatchesStreamInsertion) {
  std::string out = "v ";
  util::appendInt(out, std::numeric_limits<std::int64_t>::min());
  out += ' ';
  util::appendInt(out, std::numeric_limits<std::uint64_t>::max());
  out += ' ';
  util::appendInt(out, std::uint32_t{0});
  std::ostringstream os;
  os << "v " << std::numeric_limits<std::int64_t>::min() << ' '
     << std::numeric_limits<std::uint64_t>::max() << ' ' << std::uint32_t{0};
  EXPECT_EQ(out, os.str());
}

}  // namespace
}  // namespace sps
