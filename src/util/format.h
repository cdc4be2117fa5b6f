#ifndef MARLIN_UTIL_FORMAT_H_
#define MARLIN_UTIL_FORMAT_H_

#include <charconv>
#include <cstdint>
#include <string>

#include "util/logging.h"

namespace marlin {

/// Largest `precision` AppendFixed accepts.
inline constexpr int kMaxFixedPrecision = 17;

/// Appends `value` in fixed notation with `precision` digits after the
/// point. std::to_chars is specified to print exactly what
/// printf("%.*f", precision, value) prints in the C locale, infinities and
/// NaN included, so the bytes equal snprintf's without its format parsing
/// and locale lookup.
inline void AppendFixed(std::string* out, double value, int precision) {
  MARLIN_CHECK(precision >= 0 && precision <= kMaxFixedPrecision);
  // Sign, the 309 integer digits of DBL_MAX, the point and the fraction.
  char buf[1 + 309 + 1 + kMaxFixedPrecision];
  const std::to_chars_result result = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::fixed, precision);
  out->append(buf, result.ptr);
}

/// Appends `value` in decimal, as printf("%lld") prints it.
inline void AppendInt(std::string* out, int64_t value) {
  char buf[20];  // "-9223372036854775808"
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, result.ptr);
}

}  // namespace marlin

#endif  // MARLIN_UTIL_FORMAT_H_
