#include "src/util/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>

namespace aiql {

Value Value::Param(std::string name, int line) {
  Value v;
  v.v_ = ParamRef{std::move(name), line};
  return v;
}

int64_t Value::as_int() const {
  if (is_int()) {
    return std::get<int64_t>(v_);
  }
  if (is_double()) {
    // Saturates outside the int64 range (NaN reads 0): casting such a double
    // is undefined.
    const double d = std::get<double>(v_);
    if (d >= 0x1p63) {
      return std::numeric_limits<int64_t>::max();
    }
    if (d < -0x1p63) {
      return std::numeric_limits<int64_t>::min();
    }
    return std::isnan(d) ? 0 : static_cast<int64_t>(d);
  }
  if (is_param()) {
    return 0;
  }
  const std::string& s = std::get<std::string>(v_);
  int64_t out = 0;
  std::from_chars(s.data(), s.data() + s.size(), out);
  return out;
}

double Value::as_double() const {
  if (is_double()) {
    return std::get<double>(v_);
  }
  if (is_int()) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  if (is_param()) {
    return 0.0;
  }
  const std::string& s = std::get<std::string>(v_);
  char* end = nullptr;
  double out = std::strtod(s.c_str(), &end);
  return end == s.c_str() ? 0.0 : out;
}

const std::string& Value::as_string() const {
  static const std::string kEmpty;
  if (is_string()) {
    return std::get<std::string>(v_);
  }
  return kEmpty;
}

std::string Value::ToString() const {
  if (is_string()) {
    return std::get<std::string>(v_);
  }
  if (is_int()) {
    return std::to_string(std::get<int64_t>(v_));
  }
  if (is_param()) {
    return "$" + param().name;
  }
  double d = std::get<double>(v_);
  if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
    // Render integral doubles without trailing zeros for stable golden output.
    return std::to_string(static_cast<int64_t>(d));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", d);
  return std::string(buf);
}

bool Value::operator==(const Value& other) const {
  if (is_param() || other.is_param()) {
    return is_param() && other.is_param() && param().name == other.param().name;
  }
  if (is_string() && other.is_string()) {
    return as_string() == other.as_string();
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      return as_int() == other.as_int();
    }
    return as_double() == other.as_double();
  }
  return ToString() == other.ToString();
}

bool Value::operator<(const Value& other) const {
  // Param placeholders sort after everything else, by name among themselves.
  if (is_param() || other.is_param()) {
    if (is_param() && other.is_param()) {
      return param().name < other.param().name;
    }
    return other.is_param();
  }
  if (is_string() && other.is_string()) {
    return as_string() < other.as_string();
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      return as_int() < other.as_int();
    }
    return as_double() < other.as_double();
  }
  // Numbers sort before strings.
  if (is_numeric() && other.is_string()) {
    return true;
  }
  if (is_string() && other.is_numeric()) {
    return false;
  }
  return ToString() < other.ToString();
}

size_t Value::Hash() const {
  if (is_param()) {
    return std::hash<std::string>{}(param().name) ^ 0x9e3779b97f4a7c15ull;
  }
  if (is_string()) {
    return std::hash<std::string>{}(as_string());
  }
  if (is_int()) {
    return std::hash<int64_t>{}(as_int());
  }
  double d = as_double();
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    // Integral doubles hash like the equivalent int so 3 == 3.0 joins work.
    return std::hash<int64_t>{}(static_cast<int64_t>(d));
  }
  return std::hash<double>{}(d);
}

}  // namespace aiql
