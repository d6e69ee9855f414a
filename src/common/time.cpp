#include "common/time.hpp"

#include <cmath>
#include <cstdio>

namespace sg {

std::string format_time(Duration d) {
  const bool neg = d.ns() < 0;
  const double abs_ns = std::abs(static_cast<double>(d.ns()));
  char buf[64];
  if (abs_ns < 1e3) {
    std::snprintf(buf, sizeof(buf), "%s%.0fns", neg ? "-" : "", abs_ns);
  } else if (abs_ns < 1e6) {
    std::snprintf(buf, sizeof(buf), "%s%.2fus", neg ? "-" : "", abs_ns / 1e3);
  } else if (abs_ns < 1e9) {
    std::snprintf(buf, sizeof(buf), "%s%.2fms", neg ? "-" : "", abs_ns / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%s%.3fs", neg ? "-" : "", abs_ns / 1e9);
  }
  return buf;
}

}  // namespace sg
