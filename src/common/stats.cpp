#include "common/stats.hpp"

#include <algorithm>
#include <numeric>

namespace sg {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double trimmed_mean(std::vector<double> xs, std::size_t trim) {
  if (xs.empty()) return 0.0;
  if (2 * trim >= xs.size()) return mean(xs);
  std::sort(xs.begin(), xs.end());
  const auto first = xs.begin() + static_cast<std::ptrdiff_t>(trim);
  const auto last = xs.end() - static_cast<std::ptrdiff_t>(trim);
  return std::accumulate(first, last, 0.0) /
         static_cast<double>(std::distance(first, last));
}

}  // namespace sg
