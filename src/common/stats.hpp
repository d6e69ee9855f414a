// Small statistics helpers used by the experiment harness.
//
// The paper's analysis protocol (Artifact Appendix): collect 17 data points
// per configuration, drop the best and worst, average the remaining 15.
// `trimmed_mean` implements exactly that protocol for any repetition count.
#pragma once

#include <cstddef>
#include <vector>

namespace sg {

double mean(const std::vector<double>& xs);

/// Drops `trim` smallest and `trim` largest values, then averages the rest.
/// If 2*trim >= xs.size(), falls back to the plain mean.
double trimmed_mean(std::vector<double> xs, std::size_t trim = 1);

}  // namespace sg
