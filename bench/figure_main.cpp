// Entry point of every figure binary: CMake builds bench_<figure> with
// SG_FIGURE naming its figure, and bench_figs with SG_FIGURE empty, which
// runs them all.
#include "figure.hpp"

int main(int argc, char** argv) {
  return sg::bench::run_figures(argc, argv, SG_FIGURE);
}
