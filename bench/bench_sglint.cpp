// sg-lint throughput gate: runs the full lint (lexer + the D/H/A rules) over
// the real tree in-process and fails if a scan exceeds its budget. The lint
// runs on every commit and in pre-commit hooks, so it must stay cheap; this
// bench pins that property with a number instead of a feeling.
//
// Emits BENCH_sglint.json with per-rep wall times and throughput. Exits
// nonzero if the best-of-N scan is slower than the 5 s budget, or if the
// tree is not clean (a dirty tree would make the timing meaningless: the
// finding paths dominate the cost profile).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

// Mirror of the sglint CLI's tree walk: same extensions, same skip set, so
// the measured corpus is exactly what `sglint src bench tests tools
// examples` scans.
bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh";
}

bool skip_directory(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == "sglint_fixtures" || name == "sglint_fixable" ||
         name == "build" || (!name.empty() && name[0] == '.');
}

void collect_files(const fs::path& root, std::vector<fs::path>* out) {
  if (!fs::is_directory(root)) return;
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(root)) entries.push_back(e.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& e : entries) {
    if (fs::is_directory(e)) {
      if (!skip_directory(e)) collect_files(e, out);
    } else if (has_cxx_extension(e)) {
      out->push_back(e);
    }
  }
}

struct Source {
  std::string display_path;
  std::string text;
  std::string header_text;  // paired same-stem header, empty if none
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double wall_clock_ms() {
  // sglint: allow(D2) wall-clock IS the measurement here (lint throughput)
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(now.time_since_epoch())
      .count();
}

// One full lint pass over the preloaded corpus. File I/O is excluded on
// purpose: the budget guards analysis cost, not the disk.
std::size_t lint_corpus(const std::vector<Source>& corpus) {
  std::size_t findings = 0;
  for (const Source& s : corpus) {
    sglint::Lexer lexer(s.text);
    const sglint::LexResult lex = lexer.run();
    sglint::RuleEngine engine;
    if (!s.header_text.empty()) {
      sglint::Lexer hdr_lexer(s.header_text);
      const sglint::LexResult hdr_lex = hdr_lexer.run();
      engine.seed_declarations(hdr_lex);
    }
    findings += engine.run(s.display_path, lex).size();
  }
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      reps = 2;
    }
  }

  const fs::path root = SG_LINT_REPO_ROOT;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "bench", "tests", "tools", "examples"}) {
    collect_files(root / dir, &files);
  }
  if (files.empty()) {
    std::fprintf(stderr, "bench_sglint: no sources under %s\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Source> corpus;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  for (const fs::path& f : files) {
    Source s;
    s.display_path = fs::relative(f, root).generic_string();
    s.text = read_file(f);
    if (f.extension() == ".cpp") {
      for (const char* ext : {".hpp", ".h"}) {
        const fs::path header = fs::path(f).replace_extension(ext);
        if (fs::is_regular_file(header)) {
          s.header_text = read_file(header);
          break;
        }
      }
    }
    bytes += s.text.size();
    lines += static_cast<std::uint64_t>(
        std::count(s.text.begin(), s.text.end(), '\n'));
    corpus.push_back(std::move(s));
  }

  constexpr double kBudgetMs = 5000.0;
  std::vector<double> rep_ms;
  std::size_t findings = 0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_clock_ms();
    findings = lint_corpus(corpus);
    const double t1 = wall_clock_ms();
    rep_ms.push_back(t1 - t0);
  }
  const double best_ms = *std::min_element(rep_ms.begin(), rep_ms.end());
  double mean_ms = 0.0;
  for (const double m : rep_ms) mean_ms += m;
  mean_ms /= static_cast<double>(rep_ms.size());
  const double mb_per_s =
      (static_cast<double>(bytes) / (1024.0 * 1024.0)) / (best_ms / 1000.0);

  std::printf("sg-lint throughput: %zu files, %llu lines, %.1f KiB\n",
              corpus.size(), static_cast<unsigned long long>(lines),
              static_cast<double>(bytes) / 1024.0);
  std::printf("  reps: %d  best: %.2f ms  mean: %.2f ms  %.1f MiB/s\n", reps,
              best_ms, mean_ms, mb_per_s);
  std::printf("  findings: %zu  budget: %.0f ms\n", findings, kBudgetMs);

  std::ofstream json("BENCH_sglint.json");
  json << "{\n  \"bench\": \"sglint\",\n";
  json << "  \"files\": " << corpus.size() << ",\n";
  json << "  \"lines\": " << lines << ",\n";
  json << "  \"bytes\": " << bytes << ",\n";
  json << "  \"findings\": " << findings << ",\n";
  json << "  \"reps\": " << reps << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", best_ms);
  json << "  \"best_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", mean_ms);
  json << "  \"mean_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", mb_per_s);
  json << "  \"mib_per_s\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.0f", kBudgetMs);
  json << "  \"budget_ms\": " << buf << ",\n";
  json << "  \"within_budget\": " << (best_ms < kBudgetMs ? "true" : "false")
       << "\n}\n";
  json.close();
  std::printf("wrote BENCH_sglint.json\n");

  if (findings != 0) {
    std::fprintf(stderr,
                 "error: tree is not lint-clean (%zu findings) — timing is "
                 "not representative\n",
                 findings);
    return 1;
  }
  if (best_ms >= kBudgetMs) {
    std::fprintf(stderr, "error: scan took %.1f ms, budget is %.0f ms\n",
                 best_ms, kBudgetMs);
    return 1;
  }
  return 0;
}
