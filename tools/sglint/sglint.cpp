// sg-lint: the project's determinism firewall, static half.
//
// Walks C++ sources and enforces the invariants every SurgeGuard result
// rests on — bit-reproducible runs for a fixed seed — as named, suppressible
// rules (see rules.hpp for the rule table). The compile-time half is
// src/common/poison.hpp, which makes the D2 symbols fail the build outright;
// sg-lint covers what the preprocessor cannot see (hash containers,
// threading primitives, include hygiene, allocation discipline) and reports
// precise lines. Every rule reads one file on its own.
//
// Usage:
//   sglint [--selftest] <file-or-dir>...
//
//   default     lint the given paths; print one finding per line as
//               `path:line:rule:message`, sorted by (path, line, rule), on
//               stdout (the format is pinned by sglint_machine_golden) and
//               a one-line summary on stderr; exit 1 when any unsuppressed
//               finding remains. Directories are walked recursively;
//               directories named `sglint_fixtures`, `build`, or starting
//               with '.' are skipped unless passed explicitly.
//   --selftest  fixture mode: findings must match the `sglint: expect(R)`
//               annotations in the files exactly (rule id + line), clean
//               files must stay clean. Exit 0 only on an exact match.
//
// The tool intentionally has no dependency on the simulator libraries: it
// must build and run even when src/ itself is broken.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace fs = std::filesystem;

namespace {

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh";
}

bool skip_directory(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == "sglint_fixtures" || name == "build" ||
         (!name.empty() && name[0] == '.');
}

void collect_files(const fs::path& root, std::vector<fs::path>* out) {
  if (fs::is_regular_file(root)) {
    if (has_cxx_extension(root)) out->push_back(root);
    return;
  }
  if (!fs::is_directory(root)) {
    std::cerr << "sglint: no such file or directory: " << root << "\n";
    std::exit(2);
  }
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

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    std::cerr << "sglint: cannot read " << p << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Path as reported in findings and used for path-scoped rules: relative to
/// the deepest ancestor that contains a `src` or `tests` directory (the repo
/// root), falling back to the path as given.
std::string relative_display_path(const fs::path& p) {
  const fs::path abs = fs::weakly_canonical(p);
  for (fs::path a = abs.parent_path(); !a.empty() && a != a.root_path();
       a = a.parent_path()) {
    if (fs::exists(a / "src") && fs::exists(a / "ROADMAP.md")) {
      return fs::relative(abs, a).generic_string();
    }
  }
  return p.generic_string();
}

struct FileReport {
  std::string display_path;
  std::vector<sglint::Finding> findings;
  std::vector<sglint::Directive> expects;
};

FileReport lint_file(const fs::path& path) {
  FileReport report;
  report.display_path = relative_display_path(path);
  const std::string src = read_file(path);
  sglint::Lexer lexer(src);
  const sglint::LexResult lex = lexer.run();
  sglint::RuleEngine engine;
  report.findings = engine.run(report.display_path, lex);
  for (const sglint::Directive& d : sglint::parse_directives(lex.comments)) {
    if (d.kind == "expect") report.expects.push_back(d);
  }
  return report;
}

int run_lint(const std::vector<fs::path>& files) {
  std::vector<sglint::Finding> all;
  for (const fs::path& f : files) {
    FileReport report = lint_file(f);
    for (sglint::Finding& fi : report.findings) all.push_back(std::move(fi));
  }
  // Globally sorted by (path, line, rule, message) so the output is
  // diffable against goldens.
  std::sort(all.begin(), all.end(),
            [](const sglint::Finding& a, const sglint::Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  for (const sglint::Finding& fi : all) {
    std::cout << fi.file << ":" << fi.line << ":" << fi.rule << ":"
              << fi.message << "\n";
  }
  if (all.empty()) {
    std::cerr << "sglint: " << files.size() << " files clean\n";
  } else {
    std::cerr << "sglint: " << all.size() << " finding(s) across "
              << files.size() << " files\n";
  }
  return all.empty() ? 0 : 1;
}

/// Fixture mode: every finding must be announced by an expect() directive on
/// its line, and every expect() must be hit — exact (line, rule) multiset
/// equality per file.
int run_selftest(const std::vector<fs::path>& files) {
  int mismatches = 0;
  std::size_t expected_total = 0;
  for (const fs::path& f : files) {
    const FileReport report = lint_file(f);
    std::multiset<std::pair<int, std::string>> want;
    for (const sglint::Directive& d : report.expects) {
      for (const std::string& r : d.rules) {
        want.insert({d.target_line, r});
        ++expected_total;
      }
    }
    std::multiset<std::pair<int, std::string>> got;
    for (const sglint::Finding& fi : report.findings) {
      got.insert({fi.line, fi.rule});
    }
    for (const auto& [line, rule] : want) {
      const auto it = got.find({line, rule});
      if (it != got.end()) {
        got.erase(it);
        continue;
      }
      ++mismatches;
      std::cout << report.display_path << ":" << line << ": MISSING expected "
                << rule << " finding\n";
    }
    for (const auto& [line, rule] : got) {
      ++mismatches;
      std::cout << report.display_path << ":" << line << ": UNEXPECTED "
                << rule << " finding\n";
    }
  }
  if (mismatches == 0) {
    std::cout << "sglint selftest: " << files.size() << " fixture files, "
              << expected_total << " expected findings, all matched\n";
    return 0;
  }
  std::cout << "sglint selftest: " << mismatches << " mismatch(es)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: sglint [--selftest] <file-or-dir>...\n";
  bool selftest = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sglint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << kUsage;
    return 2;
  }
  std::vector<fs::path> files;
  for (const fs::path& r : roots) collect_files(r, &files);
  if (files.empty()) {
    std::cerr << "sglint: no C++ sources under the given paths\n";
    return 2;
  }
  return selftest ? run_selftest(files) : run_lint(files);
}
