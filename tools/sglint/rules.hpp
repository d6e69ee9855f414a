// sg-lint rule engine: project determinism invariants as named, suppressible
// checks over the token stream produced by lexer.hpp.
//
//   D1  no iteration over std::unordered_map / std::unordered_set —
//       hash-order iteration is the canonical source of run-to-run
//       divergence in decision and export paths. Lookups (find/count/at/[])
//       are fine; range-for and .begin()/.cbegin() are not.
//   D2  no ambient randomness or wall-clock reads in simulation code: all
//       randomness flows through sg::Rng, all time through the simulator
//       clock. Bans std::random_device, rand, srand, std::time,
//       system_clock/steady_clock/high_resolution_clock, clock_gettime,
//       gettimeofday, timespec_get.
//   D3  no float/double keys or values in unordered containers — FP
//       accumulation in hash order is order-sensitive even without explicit
//       iteration (rehash changes bucket walk of internal operations, and
//       any future iteration silently inherits the hazard).
//   D4  no raw new/delete outside src/common/ — ownership goes through
//       containers and smart pointers; raw allocation in sim code has
//       repeatedly been the source of leak-driven address reuse, which
//       perturbs pointer-keyed containers between runs.
//   D5  no threading primitives (std::thread/jthread, std::mutex family,
//       std::atomic, std::condition_variable) anywhere — a simulation runs
//       on one thread, and a thread or lock inside it makes event order
//       depend on scheduling. Replication-level parallelism (many
//       independent simulations) is legitimate and suppressed explicitly
//       with allow(D5), as in src/core/sweep.cpp.
//   H1  include hygiene: a .cpp includes its own header first (catches
//       headers that are not self-contained), and headers never contain
//       `using namespace`.
//   A0  malformed suppression: `sglint: allow(...)` without a justification
//       string. An unexplained suppression is itself a finding, so the
//       requirement cannot be bypassed silently.
//
// Unit safety (TimePoint/Duration mixing, bare integers as times, narrowing
// a quantity to a number, dimension mismatches) is not a lint rule: the
// quantity types in src/common/time.hpp make each of those a compile error,
// and the time_negative_compile test pins the rejections.
//
// Suppression syntax (trailing comment governs its own line, a whole-line
// comment governs the next line):
//
//   code();  // sglint: allow(D1) hash map is snapshot-sorted two lines down
//
// The reason text is mandatory; rule lists may be comma-separated. Spaces
// before '(' and lowercase rule ids (`allow (d1)`) are accepted.
#pragma once

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace sglint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// A parsed `sglint: allow(...)` or `sglint: expect(...)` directive.
struct Directive {
  std::string kind;  // "allow" or "expect"
  std::vector<std::string> rules;
  std::string reason;  // text after the closing paren, trimmed
  int target_line = 0;  // source line the directive governs
  int line = 0;         // line the comment itself sits on
};

inline std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Extracts sglint directives from the file's comments.
inline std::vector<Directive> parse_directives(
    const std::vector<Comment>& comments) {
  std::vector<Directive> out;
  for (const Comment& c : comments) {
    const std::string text = trim(c.text);
    const std::size_t tag = text.find("sglint:");
    if (tag == std::string::npos) continue;
    std::size_t i = tag + 7;
    while (i < text.size()) {
      while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
      std::string kind;
      while (i < text.size() &&
             std::isalpha(static_cast<unsigned char>(text[i]))) {
        kind += text[i++];
      }
      while (i < text.size() && text[i] == ' ') ++i;
      if ((kind != "allow" && kind != "expect") || i >= text.size() ||
          text[i] != '(') {
        break;
      }
      Directive d;
      d.kind = kind;
      d.line = c.line;
      d.target_line = c.code_before ? c.line : c.line + 1;
      std::string rule;
      for (++i; i < text.size() && text[i] != ')'; ++i) {
        if (text[i] == ',') {
          if (!trim(rule).empty()) d.rules.push_back(trim(rule));
          rule.clear();
        } else {
          rule += static_cast<char>(
              std::toupper(static_cast<unsigned char>(text[i])));
        }
      }
      if (!trim(rule).empty()) d.rules.push_back(trim(rule));
      if (i < text.size()) ++i;  // ')'
      // Reason: everything up to the next directive on the same comment.
      const std::size_t reason_end =
          std::min({text.size(), text.find("allow(", i), text.find("expect(", i)});
      d.reason = trim(text.substr(i, reason_end - i));
      out.push_back(d);
      i = reason_end;
    }
  }
  return out;
}

class RuleEngine {
 public:
  /// Seeds the unordered-name set from another file's tokens — used to make
  /// data members declared in a .cpp's paired header visible when linting
  /// the .cpp (the header reports its own D3 findings when linted itself).
  void seed_declarations(const LexResult& lex) {
    collect_unordered_decls(lex.tokens, /*report_d3=*/false);
  }

  /// `relative_path` decides path-scoped rules (D4 exempts src/common/).
  std::vector<Finding> run(const std::string& relative_path,
                           const LexResult& lex) {
    file_ = relative_path;
    findings_.clear();
    const std::vector<Directive> directives = parse_directives(lex.comments);

    collect_unordered_decls(lex.tokens, /*report_d3=*/true);
    rule_d1_iteration(lex.tokens);
    rule_d2_time_and_rng(lex.tokens);
    rule_d4_raw_new_delete(lex.tokens);
    rule_d5_threading_primitives(lex.tokens);
    rule_h1_include_hygiene(lex);
    rule_a0_malformed_suppressions(directives);

    apply_suppressions(directives);
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return findings_;
  }

 private:
  void add(int line, const std::string& rule, const std::string& message) {
    findings_.push_back({file_, line, rule, message});
  }

  static bool is_ident(const std::string& t) {
    return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) ||
                          t[0] == '_');
  }

  bool ends_with(const std::string& s, const std::string& suffix) const {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  /// Skips a balanced <...> starting at tokens[i] == "<". Returns the index
  /// one past the closing ">", collecting the argument tokens.
  static std::size_t skip_template_args(const std::vector<Token>& toks,
                                        std::size_t i,
                                        std::vector<std::string>* args) {
    int depth = 0;
    for (; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t == "<") {
        ++depth;
      } else if (t == ">") {
        if (--depth == 0) return i + 1;
      } else if (depth > 0 && args != nullptr) {
        args->push_back(t);
      }
    }
    return i;
  }

  /// Pass 1: names declared with an unordered container type (variables and
  /// data members, including `using` aliases and declarations through them);
  /// also fires D3 when the template arguments contain float/double. Names
  /// accumulate across calls so seed_declarations() can contribute.
  void collect_unordered_decls(const std::vector<Token>& toks,
                               bool report_d3) {
    std::set<std::string> aliases;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (t != "unordered_map" && t != "unordered_set" &&
          t != "unordered_multimap" && t != "unordered_multiset") {
        continue;
      }
      const int decl_line = toks[i].line;
      std::size_t j = i + 1;
      std::vector<std::string> targs;
      if (j < toks.size() && toks[j].text == "<") {
        j = skip_template_args(toks, j, &targs);
      }
      if (report_d3 &&
          (std::find(targs.begin(), targs.end(), "float") != targs.end() ||
           std::find(targs.begin(), targs.end(), "double") != targs.end())) {
        add(decl_line, "D3",
            "float/double in an unordered container: accumulation order "
            "follows hash order; use std::map or an ordered snapshot");
      }
      // `using Alias = std::unordered_map<...>` — remember the alias so
      // declarations through it are tracked too.
      if (i >= 2 && toks[i - 1].text == "::" && toks[i - 2].text == "std" &&
          i >= 4 && toks[i - 3].text == "=" && is_ident(toks[i - 4].text)) {
        if (i >= 5 && toks[i - 5].text == "using") {
          aliases.insert(toks[i - 4].text);
          continue;
        }
      }
      // Declarator names: `std::unordered_map<K,V> a, *b, &c;`. A name
      // followed by '(' is a function returning the container — returning
      // one is fine, iterating it is what D1 polices at the call site.
      while (j < toks.size()) {
        const std::string& d = toks[j].text;
        if (d == "*" || d == "&" || d == "const") {
          ++j;
          continue;
        }
        if (!is_ident(d)) break;
        const bool is_function =
            j + 1 < toks.size() && toks[j + 1].text == "(";
        if (!is_function) unordered_names_.insert(d);
        ++j;
        if (j < toks.size() && toks[j].text == ",") {
          ++j;
          continue;
        }
        break;
      }
    }
    // Second sweep: declarations through recorded aliases.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (aliases.count(toks[i].text) == 0) continue;
      std::size_t j = i + 1;
      while (j < toks.size() && (toks[j].text == "*" || toks[j].text == "&" ||
                                 toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && is_ident(toks[j].text) &&
          !(j + 1 < toks.size() && toks[j + 1].text == "(")) {
        unordered_names_.insert(toks[j].text);
      }
    }
  }

  /// D1: range-for over an unordered-declared name, or .begin()/.cbegin()
  /// on one (feeding iterator loops, std algorithms, or bulk-copy
  /// constructors — every spelling of "walk it in hash order").
  void rule_d1_iteration(const std::vector<Token>& toks) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text == "for" && toks[i + 1].text == "(") {
        std::size_t colon = 0;
        int depth = 0;
        std::size_t close = toks.size();
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
          const std::string& t = toks[j].text;
          if (t == "(") ++depth;
          if (t == ")" && --depth == 0) {
            close = j;
            break;
          }
          if (t == ":" && depth == 1 && colon == 0) colon = j;
          if (t == ";" && depth == 1) break;  // classic for, not range-for
        }
        if (colon != 0) {
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (unordered_names_.count(toks[j].text) != 0) {
              add(toks[i].line, "D1",
                  "iteration over unordered container '" + toks[j].text +
                      "': order is hash-dependent; use std::map or a "
                      "sorted snapshot");
              break;
            }
          }
        }
      }
      if ((toks[i + 1].text == "begin" || toks[i + 1].text == "cbegin") &&
          i + 2 < toks.size() && toks[i + 2].text == "(" &&
          toks[i].text == "." && i >= 1 &&
          unordered_names_.count(toks[i - 1].text) != 0) {
        add(toks[i].line, "D1",
            "begin() on unordered container '" + toks[i - 1].text +
                "': traversal order is hash-dependent; use std::map or a "
                "sorted snapshot");
      }
    }
  }

  /// D2: ambient randomness / wall-clock reads.
  void rule_d2_time_and_rng(const std::vector<Token>& toks) {
    static const std::set<std::string> kBanned = {
        "random_device", "srand",         "system_clock",
        "steady_clock",  "high_resolution_clock", "clock_gettime",
        "gettimeofday",  "timespec_get",
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (kBanned.count(t) != 0) {
        add(toks[i].line, "D2",
            "'" + t +
                "' in simulation code: randomness must come from sg::Rng "
                "and time from the simulator clock");
        continue;
      }
      // rand() / std::rand() — the bare identifier is too common as a
      // fragment, so require the call shape.
      if (t == "rand" && i + 1 < toks.size() && toks[i + 1].text == "(" &&
          (i == 0 || toks[i - 1].text != ".")) {
        add(toks[i].line, "D2",
            "'rand()' in simulation code: use sg::Rng (seeded, forkable, "
            "reproducible)");
      }
      // std::time(...) — bare `time` is ubiquitous (fields, locals), so
      // only the namespace-qualified call is flagged.
      if (t == "time" && i >= 2 && toks[i - 1].text == "::" &&
          toks[i - 2].text == "std" && i + 1 < toks.size() &&
          toks[i + 1].text == "(") {
        add(toks[i].line, "D2",
            "'std::time' in simulation code: time must come from the "
            "simulator clock");
      }
    }
  }

  /// D4: raw new/delete outside src/common/.
  void rule_d4_raw_new_delete(const std::vector<Token>& toks) {
    if (file_.rfind("src/common/", 0) == 0) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      const std::string prev = i > 0 ? toks[i - 1].text : "";
      if (t == "new" && prev != "operator") {
        add(toks[i].line, "D4",
            "raw 'new' outside src/common/: own it with a container or "
            "std::make_unique/make_shared");
      }
      if (t == "delete" && prev != "operator" && prev != "=") {
        add(toks[i].line, "D4",
            "raw 'delete' outside src/common/: ownership belongs to a "
            "smart pointer or container");
      }
    }
  }

  /// D5: threading primitives.
  /// Only the std::-qualified name is flagged (bare `mutex`/`atomic` are
  /// common as locals and fields), mirroring D2's std::time handling.
  void rule_d5_threading_primitives(const std::vector<Token>& toks) {
    static const std::set<std::string> kPrimitives = {
        "thread",        "jthread",
        "mutex",         "recursive_mutex",
        "timed_mutex",   "shared_mutex",
        "shared_timed_mutex",
        "atomic",        "atomic_flag",
        "atomic_ref",
        "condition_variable", "condition_variable_any",
    };
    for (std::size_t i = 2; i < toks.size(); ++i) {
      const std::string& t = toks[i].text;
      if (kPrimitives.count(t) == 0) continue;
      if (toks[i - 1].text != "::" || toks[i - 2].text != "std") continue;
      add(toks[i].line, "D5",
          "'std::" + t +
              "': simulations are single-threaded; replication-level "
              "parallelism needs an allow(D5)");
    }
  }

  /// H1: own header first in a .cpp; no `using namespace` in headers.
  void rule_h1_include_hygiene(const LexResult& lex) {
    const bool is_header = ends_with(file_, ".hpp") || ends_with(file_, ".h");
    if (is_header) {
      for (std::size_t i = 0; i + 1 < lex.tokens.size(); ++i) {
        if (lex.tokens[i].text == "using" &&
            lex.tokens[i + 1].text == "namespace") {
          add(lex.tokens[i].line, "H1",
              "'using namespace' in a header leaks into every includer");
        }
      }
      return;
    }
    if (!ends_with(file_, ".cpp") || lex.includes.empty()) return;
    std::string stem = file_;
    const std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos) stem = stem.substr(slash + 1);
    stem = stem.substr(0, stem.size() - 4);  // drop ".cpp"
    for (std::size_t i = 0; i < lex.includes.size(); ++i) {
      const Include& inc = lex.includes[i];
      std::string base = inc.target;
      const std::size_t s = base.find_last_of('/');
      if (s != std::string::npos) base = base.substr(s + 1);
      if (inc.quoted && (base == stem + ".hpp" || base == stem + ".h")) {
        if (i != 0) {
          add(inc.line, "H1",
              "own header must be the first include (proves it is "
              "self-contained)");
        }
        break;
      }
    }
  }

  /// A0: allow() without a justification.
  void rule_a0_malformed_suppressions(const std::vector<Directive>& ds) {
    for (const Directive& d : ds) {
      if (d.kind == "allow" && d.reason.empty()) {
        add(d.line, "A0",
            "suppression without justification: write 'sglint: "
            "allow(RULE) <reason>'");
      }
    }
  }

  void apply_suppressions(const std::vector<Directive>& ds) {
    std::map<int, std::set<std::string>> allowed;
    for (const Directive& d : ds) {
      if (d.kind != "allow" || d.reason.empty()) continue;
      for (const std::string& r : d.rules) allowed[d.target_line].insert(r);
    }
    if (allowed.empty()) return;
    std::vector<Finding> kept;
    for (Finding& f : findings_) {
      const auto it = allowed.find(f.line);
      if (it != allowed.end() && it->second.count(f.rule) != 0) continue;
      kept.push_back(std::move(f));
    }
    findings_ = std::move(kept);
  }

  std::string file_;
  std::set<std::string> unordered_names_;
  std::vector<Finding> findings_;
};

}  // namespace sglint
