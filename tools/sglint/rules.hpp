// sg-lint rule engine: project determinism invariants as named, suppressible
// checks over the token stream produced by lexer.hpp.
//
//   D1  no hash containers: every identifier token unordered_map,
//       unordered_set, unordered_multimap or unordered_multiset is a
//       finding, qualified or not. Their iteration order follows the hash,
//       the bucket count and the library version, the canonical source of
//       run-to-run divergence; banning the type means no iteration of one
//       can slip past the rule. Use std::map/std::set or a dense vector. An
//       alias is flagged where it is spelled.
//   D2  no ambient randomness or wall-clock reads in simulation code: all
//       randomness flows through sg::Rng, all time through the simulator
//       clock. Bans std::random_device, rand, srand, std::time,
//       system_clock/steady_clock/high_resolution_clock, clock_gettime,
//       gettimeofday, timespec_get.
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
// D3 (float/double in a hash container) is retired and its id is not
// reused: D1's ban covers every line it could flag.
//
// Unit safety (TimePoint/Duration mixing, bare integers as times, narrowing
// a quantity to a number, dimension mismatches) is not a lint rule: the
// quantity types in src/common/time.hpp make each of those a compile error,
// and the time_negative_compile test pins the rejections.
//
// Suppression syntax (trailing comment governs its own line, a whole-line
// comment governs the next line):
//
//   std::thread t(run);  // sglint: allow(D5) independent replications
//
// The reason text is mandatory; rule lists may be comma-separated. Spaces
// before '(' and lowercase rule ids (`allow (d5)`) are accepted.
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
  /// `relative_path` decides path-scoped rules (D4 exempts src/common/).
  std::vector<Finding> run(const std::string& relative_path,
                           const LexResult& lex) {
    file_ = relative_path;
    findings_.clear();
    const std::vector<Directive> directives = parse_directives(lex.comments);

    rule_d1_hash_containers(lex.tokens);
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

  bool ends_with(const std::string& s, const std::string& suffix) const {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  /// D1: hash containers, qualified or not.
  void rule_d1_hash_containers(const std::vector<Token>& toks) {
    static const std::set<std::string> kHashContainers = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (const Token& t : toks) {
      if (kHashContainers.count(t.text) == 0) continue;
      add(t.line, "D1",
          "'" + t.text +
              "': hash containers iterate in hash order; use std::map, "
              "std::set or a dense vector");
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
  std::vector<Finding> findings_;
};

}  // namespace sglint
