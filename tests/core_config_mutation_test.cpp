// Mutation test of the config-file surface. sample_config, with every
// commented example turned on, is mutated a few thousand times from a fixed
// seed: bytes are dropped, duplicated or bit-flipped; a value moves to
// another key; digits are appended to a number, or a number becomes nan,
// inf, -0 or 1e999. Each mutant must either parse, or fail with an error
// naming a key the mutant sets (a syntax error names its line instead). An
// SG_ASSERT anywhere on the path aborts the test binary.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config_map.hpp"
#include "sample_config_util.hpp"

namespace sg {
namespace {

/// Where the values and the numbers inside them sit in a config text.
struct Spans {
  struct Span {
    std::size_t begin;
    std::size_t size;
  };
  std::vector<Span> values;   // after `key = `, to the end of the line
  std::vector<Span> numbers;  // digit runs (with . and e) inside values
};

Spans find_spans(const std::string& text) {
  Spans spans;
  std::size_t line = 0;
  while (line < text.size()) {
    std::size_t end = text.find('\n', line);
    if (end == std::string::npos) end = text.size();
    const std::size_t eq = text.find(" = ", line);
    if (text[line] != '#' && eq < end) {
      const std::size_t value = eq + 3;
      spans.values.push_back({value, end - value});
      for (std::size_t i = value; i < end;) {
        if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
          ++i;
          continue;
        }
        const std::size_t first = i;
        while (i < end && (std::isdigit(static_cast<unsigned char>(text[i])) ||
                           text[i] == '.' || text[i] == 'e')) {
          ++i;
        }
        spans.numbers.push_back({first, i - first});
      }
    }
    line = end + 1;
  }
  return spans;
}

enum class Op {
  kDrop,
  kDuplicate,
  kFlip,
  kMoveValue,
  kAppendDigits,
  kSubstitute,
};
constexpr Op kOps[] = {Op::kDrop,      Op::kDuplicate,    Op::kFlip,
                       Op::kMoveValue, Op::kAppendDigits, Op::kSubstitute};
constexpr int kMutantsPerOp = 500;

std::string mutate(const std::string& text, const Spans& spans, Op op,
                   Rng& rng) {
  const auto pick = [&rng](const std::vector<Spans::Span>& from) {
    return from[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(from.size()) - 1))];
  };
  const auto at = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
  std::string out = text;
  switch (op) {
    case Op::kDrop:
      out.erase(at, 1);
      break;
    case Op::kDuplicate:
      out.insert(at, 1, text[at]);
      break;
    case Op::kFlip:
      out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_int(0, 6)));
      break;
    case Op::kMoveValue: {
      const Spans::Span from = pick(spans.values);
      const Spans::Span to = pick(spans.values);
      out.replace(to.begin, to.size, text.substr(from.begin, from.size));
      break;
    }
    case Op::kAppendDigits: {
      const Spans::Span number = pick(spans.numbers);
      std::string digits;
      for (std::int64_t n = rng.uniform_int(1, 25); n > 0; --n) {
        digits += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      out.insert(number.begin + number.size, digits);
      break;
    }
    case Op::kSubstitute: {
      const char* const kSpecial[] = {"nan", "inf", "-0", "1e999"};
      const Spans::Span number = pick(spans.numbers);
      out.replace(number.begin, number.size, kSpecial[rng.uniform_int(0, 3)]);
      break;
    }
  }
  return out;
}

/// Whether `error` names one of the keys `file` sets.
bool names_a_key(const std::string& error, const Config& file) {
  for (const std::string& key : file.keys()) {
    if (error.find(key) != std::string::npos) return true;
  }
  return false;
}

TEST(ConfigMutationTest, EveryMutantParsesOrNamesItsKey) {
  const std::string base =
      test::uncomment_examples(test::sample_config_text());
  const Spans spans = find_spans(base);
  ASSERT_GE(spans.values.size(), 25u) << "sample_config has fewer values";
  ASSERT_GE(spans.numbers.size(), 25u) << "sample_config has fewer numbers";
  ASSERT_TRUE(Config::parse(base).has_value());

  Rng rng(2024);
  int mutants = 0, syntax_errors = 0, parsed = 0, rejected = 0;
  for (const Op op : kOps) {
    for (int i = 0; i < kMutantsPerOp; ++i, ++mutants) {
      const std::string mutant = mutate(base, spans, op, rng);
      std::string error;
      const auto file = Config::parse(mutant, &error);
      if (!file) {
        ++syntax_errors;
        EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
        continue;
      }
      const auto cfg = experiment_from_config(*file, &error);
      if (cfg) {
        ++parsed;
        // What a run does next with a parsed config, short of running it.
        TargetMap targets;
        apply_target_overrides(*file, cfg->workload, &targets);
        const SpikePattern pattern = cfg->make_pattern();
        const TimePoint start = TimePoint::at(cfg->warmup);
        pattern.rate_at(pattern.next_rate_change(start));
        continue;
      }
      ++rejected;
      EXPECT_TRUE(names_a_key(error, *file))
          << "error: " << error << "\nmutant:\n" << mutant;
    }
  }
  EXPECT_GE(mutants, 2000);
  // Both outcomes are exercised, so neither check above is vacuous.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
  std::printf("%d mutants: %d syntax errors, %d parsed, %d rejected\n",
              mutants, syntax_errors, parsed, rejected);
  RecordProperty("syntax_errors", syntax_errors);
  RecordProperty("parsed", parsed);
  RecordProperty("rejected", rejected);
}

}  // namespace
}  // namespace sg
