// Mutation test of the fault-plan surface. A spec with one window of each
// of the six kinds is mutated a few thousand times from a fixed seed: bytes
// are dropped, duplicated or bit-flipped; a key moves onto a window whose
// kind does not read it; digits are appended to a number, or a number
// becomes nan, inf, -0 or 1e999; a `;`, `:` or `,` is dropped. Each mutant
// must either parse, or fail with an error. A mutant that parses must echo
// as a spec that parses back to the same plan. An SG_ASSERT anywhere on the
// path aborts the test binary.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"

namespace sg {
namespace {

/// One window: its kind and its `key=value` pairs, in spec order.
struct Window {
  std::string kind;
  std::vector<std::string> pairs;
};

const std::vector<Window> kBase = {
    {"drop", {"start_ms=3000", "len_ms=1500", "rate=0.05"}},
    {"dup", {"start_ms=3500", "len_ms=1000", "rate=0.05"}},
    {"delay", {"start_ms=4500", "len_ms=1000", "extra_us=200"}},
    {"slow", {"node=0", "start_ms=5500", "len_ms=400", "factor=0.5"}},
    {"freeze", {"node=1", "start_ms=6100.25", "len_ms=200"}},
    {"stall", {"start_ms=6500", "len_ms=0.5"}},
};

std::string render(const std::vector<Window>& windows) {
  std::string out;
  for (const Window& w : windows) {
    if (!out.empty()) out += ';';
    out += w.kind + ':';
    for (std::size_t i = 0; i < w.pairs.size(); ++i) {
      if (i > 0) out += ',';
      out += w.pairs[i];
    }
  }
  return out;
}

/// Whether a window of `kind` reads `key` (FaultPlan::parse's table).
bool reads(const std::string& kind, const std::string& key) {
  if (key == "rate") return kind == "drop" || kind == "dup";
  if (key == "extra_us") return kind == "delay";
  if (key == "factor") return kind == "slow";
  if (key == "node") return kind == "slow" || kind == "freeze";
  return true;
}

/// Where a number starts, and how long it is, in a spec text.
struct Span {
  std::size_t begin;
  std::size_t size;
};

std::vector<Span> find_numbers(const std::string& text) {
  std::vector<Span> numbers;
  for (std::size_t i = 0; i < text.size();) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    const std::size_t first = i;
    while (i < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[i])) ||
            text[i] == '.' || text[i] == 'e')) {
      ++i;
    }
    numbers.push_back({first, i - first});
  }
  return numbers;
}

enum class Op {
  kDrop,
  kDuplicate,
  kFlip,
  kMoveKey,
  kAppendDigits,
  kSubstitute,
  kDropSeparator,
};
constexpr Op kOps[] = {Op::kDrop,         Op::kDuplicate,  Op::kFlip,
                       Op::kMoveKey,      Op::kAppendDigits,
                       Op::kSubstitute,   Op::kDropSeparator};
constexpr int kMutantsPerOp = 500;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Moves a key that only some kinds read from its window to the end of a
/// window whose kind does not read it.
std::string move_key(Rng& rng) {
  std::vector<Window> windows = kBase;
  std::vector<std::pair<std::size_t, std::size_t>> movable;  // window, pair
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t p = 0; p < windows[w].pairs.size(); ++p) {
      const std::string& pair = windows[w].pairs[p];
      const std::string key = pair.substr(0, pair.find('='));
      if (key != "start_ms" && key != "len_ms") movable.push_back({w, p});
    }
  }
  const auto [from, index] = movable[pick(rng, movable.size())];
  const std::string pair = windows[from].pairs[index];
  const std::string key = pair.substr(0, pair.find('='));
  std::vector<std::size_t> targets;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!reads(windows[w].kind, key)) targets.push_back(w);
  }
  windows[from].pairs.erase(windows[from].pairs.begin() +
                            static_cast<std::ptrdiff_t>(index));
  windows[targets[pick(rng, targets.size())]].pairs.push_back(pair);
  return render(windows);
}

std::string mutate(const std::string& text, const std::vector<Span>& numbers,
                   Op op, Rng& rng) {
  const std::size_t at = pick(rng, text.size());
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
    case Op::kMoveKey:
      out = move_key(rng);
      break;
    case Op::kAppendDigits: {
      const Span number = numbers[pick(rng, numbers.size())];
      std::string digits;
      for (std::int64_t n = rng.uniform_int(1, 25); n > 0; --n) {
        digits += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      out.insert(number.begin + number.size, digits);
      break;
    }
    case Op::kSubstitute: {
      const char* const kSpecial[] = {"nan", "inf", "-0", "1e999"};
      const Span number = numbers[pick(rng, numbers.size())];
      out.replace(number.begin, number.size, kSpecial[rng.uniform_int(0, 3)]);
      break;
    }
    case Op::kDropSeparator: {
      std::vector<std::size_t> separators;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ';' || text[i] == ':' || text[i] == ',') {
          separators.push_back(i);
        }
      }
      out.erase(separators[pick(rng, separators.size())], 1);
      break;
    }
  }
  return out;
}

TEST(FaultPlanMutationTest, EveryMutantParsesOrFailsAndEchoesItself) {
  const std::string base = render(kBase);
  const std::vector<Span> numbers = find_numbers(base);
  ASSERT_GE(numbers.size(), 15u);
  const auto parsed_base = FaultPlan::parse(base);
  ASSERT_TRUE(parsed_base.has_value());
  ASSERT_EQ(parsed_base->size(), kBase.size());

  Rng rng(2025);
  int mutants = 0, parsed = 0, rejected = 0;
  for (const Op op : kOps) {
    for (int i = 0; i < kMutantsPerOp; ++i, ++mutants) {
      const std::string mutant = mutate(base, numbers, op, rng);
      std::string error;
      const auto plan = FaultPlan::parse(mutant, &error);
      if (!plan) {
        ++rejected;
        EXPECT_FALSE(error.empty()) << "mutant: " << mutant;
        continue;
      }
      ++parsed;
      const std::string echo = plan->to_string();
      const auto reparsed = FaultPlan::parse(echo, &error);
      ASSERT_TRUE(reparsed.has_value())
          << "mutant: " << mutant << "\necho: " << echo << "\n" << error;
      EXPECT_EQ(*reparsed, *plan) << "mutant: " << mutant << "\necho: " << echo;
    }
  }
  EXPECT_GE(mutants, 3000);
  // Both outcomes are exercised, so neither check above is vacuous.
  EXPECT_GT(parsed, 300);
  EXPECT_GT(rejected, 300);
  std::printf("%d mutants: %d parsed, %d rejected\n", mutants, parsed,
              rejected);
  RecordProperty("parsed", parsed);
  RecordProperty("rejected", rejected);
}

}  // namespace
}  // namespace sg
