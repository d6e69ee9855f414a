// Mutation test of sg_run's flag parser (parse_run_flags). A command line
// using every flag is mutated a few thousand times from a fixed seed: bytes
// are dropped or duplicated, the line is truncated, a flag is duplicated,
// flags are reordered, a flag loses its value, or an unknown flag is
// inserted. Each mutant must either parse, or fail with an error naming the
// flag. A mutant that parses must carry exactly the overrides its flags set,
// in flag order. An abort anywhere on the path fails the test binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/run_flags.hpp"

namespace sg {
namespace {

using Args = std::vector<std::string>;
using Overrides = std::vector<std::pair<std::string, std::string>>;

/// One flag as sg_run documents it: the config keys it sets, in order; a
/// flag with a value puts it in its last key, every other key reads "true".
struct Flag {
  std::string name;
  std::vector<std::string> keys;
  bool takes_value;
};

const std::vector<Flag> kFlags = {
    {"--histogram", {}, false},
    {"--quiet", {}, false},
    {"--fault-plan", {"fault.plan"}, true},
    {"--trace", {"trace.enabled"}, false},
    {"--trace-sample", {"trace.enabled", "trace.sample"}, true},
    {"--trace-out", {"trace.enabled", "trace.out"}, true},
};

/// The base command line, one group per flag (the flag, then its value).
const std::vector<Args> kBase = {
    {"--histogram"},
    {"--fault-plan", "drop:start_ms=1500,len_ms=1000,rate=0.1"},
    {"--trace"},
    {"--trace-sample", "0.25"},
    {"--trace-out", "out/trace.json"},
    {"--quiet"},
};

const std::vector<std::string> kUnknown = {
    "--qiuck", "--trace-outt", "-h2", "", "-", "--", "trace", "--TRACE",
};

const Flag* find_flag(const std::string& name) {
  for (const Flag& f : kFlags) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

/// The outcome the documented flag table predicts for `args`: the
/// overrides, the display flags, or the error of the first bad flag.
struct Expected {
  std::string error;  // empty when `args` parses
  RunFlags flags;
};

Expected predict(const Args& args) {
  Expected want;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Flag* f = find_flag(args[i]);
    if (f == nullptr) {
      want.error = "unknown flag '" + args[i] + "' (see --help)";
      return want;
    }
    if (f->takes_value && i + 1 >= args.size()) {
      want.error = args[i] + " requires a value";
      return want;
    }
    want.flags.histogram |= f->name == "--histogram";
    want.flags.quiet |= f->name == "--quiet";
    for (std::size_t k = 0; k < f->keys.size(); ++k) {
      const bool is_value = f->takes_value && k + 1 == f->keys.size();
      want.flags.overrides.emplace_back(f->keys[k],
                                        is_value ? args[i + 1] : "true");
    }
    if (f->takes_value) ++i;
  }
  return want;
}

Args flatten(const std::vector<Args>& groups) {
  Args out;
  for (const Args& g : groups) out.insert(out.end(), g.begin(), g.end());
  return out;
}

enum class Op {
  kDropByte,
  kDuplicateByte,
  kTruncate,
  kDuplicateFlag,
  kReorder,
  kRemoveValue,
  kUnknownFlag,
};
constexpr Op kOps[] = {Op::kDropByte,      Op::kDuplicateByte, Op::kTruncate,
                       Op::kDuplicateFlag, Op::kReorder,       Op::kRemoveValue,
                       Op::kUnknownFlag};
constexpr int kMutantsPerOp = 500;

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Args mutate(Op op, Rng& rng) {
  std::vector<Args> groups = kBase;
  switch (op) {
    case Op::kDropByte:
    case Op::kDuplicateByte: {
      Args args = flatten(groups);
      std::string& arg = args[pick(rng, args.size())];
      const std::size_t at = pick(rng, arg.size());
      if (op == Op::kDropByte) {
        arg.erase(at, 1);
      } else {
        arg.insert(at, 1, arg[at]);
      }
      return args;
    }
    case Op::kTruncate: {
      Args args = flatten(groups);
      args.resize(pick(rng, args.size()));
      return args;
    }
    case Op::kDuplicateFlag: {
      const Args copy = groups[pick(rng, groups.size())];
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, groups.size() + 1)),
                    copy);
      break;
    }
    case Op::kReorder:
      for (std::size_t i = groups.size() - 1; i > 0; --i) {
        std::swap(groups[i], groups[pick(rng, i + 1)]);
      }
      break;
    case Op::kRemoveValue: {
      std::vector<std::size_t> with_value;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (groups[g].size() == 2) with_value.push_back(g);
      }
      groups[with_value[pick(rng, with_value.size())]].pop_back();
      break;
    }
    case Op::kUnknownFlag:
      groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(
                                         pick(rng, groups.size() + 1)),
                    Args{kUnknown[pick(rng, kUnknown.size())]});
      break;
  }
  return flatten(groups);
}

std::string show(const Args& args) {
  std::string out;
  for (const std::string& a : args) out += " '" + a + "'";
  return out;
}

TEST(RunFlagsMutationTest, BaseLineSetsEveryKey) {
  std::string error;
  const auto flags = parse_run_flags(flatten(kBase), &error);
  ASSERT_TRUE(flags.has_value()) << error;
  EXPECT_TRUE(flags->histogram);
  EXPECT_TRUE(flags->quiet);
  const Overrides want = {
      {"fault.plan", "drop:start_ms=1500,len_ms=1000,rate=0.1"},
      {"trace.enabled", "true"},
      {"trace.enabled", "true"},
      {"trace.sample", "0.25"},
      {"trace.enabled", "true"},
      {"trace.out", "out/trace.json"},
  };
  EXPECT_EQ(flags->overrides, want);
  EXPECT_TRUE(parse_run_flags({}, &error).has_value());
}

TEST(RunFlagsMutationTest, EveryMutantParsesOrNamesTheFlag) {
  Rng rng(2025);
  int mutants = 0, parsed = 0, rejected = 0;
  for (const Op op : kOps) {
    for (int i = 0; i < kMutantsPerOp; ++i, ++mutants) {
      const Args mutant = mutate(op, rng);
      const Expected want = predict(mutant);
      std::string error;
      const auto flags = parse_run_flags(mutant, &error);
      if (!flags) {
        ++rejected;
        EXPECT_EQ(error, want.error) << "mutant:" << show(mutant);
        continue;
      }
      ++parsed;
      EXPECT_EQ(want.error, "") << "mutant:" << show(mutant);
      EXPECT_EQ(flags->histogram, want.flags.histogram)
          << "mutant:" << show(mutant);
      EXPECT_EQ(flags->quiet, want.flags.quiet) << "mutant:" << show(mutant);
      EXPECT_EQ(flags->overrides, want.flags.overrides)
          << "mutant:" << show(mutant);
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
