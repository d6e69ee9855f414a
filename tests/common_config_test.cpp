#include "common/config.hpp"

#include <gtest/gtest.h>

namespace sg {
namespace {

// A key's value parsed by the to_* parsers; an absent key reads as "",
// which neither parser accepts.
std::optional<long long> int_of(const Config& cfg, const std::string& key) {
  return Config::to_int(cfg.get_string(key));
}

std::optional<bool> bool_of(const Config& cfg, const std::string& key) {
  return Config::to_bool(cfg.get_string(key));
}

TEST(ConfigTest, ParsesKeyValues) {
  auto cfg = Config::parse("a = 1\nb = hello\nc=2.5\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "a"), 1);
  EXPECT_EQ(cfg->get_string("b"), "hello");
  EXPECT_DOUBLE_EQ(cfg->try_get_double("c").value(), 2.5);
}

TEST(ConfigTest, SectionsPrefixKeys) {
  auto cfg = Config::parse(
      "[service.nginx]\ncores = 2\n[service.redis]\ncores = 1\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "service.nginx.cores"), 2);
  EXPECT_EQ(int_of(*cfg, "service.redis.cores"), 1);
}

TEST(ConfigTest, CommentsAndBlankLines) {
  auto cfg = Config::parse(
      "# full-line comment\n\na = 1  # trailing comment\n   \n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "a"), 1);
  EXPECT_EQ(cfg->size(), 1u);
}

TEST(ConfigTest, WhitespaceTrimmed) {
  auto cfg = Config::parse("   key   =    value with spaces   \n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->get_string("key"), "value with spaces");
}

TEST(ConfigTest, MalformedLineFails) {
  std::string err;
  EXPECT_FALSE(Config::parse("just a line without equals\n", &err).has_value());
  EXPECT_NE(err.find("line 1"), std::string::npos);
}

TEST(ConfigTest, UnterminatedSectionFails) {
  std::string err;
  EXPECT_FALSE(Config::parse("[broken\n", &err).has_value());
}

TEST(ConfigTest, EmptyKeyFails) {
  EXPECT_FALSE(Config::parse(" = value\n").has_value());
}

TEST(ConfigTest, DefaultsWhenMissing) {
  auto cfg = Config::parse("");
  ASSERT_TRUE(cfg.has_value());
  // Typed reads have no defaults: the caller supplies one.
  EXPECT_FALSE(int_of(*cfg, "nope").has_value());
  EXPECT_FALSE(cfg->try_get_double("nope").has_value());
  EXPECT_FALSE(bool_of(*cfg, "nope").has_value());
  EXPECT_EQ(cfg->get_string("nope", "d"), "d");
}

TEST(ConfigTest, BoolParsing) {
  auto cfg = Config::parse(
      "t1 = true\nt2 = 1\nt3 = yes\nt4 = on\nf1 = false\nf2 = 0\nf3 = no\n"
      "junk = maybe\n");
  ASSERT_TRUE(cfg.has_value());
  for (const char* k : {"t1", "t2", "t3", "t4"}) {
    EXPECT_EQ(bool_of(*cfg, k), std::optional<bool>(true)) << k;
  }
  for (const char* k : {"f1", "f2", "f3"}) {
    EXPECT_EQ(bool_of(*cfg, k), std::optional<bool>(false)) << k;
  }
  EXPECT_FALSE(bool_of(*cfg, "junk").has_value());  // unparsable
}

TEST(ConfigTest, TypeMismatchYieldsNoValue) {
  auto cfg = Config::parse("s = notanumber\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_FALSE(int_of(*cfg, "s").has_value());
  EXPECT_FALSE(cfg->try_get_double("s").has_value());
  EXPECT_FALSE(bool_of(*cfg, "s").has_value());
}

TEST(ConfigTest, NumbersParseStrictly) {
  auto cfg = Config::parse("x = 12\ny = 3.5\nz = 12abc\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "x").value(), 12);
  EXPECT_DOUBLE_EQ(cfg->try_get_double("y").value(), 3.5);
  EXPECT_FALSE(int_of(*cfg, "z").has_value());  // trailing junk
}

TEST(ConfigTest, OverflowingIntegerYieldsNoValue) {
  // strtoll clamps to the nearest end and sets ERANGE; the clamp is never
  // returned as if it were the value.
  auto cfg = Config::parse(
      "max = 9223372036854775807\nmin = -9223372036854775808\n"
      "wide = 99999999999999999999999\nnarrow = -9223372036854775809\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "max"), 9223372036854775807LL);
  EXPECT_EQ(int_of(*cfg, "min"), -9223372036854775807LL - 1);
  EXPECT_FALSE(int_of(*cfg, "wide").has_value());
  EXPECT_FALSE(int_of(*cfg, "narrow").has_value());
}

TEST(ConfigTest, EmbeddedNulIsTrailingJunk) {
  const std::string five_x("5\0x", 3);
  EXPECT_FALSE(Config::to_int(five_x).has_value());
  EXPECT_FALSE(Config::to_double(five_x).has_value());
  EXPECT_EQ(Config::to_int("5"), 5);
}

TEST(ConfigTest, ToBoolParsesStrictly) {
  auto cfg = Config::parse("a = yes\nb = off\nc = ture\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(bool_of(*cfg, "a"), std::optional<bool>(true));
  EXPECT_EQ(bool_of(*cfg, "b"), std::optional<bool>(false));
  EXPECT_FALSE(bool_of(*cfg, "c").has_value());  // misspelled
  EXPECT_FALSE(bool_of(*cfg, "missing").has_value());
}

TEST(ConfigTest, SetAndRoundTrip) {
  Config cfg;
  cfg.set("b", "2");
  cfg.set("a", "1");
  EXPECT_EQ(int_of(cfg, "a"), 1);
  EXPECT_EQ(int_of(cfg, "b"), 2);
}

TEST(ConfigTest, LastWriterWins) {
  auto cfg = Config::parse("a = 1\na = 2\n");
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(int_of(*cfg, "a"), 2);
}

TEST(ConfigTest, LoadMissingFileFails) {
  std::string err;
  EXPECT_FALSE(Config::load("/nonexistent/path/config", &err).has_value());
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace sg
