#include "ceaff/common/flags.h"

#include <gtest/gtest.h>

#include "ceaff/common/logging.h"

namespace ceaff {
namespace {

FlagParser ParseArgs(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  auto p = FlagParser::Parse(static_cast<int>(args.size()), args.data());
  CEAFF_CHECK(p.ok());
  return std::move(p).value();
}

TEST(FlagParserTest, SpaceAndEqualsForms) {
  FlagParser p = ParseArgs({"--name", "value", "--count=7"});
  EXPECT_EQ(p.GetString("name", ""), "value");
  EXPECT_EQ(p.GetInt("count", 0), 7);
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser p = ParseArgs({"align", "--data", "dir", "extra"});
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"align", "extra"}));
  EXPECT_EQ(p.GetString("data", ""), "dir");
}

TEST(FlagParserTest, BooleanStyleFlag) {
  FlagParser p = ParseArgs({"--verbose", "--out", "file"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_EQ(p.GetString("out", ""), "file");
  EXPECT_FALSE(p.GetBool("absent", false));
  EXPECT_TRUE(p.GetBool("absent", true));
}

TEST(FlagParserTest, BoolValueSpellings) {
  FlagParser p = ParseArgs({"--a=true", "--b=1", "--c=yes", "--d=no",
                            "--e=false"});
  EXPECT_TRUE(p.GetBool("a", false));
  EXPECT_TRUE(p.GetBool("b", false));
  EXPECT_TRUE(p.GetBool("c", false));
  EXPECT_FALSE(p.GetBool("d", true));
  EXPECT_FALSE(p.GetBool("e", true));
}

TEST(FlagParserTest, NumericFallbacks) {
  FlagParser p = ParseArgs({"--x=abc", "--y=2.5"});
  EXPECT_EQ(p.GetInt("x", 42), 42);          // malformed -> fallback
  EXPECT_DOUBLE_EQ(p.GetDouble("y", 0), 2.5);
  EXPECT_DOUBLE_EQ(p.GetDouble("missing", 1.5), 1.5);
}

TEST(FlagParserTest, GetSizeRejectsValuesBelowTheMinimum) {
  FlagParser p = ParseArgs({"--threads", "-1", "--block_size=0", "--n=7"});
  size_t out = 99;
  EXPECT_FALSE(p.GetSize("delta", "threads", 1, 1, &out));
  EXPECT_EQ(out, 99u);  // untouched on error
  EXPECT_TRUE(p.GetSize("delta", "block_size", 5, 0, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_FALSE(p.GetSize("delta", "block_size", 5, 1, &out));
  EXPECT_TRUE(p.GetSize("delta", "n", 0, 7, &out));
  EXPECT_EQ(out, 7u);
  EXPECT_TRUE(p.GetSize("delta", "missing", 3, 1, &out));
  EXPECT_EQ(out, 3u);
  EXPECT_TRUE(p.UnreadFlags().empty());
}

TEST(FlagParserTest, DoubleDashEndsFlagParsing) {
  FlagParser p = ParseArgs({"--a=1", "--", "--not-a-flag"});
  EXPECT_TRUE(p.Has("a"));
  EXPECT_EQ(p.positional(),
            (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagParserTest, UnreadFlagsReportsTypos) {
  FlagParser p = ParseArgs({"--used=1", "--typo=2"});
  EXPECT_EQ(p.GetInt("used", 0), 1);
  std::vector<std::string> unread = p.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

}  // namespace
}  // namespace ceaff
