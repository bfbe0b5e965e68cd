#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace ppdc {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, EqualsSyntax) {
  const auto o = parse({"--k=8", "--name=test"});
  EXPECT_EQ(o.get_int("k", 0), 8);
  EXPECT_EQ(o.get_string("name", ""), "test");
}

TEST(Options, SpaceSyntax) {
  const auto o = parse({"--trials", "20"});
  EXPECT_EQ(o.get_int("trials", 0), 20);
}

TEST(Options, BareFlagIsTrue) {
  const auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get_bool("verbose", false));
}

TEST(Options, Fallbacks) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(o.get_string("missing", "x"), "x");
  EXPECT_FALSE(o.get_bool("missing", false));
  EXPECT_FALSE(o.has("missing"));
}

TEST(Options, DoubleParsing) {
  const auto o = parse({"--mu=1e4"});
  EXPECT_DOUBLE_EQ(o.get_double("mu", 0.0), 1e4);
}

TEST(Options, RejectsNonInteger) {
  const auto o = parse({"--k=abc"});
  EXPECT_THROW(o.get_int("k", 0), PpdcError);
}

TEST(Options, RejectsNonBoolean) {
  const auto o = parse({"--flag=maybe"});
  EXPECT_THROW(o.get_bool("flag", false), PpdcError);
}

TEST(Options, BooleanSpellings) {
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=off"}).get_bool("a", true));
}

TEST(Options, RejectsPositionalArgument) {
  std::vector<const char*> argv{"prog", "positional"};
  EXPECT_THROW(Options::parse(2, argv.data()), PpdcError);
}

TEST(Options, RestrictToCatchesTypos) {
  const auto o = parse({"--trils=20"});
  EXPECT_THROW(o.restrict_to({"trials"}), PpdcError);
  EXPECT_NO_THROW(o.restrict_to({"trils"}));
}

TEST(Options, KeysLists) {
  const auto o = parse({"--b=2", "--a=1"});
  const auto ks = o.keys();
  ASSERT_EQ(ks.size(), 2u);
  EXPECT_EQ(ks[0], "a");
  EXPECT_EQ(ks[1], "b");
}

/// The PpdcError message of `fn`, or "" when it does not throw one.
template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const PpdcError& e) {
    return e.what();
  }
  return "";
}

TEST(Options, IntListParsesEveryItem) {
  const auto o = parse({"--lvalues=5,7,-2"});
  EXPECT_EQ(o.get_int_list("lvalues", {}), (std::vector<int>{5, 7, -2}));
}

TEST(Options, ListFallsBackToDefault) {
  const auto o = parse({});
  EXPECT_EQ(o.get_int_list("lvalues", {50, 100}),
            (std::vector<int>{50, 100}));
  EXPECT_EQ(o.get_double_list("mtbf", {0, 1.5}),
            (std::vector<double>{0.0, 1.5}));
}

TEST(Options, IntListRejectsNonIntegerItemNamingKey) {
  const auto o = parse({"--lvalues=5,x"});
  const std::string what = error_of([&] { o.get_int_list("lvalues", {}); });
  EXPECT_NE(what.find("--lvalues"), std::string::npos) << what;
  EXPECT_NE(what.find("'x'"), std::string::npos) << what;
}

TEST(Options, IntListRejectsTrailingJunk) {
  const auto o = parse({"--lvalues=5,7x"});
  const std::string what = error_of([&] { o.get_int_list("lvalues", {}); });
  EXPECT_NE(what.find("--lvalues"), std::string::npos) << what;
  EXPECT_NE(what.find("'7x'"), std::string::npos) << what;
}

TEST(Options, ListsRejectEmptyItems) {
  for (const char* arg : {"--l=5,,7", "--l=5,", "--l=,5", "--l="}) {
    const auto o = parse({arg});
    EXPECT_NE(error_of([&] { o.get_int_list("l", {}); }).find("--l"),
              std::string::npos)
        << arg;
    EXPECT_NE(error_of([&] { o.get_double_list("l", {}); }).find("--l"),
              std::string::npos)
        << arg;
  }
}

TEST(Options, DoubleListParsesAndRejectsJunk) {
  EXPECT_EQ(parse({"--s=0,1.5,2e1"}).get_double_list("s", {}),
            (std::vector<double>{0.0, 1.5, 20.0}));
  const auto o = parse({"--s=1.5,2.5y"});
  EXPECT_NE(error_of([&] { o.get_double_list("s", {}); }).find("--s"),
            std::string::npos);
}

TEST(Options, IntListRejectsOutOfRangeItem) {
  const auto o = parse({"--l=1,99999999999"});
  EXPECT_NE(error_of([&] { o.get_int_list("l", {}); }).find("--l"),
            std::string::npos);
}

TEST(Options, IntRejectsOverflowNamingKey) {
  const auto o =
      parse({"--seed=99999999999999999999", "--neg=-99999999999999999999"});
  EXPECT_NE(error_of([&] { o.get_int("seed", 0); }).find("--seed"),
            std::string::npos);
  EXPECT_NE(error_of([&] { o.get_int("neg", 0); }).find("--neg"),
            std::string::npos);
  // The extremes themselves still parse.
  const auto edge = parse({"--max=9223372036854775807"});
  EXPECT_EQ(edge.get_int("max", 0), INT64_MAX);
}

TEST(Options, Int32RejectsOutOfIntValueNamingKey) {
  const auto o = parse({"--k=4294967300", "--l=-2147483649", "--n=7"});
  EXPECT_NE(error_of([&] { o.get_int32("k", 0); }).find("--k"),
            std::string::npos);
  EXPECT_NE(error_of([&] { o.get_int32("l", 0); }).find("--l"),
            std::string::npos);
  EXPECT_EQ(o.get_int32("n", 0), 7);
  EXPECT_EQ(o.get_int32("missing", -3), -3);
  EXPECT_EQ(parse({"--m=2147483647"}).get_int32("m", 0), INT32_MAX);
  EXPECT_THROW(parse({"--k=abc"}).get_int32("k", 0), PpdcError);
}

}  // namespace
}  // namespace ppdc
