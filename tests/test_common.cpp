// Unit tests: common (RNG, math helpers, JSON escaping, config).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/mathx.hpp"
#include "common/rng.hpp"

namespace sickle {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng base(42);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDeterministic) {
  Rng x = Rng(42).fork(7);
  Rng y = Rng(42).fork(7);
  EXPECT_EQ(x.next(), y.next());
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(1);
  const auto s = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const auto i : s) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(2);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(3);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), CheckError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Mathx, MeanVarianceKnown) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(variance(v), 5.0 / 3.0, 1e-12);
}

TEST(Mathx, MinMax) {
  const std::vector<double> v{3.0, -1.0, 2.0};
  const auto [lo, hi] = min_max(v);
  EXPECT_EQ(lo, -1.0);
  EXPECT_EQ(hi, 3.0);
}

TEST(Mathx, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(next_pow2(33), 64u);
  EXPECT_EQ(next_pow2(64), 64u);
  EXPECT_EQ(ceil_div(7, 3), 3u);
}

/// What Json's string writer puts between the quotes for `s`.
std::string json_escape(const std::string& s) {
  const std::string quoted = Json(s).dump();
  EXPECT_EQ(quoted.front(), '"');
  EXPECT_EQ(quoted.back(), '"');
  return quoted.substr(1, quoted.size() - 2);
}

TEST(JsonEscape, PinsEscapesForQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\\"), "\\\\");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("a \"b\"\r\n"), "a \\\"b\\\"\\r\\n");
}

TEST(JsonEscape, Utf8MultiByteNamePassesThrough) {
  // "séance→Ω" in UTF-8: two-, three- and two-byte sequences.
  const std::string name = "s\xc3\xa9" "ance\xe2\x86\x92\xce\xa9";
  EXPECT_EQ(json_escape(name), name);
}

TEST(JsonNumber, IntegersPrintInFullAndFractionsRoundTrip) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-42.0).dump(), "-42");
  EXPECT_EQ(Json(4503599627370497.0).dump(), "4503599627370497");  // 2^52+1
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  EXPECT_EQ(Json(1234.567).dump(), "1234.567");
  for (const double v : {0.1, 1.0 / 3.0, 1234.567, 6.02e23, -2.5e-300}) {
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v) << v;
  }
}

TEST(Config, ParsesSectionsAndScalars) {
  const auto cfg = Config::parse(
      "shared:\n"
      "  dims: 3\n"
      "  cluster_var: pv\n"
      "subsample:\n"
      "  num_samples: 3277\n"
      "  method: maxent\n");
  EXPECT_EQ(cfg.get_int("shared", "dims"), 3);
  EXPECT_EQ(cfg.get_str("shared", "cluster_var"), "pv");
  EXPECT_EQ(cfg.get_int("subsample", "num_samples"), 3277);
}

TEST(Config, ParsesLists) {
  const auto cfg = Config::parse(
      "shared:\n"
      "  input_vars: [u, v, w, r]\n");
  const auto vars = cfg.get_list("shared", "input_vars");
  ASSERT_EQ(vars.size(), 4u);
  EXPECT_EQ(vars[0], "u");
  EXPECT_EQ(vars[3], "r");
}

TEST(Config, CommentsIgnored) {
  const auto cfg = Config::parse(
      "# header comment\n"
      "train:\n"
      "  epochs: 1000 # like the paper\n");
  EXPECT_EQ(cfg.get_int("train", "epochs"), 1000);
}

TEST(Config, DefaultsAndMissing) {
  const auto cfg = Config::parse("train:\n  batch: 16\n");
  EXPECT_EQ(cfg.get_int("train", "missing", 5), 5);
  EXPECT_THROW((void)cfg.get_int("train", "missing"), RuntimeError);
  EXPECT_TRUE(cfg.get_bool("train", "absent", true));
}

TEST(Config, MalformedLineThrows) {
  EXPECT_THROW(Config::parse("train:\n  not a kv pair\n"), RuntimeError);
}

TEST(Config, BadIntegerThrows) {
  const auto cfg = Config::parse("a:\n  k: xyz\n");
  EXPECT_THROW((void)cfg.get_int("a", "k"), RuntimeError);
}

TEST(Config, SetOverrides) {
  Config cfg;
  cfg.set("train", "epochs", "10");
  EXPECT_EQ(cfg.get_int("train", "epochs"), 10);
}

}  // namespace
}  // namespace sickle
