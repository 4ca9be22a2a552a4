// Unit and property tests for the util module: bytes, Result, Rng,
// SimTime, stats, strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/alloc.hpp"
#include "util/ascii_chart.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/hash.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/sharded_cache.hpp"
#include "util/sim_time.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mustaple::util {
namespace {

// ---------------------------------------------------------------- bytes --

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_EQ(from_hex(""), Bytes{});
}

TEST(Bytes, HexUppercaseAccepted) {
  EXPECT_EQ(from_hex("ABCDEF"), (Bytes{0xab, 0xcd, 0xef}));
}

TEST(Bytes, HexOddLengthThrows) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexBadCharThrows) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, TextRoundTrip) {
  EXPECT_EQ(text_of(bytes_of("hello")), "hello");
}

TEST(Bytes, AppendConcatenates) {
  Bytes a = {1, 2};
  append(a, {3, 4});
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, ConstantTimeEqual) {
  EXPECT_TRUE(equal_constant_time({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(equal_constant_time({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(equal_constant_time({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(equal_constant_time({}, {}));
}

// --------------------------------------------------------------- result --

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(Result, HoldsError) {
  auto r = Result<int>::failure("some.code", "detail");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "some.code");
  EXPECT_EQ(r.error().to_string(), "some.code: detail");
}

TEST(Result, ValueOnErrorThrows) {
  auto r = Result<int>::failure("x");
  EXPECT_THROW(r.value(), std::logic_error);
}

TEST(Result, ErrorOnSuccessThrows) {
  Result<int> r(1);
  EXPECT_THROW(r.error(), std::logic_error);
}

TEST(Result, TakeMovesValue) {
  Result<std::string> r(std::string("abc"));
  EXPECT_EQ(std::move(r).take(), "abc");
}

TEST(Status, SuccessAndFailure) {
  EXPECT_TRUE(Status::success().ok());
  auto s = Status::failure("code");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, "code");
}

// ------------------------------------------------------------------ rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIndependentOfLabel) {
  Rng parent(99);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
  // Forking does not advance the parent.
  Rng parent2(99);
  EXPECT_EQ(parent.next_u64(), parent2.next_u64());
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, Uniform01InRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(12);
  double sum = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kTrials, 5.0, 0.3);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, WeightedIndexDistribution) {
  Rng rng(14);
  std::vector<double> weights = {1.0, 3.0};
  int second = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    second += rng.weighted_index(weights) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(second) / kTrials, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsBadWeights) {
  Rng rng(15);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, FillCoversBuffer) {
  Rng rng(16);
  std::uint8_t buffer[37] = {};
  rng.fill(buffer, sizeof(buffer));
  int nonzero = 0;
  for (std::uint8_t b : buffer) nonzero += b != 0 ? 1 : 0;
  EXPECT_GT(nonzero, 20);  // overwhelmingly likely
}

// ------------------------------------------------------------- sim_time --

TEST(SimTime, EpochIsZero) {
  EXPECT_EQ(make_time(1970, 1, 1).unix_seconds, 0);
}

TEST(SimTime, KnownTimestamp) {
  // 2018-04-25 00:00:00 UTC == 1524614400.
  EXPECT_EQ(make_time(2018, 4, 25).unix_seconds, 1524614400);
}

TEST(SimTime, LeapYearHandling) {
  EXPECT_EQ(make_time(2016, 3, 1) - make_time(2016, 2, 28),
            Duration::days(2));
  EXPECT_EQ(make_time(2018, 3, 1) - make_time(2018, 2, 28),
            Duration::days(1));
  EXPECT_EQ(make_time(2000, 3, 1) - make_time(2000, 2, 28),
            Duration::days(2));  // 2000 IS a leap year (div by 400)
  EXPECT_EQ(make_time(1900, 3, 1) - make_time(1900, 2, 28),
            Duration::days(1));  // 1900 is NOT
}

TEST(SimTime, RejectsInvalidCivil) {
  EXPECT_THROW(make_time(2018, 13, 1), std::invalid_argument);
  EXPECT_THROW(make_time(2018, 2, 29), std::invalid_argument);
  EXPECT_THROW(make_time(2018, 1, 1, 24), std::invalid_argument);
  EXPECT_THROW(make_time(2018, 0, 1), std::invalid_argument);
}

TEST(SimTime, FormatTime) {
  EXPECT_EQ(format_time(make_time(2018, 9, 4, 13, 5, 9)),
            "2018-09-04 13:05:09");
}

TEST(SimTime, GeneralizedTimeRoundTrip) {
  const SimTime t = make_time(2018, 4, 25, 19, 30, 45);
  EXPECT_EQ(to_generalized_time(t), "20180425193045Z");
  EXPECT_EQ(from_generalized_time("20180425193045Z"), t);
}

TEST(SimTime, GeneralizedTimeNeedsAFourDigitYear) {
  EXPECT_EQ(to_generalized_time(make_time(0, 1, 1)), "00000101000000Z");
  EXPECT_EQ(to_generalized_time(make_time(9999, 12, 31, 23, 59, 59)),
            "99991231235959Z");
  EXPECT_THROW(to_generalized_time(make_time(10000, 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(to_generalized_time(make_time(-1, 12, 31)),
               std::invalid_argument);
}

TEST(SimTime, GeneralizedTimeRejectsMalformed) {
  EXPECT_THROW(from_generalized_time("2018"), std::invalid_argument);
  EXPECT_THROW(from_generalized_time("20180425193045"), std::invalid_argument);
  EXPECT_THROW(from_generalized_time("2018042519304xZ"), std::invalid_argument);
  EXPECT_THROW(from_generalized_time("20181325193045Z"), std::invalid_argument);
}

TEST(SimTime, DurationArithmetic) {
  const SimTime t = make_time(2018, 1, 1);
  EXPECT_EQ((t + Duration::days(1)) - t, Duration::hours(24));
  EXPECT_EQ(Duration::minutes(90), Duration::hours(1) + Duration::minutes(30));
  EXPECT_EQ(Duration::hours(2) * 3, Duration::hours(6));
  EXPECT_LT(t, t + Duration::secs(1));
}

// Property: civil -> SimTime -> civil round-trips across many dates.
class TimeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TimeRoundTrip, CivilRoundTrip) {
  // Use the parameter as a day offset from 1995-01-01.
  const SimTime base = make_time(1995, 1, 1);
  const SimTime t = base + Duration::days(GetParam()) +
                    Duration::secs(GetParam() * 7919 % 86400);
  const CivilTime civil = to_civil(t);
  EXPECT_EQ(from_civil(civil), t);
  EXPECT_EQ(from_generalized_time(to_generalized_time(t)), t);
}

INSTANTIATE_TEST_SUITE_P(ManyDates, TimeRoundTrip,
                         ::testing::Range(0, 12000, 97));

// ---------------------------------------------------------------- stats --

TEST(OnlineStats, MeanAndVariance) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Cdf, FractionAtMost) {
  Cdf cdf;
  for (double v : {1.0, 2.0, 3.0, 4.0}) cdf.add(v);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(10.0), 1.0);
}

TEST(Cdf, Quantiles) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.median(), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.9), 90.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
}

TEST(Cdf, InfiniteMass) {
  Cdf cdf;
  cdf.add(1.0);
  cdf.add_infinite();
  cdf.add_infinite();
  cdf.add(2.0);
  EXPECT_DOUBLE_EQ(cdf.infinite_fraction(), 0.5);
  EXPECT_EQ(cdf.sorted_finite().size(), 2u);
  EXPECT_TRUE(std::isinf(cdf.quantile(0.9)));
}

TEST(Cdf, QuantileErrors) {
  Cdf cdf;
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  cdf.add(1.0);
  EXPECT_THROW(cdf.quantile(0.0), std::invalid_argument);
  EXPECT_THROW(cdf.quantile(1.5), std::invalid_argument);
}

TEST(BinnedRatio, Percentages) {
  BinnedRatio bins(0.0, 100.0, 10);
  for (int i = 0; i < 100; ++i) bins.add(i + 0.5, i % 2 == 0);
  for (std::size_t b = 0; b < bins.bins(); ++b) {
    EXPECT_DOUBLE_EQ(bins.percentage(b), 50.0);
    EXPECT_EQ(bins.total(b), 10u);
  }
  EXPECT_DOUBLE_EQ(bins.bin_center(0), 5.0);
}

TEST(BinnedRatio, RightEdgeBelongsToLastBin) {
  BinnedRatio bins(0.0, 10.0, 2);
  bins.add(10.0, true);
  EXPECT_EQ(bins.total(1), 1u);
}

TEST(BinnedRatio, OutOfRangeIgnored) {
  BinnedRatio bins(0.0, 10.0, 2);
  bins.add(-1.0, true);
  bins.add(11.0, true);
  EXPECT_EQ(bins.total(0) + bins.total(1), 0u);
}

TEST(BinnedRatio, RejectsBadConstruction) {
  EXPECT_THROW(BinnedRatio(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(BinnedRatio(0.0, 1.0, 0), std::invalid_argument);
}

// -------------------------------------------------------------- strings --

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y\t\r\n"), "x y");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("http://x", "http://"));
  EXPECT_FALSE(starts_with("x", "http://"));
  EXPECT_TRUE(ends_with("a.crl", ".crl"));
  EXPECT_FALSE(ends_with("crl", ".crl"));
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
}

TEST(Strings, PercentDecodePassesPlainTextThrough) {
  auto plain = percent_decode("MEUwQzBBMD8wPTAJ");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value(), "MEUwQzBBMD8wPTAJ");
}

TEST(Strings, PercentDecodeDecodesEscapes) {
  // The three escapes an RFC 6960 A.1 GET client must produce, plus mixed
  // case hex and a '+' which is NOT form-decoded to a space in a path.
  auto decoded = percent_decode("a%2Bb%2fc%3Dd+e");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), "a+b/c=d+e");
}

TEST(Strings, PercentDecodeAllowsAnyByteIncludingNul) {
  auto nul = percent_decode("x%00y");
  ASSERT_TRUE(nul.ok());
  ASSERT_EQ(nul.value().size(), 3u);
  EXPECT_EQ(nul.value()[1], '\0');
}

TEST(Strings, PercentDecodeRejectsBadEscapes) {
  EXPECT_FALSE(percent_decode("%GZ").ok());          // non-hex digits
  EXPECT_FALSE(percent_decode("ok%G0").ok());        // first digit bad
  EXPECT_FALSE(percent_decode("ok%0G").ok());        // second digit bad
  EXPECT_FALSE(percent_decode("truncated%A").ok());  // one digit then EOF
  EXPECT_FALSE(percent_decode("dangling%").ok());    // bare '%' at EOF
  const auto error = percent_decode("%GZ").error();
  EXPECT_EQ(error.code, "strings.bad_percent_escape");
}

// ------------------------------------------------------------ ascii_chart --

TEST(AsciiChart, RendersSeriesAndLegend) {
  Series s;
  s.label = "test-series";
  for (int i = 0; i < 10; ++i) s.add(i, i * i);
  ChartOptions options;
  options.title = "chart-title";
  const std::string out = render_chart({s}, options);
  EXPECT_NE(out.find("chart-title"), std::string::npos);
  EXPECT_NE(out.find("test-series"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(AsciiChart, EmptyDataHandled) {
  const std::string out = render_chart({}, {});
  EXPECT_NE(out.find("(no data)"), std::string::npos);
}

TEST(AsciiChart, CdfRenderReportsInfiniteMass) {
  Cdf cdf;
  cdf.add(1.0);
  cdf.add(2.0);
  cdf.add_infinite();
  const std::string out = render_cdf(cdf, {});
  EXPECT_NE(out.find("infinity"), std::string::npos);
}

TEST(AsciiChart, TableAlignsCells) {
  const std::string out =
      render_table({"name", "value"}, {{"a", "1"}, {"longer-name", "22"}});
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
}

// ------------------------------------------------------------------ hash --

TEST(Hash, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors; pins the constants.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, Fnv1a64BytesAndStringAgree) {
  const Bytes bytes = bytes_of("ocsp.example.com");
  EXPECT_EQ(fnv1a64(bytes), fnv1a64("ocsp.example.com"));
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(1, 2), 3),
            hash_combine(hash_combine(3, 2), 1));
  EXPECT_NE(hash_combine(0, 0), 0u);
  EXPECT_NE(mix64(1), mix64(2));
}

// ----------------------------------------------------------- thread pool --

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for_index(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadDegradesToPlainLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for_index(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for_index(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 5'000u);
}

TEST(ThreadPool, FirstExceptionRethrownAfterBarrier) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.parallel_for_index(1'000,
                              [&](std::size_t i) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (i == 137) throw std::runtime_error("boom");
                              }),
      std::runtime_error);
  // The pool survives the throw and keeps working.
  std::atomic<std::size_t> after{0};
  pool.parallel_for_index(10, [&](std::size_t) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 10u);
  EXPECT_GT(ran.load(), 0u);
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for_index(0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, EnvThreadsParsesVariable) {
  const char* saved = std::getenv("MUSTAPLE_SCAN_THREADS");
  const std::string restore = saved ? saved : "";
  ::unsetenv("MUSTAPLE_SCAN_THREADS");
  EXPECT_EQ(ThreadPool::env_threads(3), 3u);
  ::setenv("MUSTAPLE_SCAN_THREADS", "4", 1);
  EXPECT_EQ(ThreadPool::env_threads(3), 4u);
  ::setenv("MUSTAPLE_SCAN_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::env_threads(3), 3u);  // non-positive -> fallback
  ::setenv("MUSTAPLE_SCAN_THREADS", "junk", 1);
  EXPECT_EQ(ThreadPool::env_threads(3), 3u);
  if (saved) {
    ::setenv("MUSTAPLE_SCAN_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("MUSTAPLE_SCAN_THREADS");
  }
}

// ----------------------------------------------------------- BytesView --

TEST(BytesView, ViewsIntoBytesWithoutCopying) {
  const Bytes data = {1, 2, 3, 4, 5};
  const BytesView view = data;  // implicit, by design
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(view.data(), data.data());  // zero-copy: same storage
  EXPECT_EQ(view[0], 1);
  EXPECT_EQ(view.front(), 1);
  EXPECT_EQ(view.back(), 5);
  EXPECT_FALSE(view.empty());
  EXPECT_TRUE(BytesView().empty());
}

TEST(BytesView, SubviewAndDropFrontClamp) {
  const Bytes data = {10, 20, 30, 40};
  const BytesView view = data;
  EXPECT_EQ(view.subview(1, 2), BytesView(data.data() + 1, 2));
  EXPECT_EQ(view.subview(1, 2).to_bytes(), (Bytes{20, 30}));
  EXPECT_EQ(view.drop_front(3).to_bytes(), (Bytes{40}));
  // Out-of-range positions/counts clamp instead of overflowing.
  EXPECT_TRUE(view.subview(99).empty());
  EXPECT_EQ(view.subview(2, 99).size(), 2u);
  EXPECT_TRUE(view.drop_front(99).empty());
}

TEST(BytesView, EqualityComparesContents) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  EXPECT_EQ(BytesView(a), BytesView(b));  // different storage, same bytes
  EXPECT_FALSE(BytesView(a) == BytesView(c));
  EXPECT_FALSE(BytesView(a) == BytesView(a).subview(0, 2));
}

TEST(BytesView, ToBytesMaterializesIndependentCopy) {
  Bytes data = {7, 8, 9};
  const Bytes copy = BytesView(data).to_bytes();
  data[0] = 0;  // mutating the source must not affect the copy
  EXPECT_EQ(copy, (Bytes{7, 8, 9}));
}

TEST(BytesView, TextOfAndAppend) {
  const Bytes data = bytes_of("hello");
  EXPECT_EQ(text_of(BytesView(data)), "hello");
  Bytes out = bytes_of("x");
  append(out, BytesView(data).subview(0, 2));
  EXPECT_EQ(text_of(out), "xhe");
}

// -------------------------------------------------------- ShardedCache --

TEST(ShardedCache, RoundsShardCountUpToPowerOfTwo) {
  EXPECT_EQ(ShardedCache<int>(1, 100).shard_count(), 1u);
  EXPECT_EQ(ShardedCache<int>(3, 100).shard_count(), 4u);
  EXPECT_EQ(ShardedCache<int>(16, 100).shard_count(), 16u);
  EXPECT_EQ(ShardedCache<int>(17, 100).shard_count(), 32u);
}

TEST(ShardedCache, LookupInsertRoundTrip) {
  ShardedCache<int> cache(4, 100);
  EXPECT_FALSE(cache.lookup(42).has_value());
  cache.insert(42, 7);
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 7);
  cache.insert(42, 8);  // overwrite
  EXPECT_EQ(*cache.lookup(42), 8);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, ConservationHoldsPerShardAndInAggregate) {
  ShardedCache<int> cache(8, 1000);
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = mix64(rng.uniform(256));
    if (!cache.lookup(key)) cache.insert(key, i);
  }
  ShardedCacheStats sum;
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    const ShardedCacheStats stats = cache.shard_stats(s);
    EXPECT_EQ(stats.hits + stats.misses, stats.lookups) << "shard " << s;
    sum.lookups += stats.lookups;
    sum.hits += stats.hits;
    sum.misses += stats.misses;
    sum.insertions += stats.insertions;
    sum.size += stats.size;
  }
  const ShardedCacheStats totals = cache.totals();
  EXPECT_EQ(totals.lookups, 5000u);
  EXPECT_EQ(totals.hits + totals.misses, totals.lookups);
  EXPECT_EQ(sum.lookups, totals.lookups);
  EXPECT_EQ(sum.hits, totals.hits);
  EXPECT_EQ(sum.misses, totals.misses);
  EXPECT_EQ(sum.insertions, totals.insertions);
  EXPECT_EQ(sum.size, totals.size);
  EXPECT_EQ(totals.insertions, totals.misses);  // insert-on-miss discipline
}

TEST(ShardedCache, ClearOnLimitBoundsEachShard) {
  // capacity 8 over 4 shards -> 2 entries per shard before a clear.
  ShardedCache<int> cache(4, 8);
  for (std::uint64_t k = 0; k < 64; ++k) cache.insert(mix64(k), 1);
  const ShardedCacheStats totals = cache.totals();
  EXPECT_EQ(totals.insertions, 64u);
  EXPECT_GT(totals.clears, 0u);
  for (std::size_t s = 0; s < cache.shard_count(); ++s) {
    EXPECT_LE(cache.shard_stats(s).size, 2u) << "shard " << s;
  }
}

TEST(ShardedCache, NoteCollisionCountsWithoutMutatingEntries) {
  ShardedCache<int> cache(2, 10);
  cache.insert(5, 50);
  cache.note_collision(5);
  cache.note_collision(5);
  EXPECT_EQ(cache.totals().collisions, 2u);
  EXPECT_EQ(*cache.lookup(5), 50);
}

TEST(ShardedCache, ParallelMixedWorkloadKeepsConservation) {
  ShardedCache<std::uint64_t> cache(8, 4096);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 20'000;
  ThreadPool pool(kThreads);
  std::atomic<std::uint64_t> found{0};
  pool.parallel_for_index(kThreads, [&](std::size_t t) {
    Rng rng(1000 + t);
    std::uint64_t local = 0;
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      const std::uint64_t key = mix64(rng.uniform(512));
      if (const auto hit = cache.lookup(key)) {
        local += (*hit != 0);
      } else {
        cache.insert(key, key);
      }
    }
    found.fetch_add(local);
  });
  const ShardedCacheStats totals = cache.totals();
  EXPECT_EQ(totals.lookups, kThreads * kOpsPerThread);
  EXPECT_EQ(totals.hits + totals.misses, totals.lookups);
  // Every miss triggered exactly one insert (racy double-misses insert the
  // same value twice — still conserved).
  EXPECT_EQ(totals.insertions, totals.misses);
}

// ---------------------------------------------------------------- alloc --

TEST(AllocCounter, ConservationHoldsAtQuiescentPoints) {
  AllocCounter counter;
  counter.record_alloc(100);
  counter.record_alloc(50);
  counter.record_free(30);
  EXPECT_EQ(counter.allocated_bytes(), 150u);
  EXPECT_EQ(counter.freed_bytes(), 30u);
  EXPECT_EQ(counter.outstanding_bytes(),
            counter.allocated_bytes() - counter.freed_bytes());
  EXPECT_EQ(counter.alloc_calls(), 2u);
  EXPECT_EQ(counter.free_calls(), 1u);
  counter.record_free(120);
  EXPECT_EQ(counter.outstanding_bytes(), 0u);
  EXPECT_EQ(counter.peak_outstanding_bytes(), 150u);
}

TEST(AllocCounter, ConservationSurvivesMultithreadedChurn) {
  AllocCounter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 5000;
  ThreadPool pool(kThreads);
  pool.parallel_for_index(kThreads, [&](std::size_t t) {
    for (std::size_t i = 0; i < kOpsPerThread; ++i) {
      const std::size_t bytes = 16 + (t * kOpsPerThread + i) % 64;
      counter.record_alloc(bytes);
      counter.record_free(bytes);
    }
  });
  // Every alloc was matched by an equal free, so at this barrier the books
  // must balance exactly — no lost updates, no double counting.
  EXPECT_EQ(counter.allocated_bytes(), counter.freed_bytes());
  EXPECT_EQ(counter.outstanding_bytes(), 0u);
  EXPECT_EQ(counter.alloc_calls(), kThreads * kOpsPerThread);
  EXPECT_EQ(counter.free_calls(), kThreads * kOpsPerThread);
  // The high-water mark saw at least one live allocation and never exceeds
  // the total ever allocated.
  EXPECT_GE(counter.peak_outstanding_bytes(), 16u);
  EXPECT_LE(counter.peak_outstanding_bytes(), counter.allocated_bytes());
}

TEST(AllocCounter, PeakTracksHighWaterNotCurrent) {
  AllocCounter counter;
  counter.record_alloc(1000);
  counter.record_free(900);
  counter.record_alloc(50);
  EXPECT_EQ(counter.outstanding_bytes(), 150u);
  EXPECT_EQ(counter.peak_outstanding_bytes(), 1000u);
  counter.reset();
  EXPECT_EQ(counter.peak_outstanding_bytes(), 0u);
  EXPECT_EQ(counter.allocated_bytes(), 0u);
}

TEST(CountingAllocator, ChargesANamedCounterThroughARealContainer) {
  AllocCounter counter;
  {
    const CountingAllocator<std::uint64_t> allocator(&counter);
    std::vector<std::uint64_t, CountingAllocator<std::uint64_t>> values(
        allocator);
    values.reserve(1024);
    EXPECT_GE(counter.allocated_bytes(), 1024 * sizeof(std::uint64_t));
    EXPECT_GT(counter.outstanding_bytes(), 0u);
    for (std::uint64_t i = 0; i < 1024; ++i) values.push_back(i);
    EXPECT_EQ(values.size(), 1024u);
  }
  // Container destruction returns every byte: conservation at quiescence.
  EXPECT_EQ(counter.allocated_bytes(), counter.freed_bytes());
  EXPECT_EQ(counter.outstanding_bytes(), 0u);
  EXPECT_EQ(counter.alloc_calls(), counter.free_calls());
}

TEST(CountingAllocator, NullCounterDegradesToPlainAllocation) {
  std::vector<int, CountingAllocator<int>> values;  // default: no counter
  for (int i = 0; i < 100; ++i) values.push_back(i);
  EXPECT_EQ(values.size(), 100u);
  EXPECT_EQ(values[99], 99);
  // All instances compare equal regardless of counter wiring (the
  // std::allocator contract containers rely on for swap/move).
  AllocCounter counter;
  EXPECT_TRUE(CountingAllocator<int>(&counter) == CountingAllocator<int>());
  EXPECT_FALSE(CountingAllocator<int>(&counter) != CountingAllocator<int>());
}

TEST(AllocTally, ReleasesEverythingOnDestruction) {
  AllocCounter counter;
  {
    AllocTally tally(counter);
    tally.record(4096);
    tally.record(512);
    EXPECT_EQ(tally.total(), 4608u);
    EXPECT_EQ(counter.outstanding_bytes(), 4608u);
    tally.release(512);
    EXPECT_EQ(tally.total(), 4096u);
  }
  // Destructor released the remaining 4096: books balance.
  EXPECT_EQ(counter.outstanding_bytes(), 0u);
  EXPECT_EQ(counter.allocated_bytes(), counter.freed_bytes());
  EXPECT_EQ(counter.peak_outstanding_bytes(), 4608u);
}

TEST(AllocRegistry, NamedCountersAreStableReferences) {
  AllocCounter& a = alloc_counter("test.util_alloc_registry");
  AllocCounter& b = alloc_counter("test.util_alloc_registry");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.record_alloc(7);
  EXPECT_EQ(b.outstanding_bytes(), 7u);
  a.record_free(7);
}

TEST(AllocRegistry, VisitWalksCountersInNameOrder) {
  alloc_counter("test.visit_b");
  alloc_counter("test.visit_a");
  std::vector<std::string> names;
  visit_alloc_counters(
      [&](const std::string& name, const AllocCounter&) {
        names.push_back(name);
      });
  ASSERT_GE(names.size(), 2u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // Both registered names appear.
  EXPECT_NE(std::find(names.begin(), names.end(), "test.visit_a"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "test.visit_b"),
            names.end());
}

}  // namespace
}  // namespace mustaple::util
