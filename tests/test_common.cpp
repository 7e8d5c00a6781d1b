/**
 * @file
 * Tests for logging, units, stats, tables, the fixed-point codec and
 * the repeated-add closed form.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/fixed_point.hpp"
#include "common/logging.hpp"
#include "common/repeated_add.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace vboost {
namespace {

// ------------------------------------------------------------- logging

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 1.5), FatalError);
}

TEST(Logging, MessagesAreConcatenated)
{
    try {
        fatal("x=", 3, " y=", 4.5);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "x=3 y=4.5");
    }
}

TEST(Logging, QuietFlagRoundTrips)
{
    setQuiet(true);
    EXPECT_TRUE(isQuiet());
    setQuiet(false);
    EXPECT_FALSE(isQuiet());
}

TEST(TokenBucket, GrantsFullBurstThenBlocks)
{
    TokenBucket bucket(1.0, 3.0);
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_TRUE(bucket.allow(10.0));
    EXPECT_FALSE(bucket.allow(10.0)); // burst spent, no time elapsed
}

TEST(TokenBucket, RefillsAtTheConfiguredRate)
{
    TokenBucket bucket(2.0, 2.0); // 2 tokens/sec, burst 2
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_FALSE(bucket.allow(0.0));
    EXPECT_FALSE(bucket.allow(0.4)); // 0.8 tokens: still short
    EXPECT_TRUE(bucket.allow(0.5));  // 1.0 token accrued
    EXPECT_FALSE(bucket.allow(0.5));
}

TEST(TokenBucket, RefillCapsAtBurst)
{
    TokenBucket bucket(10.0, 2.0);
    EXPECT_TRUE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(0.0));
    // A long idle stretch refills to the cap, not beyond it.
    EXPECT_TRUE(bucket.allow(100.0));
    EXPECT_TRUE(bucket.allow(100.0));
    EXPECT_FALSE(bucket.allow(100.0));
}

TEST(TokenBucket, TimeNeverMovesBackwards)
{
    TokenBucket bucket(1.0, 1.0);
    EXPECT_TRUE(bucket.allow(50.0));
    // An earlier timestamp must not manufacture tokens.
    EXPECT_FALSE(bucket.allow(0.0));
    EXPECT_TRUE(bucket.allow(51.0));
}

TEST(TokenBucket, RejectsBadConfig)
{
    EXPECT_THROW(TokenBucket(0.0, 1.0), FatalError);
    EXPECT_THROW(TokenBucket(-1.0, 1.0), FatalError);
    EXPECT_THROW(TokenBucket(1.0, 0.5), FatalError);
}

TEST(Logging, WarnRateLimitedSuppressesFloods)
{
    // Tiny budget: the first message passes, the flood is dropped.
    setWarnRateLimit(0.001, 1.0);
    setQuiet(false);
    ::testing::internal::CaptureStderr();
    for (int i = 0; i < 50; ++i)
        warnRateLimited("flood message ", i);
    const std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("flood message 0"), std::string::npos);
    EXPECT_EQ(out.find("flood message 1"), std::string::npos);
    // Restore the default budget for other tests.
    setWarnRateLimit(5.0, 10.0);
}

// --------------------------------------------------------------- units

TEST(Units, LiteralsProduceBaseSiValues)
{
    EXPECT_DOUBLE_EQ((0.4_V).value(), 0.4);
    EXPECT_DOUBLE_EQ((10.0_pF).value(), 10e-12);
    EXPECT_DOUBLE_EQ((50.0_MHz).value(), 50e6);
    EXPECT_DOUBLE_EQ((1.5_pJ).value(), 1.5e-12);
    EXPECT_DOUBLE_EQ((2.0_uW).value(), 2e-6);
    EXPECT_DOUBLE_EQ((1.0_mm2).value(), 1e6);
}

TEST(Units, ArithmeticAndComparison)
{
    const Volt a = 0.3_V, b = 0.2_V;
    EXPECT_DOUBLE_EQ((a + b).value(), 0.5);
    EXPECT_DOUBLE_EQ((a - b).value(), 0.1);
    EXPECT_DOUBLE_EQ((a * 2.0).value(), 0.6);
    EXPECT_DOUBLE_EQ((2.0 * a).value(), 0.6);
    EXPECT_DOUBLE_EQ(a / b, 1.5);
    EXPECT_LT(b, a);
    EXPECT_GT(a, b);
}

TEST(Units, SwitchingEnergyIsCV2)
{
    const Joule e = switchingEnergy(2.0_pF, 0.5_V);
    EXPECT_DOUBLE_EQ(e.value(), 2e-12 * 0.25);
}

TEST(Units, PowerEnergyPeriodRelations)
{
    EXPECT_DOUBLE_EQ(period(50.0_MHz).value(), 2e-8);
    EXPECT_DOUBLE_EQ(power(1.0_pJ, period(50.0_MHz)).value(), 5e-5);
    EXPECT_DOUBLE_EQ(energyFromPower(2.0_uW, 1.0_ns).value(), 2e-15);
}

// --------------------------------------------------------------- stats

TEST(RunningStats, MeanVarianceMinMax)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAccessorsPanic)
{
    RunningStats s;
    EXPECT_THROW(s.mean(), PanicError);
    EXPECT_THROW(s.min(), PanicError);
    EXPECT_THROW(s.max(), PanicError);
}

TEST(RunningStats, SingleSampleHasZeroVariance)
{
    RunningStats s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i * 0.7) * 3 + i * 0.01;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesOrderStatistics)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
    EXPECT_DOUBLE_EQ(percentile(v, 12.5), 1.5);
}

TEST(Percentile, RejectsBadInput)
{
    EXPECT_THROW(percentile({}, 50), FatalError);
    EXPECT_THROW(percentile({1.0}, 101), FatalError);
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(-3.0); // clamps into bin 0
    h.add(42.0); // clamps into last bin
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_DOUBLE_EQ(h.binLow(3), 3.0);
}

TEST(Histogram, RejectsDegenerateRange)
{
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
}

// --------------------------------------------------------------- table

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"a", "long_header"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("long_header"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
}

TEST(Table, RejectsRaggedRows)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, CsvQuotesSpecialCells)
{
    Table t({"x"});
    t.addRow({"hello, \"world\""});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "x\n\"hello, \"\"world\"\"\"\n");
}

TEST(Table, NumberFormatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
    EXPECT_EQ(Table::sci(0.00123, 2), "1.23e-03");
}

// --------------------------------------------------------- fixed point

TEST(FixedPoint, EncodeDecodeRoundTrip)
{
    FixedPointCodec codec(13); // Q2.13
    for (float x : {0.0f, 0.5f, -0.5f, 1.25f, -3.99f, 3.99f}) {
        EXPECT_NEAR(codec.decode(codec.encode(x)), x, codec.resolution());
    }
}

TEST(FixedPoint, SaturatesAtRangeEdges)
{
    FixedPointCodec codec(13);
    EXPECT_EQ(codec.encode(100.0f), 32767);
    EXPECT_EQ(codec.encode(-100.0f), -32768);
    EXPECT_NEAR(codec.maxValue(), 4.0f, 0.001f);
    EXPECT_NEAR(codec.minValue(), -4.0f, 0.001f);
}

TEST(FixedPoint, ResolutionMatchesFracBits)
{
    EXPECT_FLOAT_EQ(FixedPointCodec(15).resolution(), 1.0f / 32768.0f);
    EXPECT_FLOAT_EQ(FixedPointCodec(0).resolution(), 1.0f);
}

TEST(FixedPoint, RejectsBadFracBits)
{
    EXPECT_THROW(FixedPointCodec(-1), FatalError);
    EXPECT_THROW(FixedPointCodec(16), FatalError);
}

TEST(FixedPoint, FlipBitTogglesExactlyOneBit)
{
    const std::int16_t raw = 0x1234;
    for (int b = 0; b < 16; ++b) {
        const std::int16_t flipped = FixedPointCodec::flipBit(raw, b);
        EXPECT_EQ(static_cast<std::uint16_t>(raw ^ flipped), 1u << b);
        // Double flip restores.
        EXPECT_EQ(FixedPointCodec::flipBit(flipped, b), raw);
    }
    EXPECT_THROW(FixedPointCodec::flipBit(raw, 16), PanicError);
}

TEST(FixedPoint, SignBitFlipIsLargePerturbation)
{
    FixedPointCodec codec(15);
    const std::int16_t half = codec.encode(0.5f);
    const float flipped = codec.decode(FixedPointCodec::flipBit(half, 15));
    EXPECT_NEAR(flipped, -0.5f, 0.001f);
}

// -------------------------------------------------------- repeated add

/** The definition repeatedAdd() must match: n sequential adds. */
double
sequentialAdds(double x, double a, std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        x += a;
    return x;
}

/** ulp of a positive normal x. */
double
ulpOf(double x)
{
    return std::nextafter(x, std::numeric_limits<double>::infinity()) - x;
}

TEST(RepeatedAdd, MatchesSequentialAdds)
{
    Rng rng(20190216);
    int failures = 0;
    for (int i = 0; i < 120000 && failures < 5; ++i) {
        // x over ~200 binades, normal and positive unless a case says.
        double x = std::ldexp(1.0 + rng.uniform(),
                              static_cast<int>(rng.uniformInt(200)) - 100);
        double u = ulpOf(x);
        double a = 0.0;
        std::uint64_t n = rng.uniformInt(600);
        switch (i % 8) {
          case 0: // a random 1 to 2^-60 times x's binade
            a = std::ldexp(1.0 + rng.uniform(),
                           std::ilogb(x) - 1 -
                               static_cast<int>(rng.uniformInt(60)));
            break;
          case 1: // a tie: (j + 1/2) ulps
            a = (static_cast<double>(rng.uniformInt(1u << 20)) + 0.5) * u;
            break;
          case 2: // at most half an ulp: x moves at most once
            a = rng.uniformInt(4) == 0 ? 0.5 * u : 0.5 * u * rng.uniform();
            break;
          case 3: // a binade crossing: x near the top, a few ulps a step
            x = std::ldexp(1.0, std::ilogb(x) + 1) -
                static_cast<double>(1 + rng.uniformInt(2000)) * u;
            a = (static_cast<double>(rng.uniformInt(50)) + rng.uniform()) * u;
            break;
          case 4: // an odd number of ulps: a tie in the next binade
            x = std::ldexp(1.0, std::ilogb(x) + 1) -
                static_cast<double>(1 + rng.uniformInt(500)) * u;
            a = static_cast<double>(2 * rng.uniformInt(20) + 1) * u;
            n = 100 + rng.uniformInt(2000);
            break;
          case 5: // x zero or subnormal, a from subnormal to normal
            x = rng.uniformInt(3) == 0
                    ? 0.0
                    : std::bit_cast<double>(rng.next() >> 12);
            a = rng.uniformInt(2) == 0
                    ? std::bit_cast<double>(rng.next() >>
                                            (12 + rng.uniformInt(40)))
                    : std::ldexp(1.0 + rng.uniform(),
                                 -1022 + static_cast<int>(rng.uniformInt(8)));
            break;
          case 6: // a at or above x's binade
            a = x * (0.5 + 4.0 * rng.uniform());
            break;
          default: // a negative, or x negative
            a = std::ldexp(1.0 + rng.uniform(), std::ilogb(x) - 8);
            if (rng.uniformInt(2) == 0)
                a = -a;
            else
                x = -x;
            break;
        }
        const double want = sequentialAdds(x, a, n);
        const double got = repeatedAdd(x, a, n);
        if (std::bit_cast<std::uint64_t>(got) !=
            std::bit_cast<std::uint64_t>(want)) {
            ++failures;
            ADD_FAILURE() << std::hexfloat << "x=" << x << " a=" << a
                          << " n=" << n << ": " << got << " != " << want;
        }
    }
}

TEST(RepeatedAdd, LongRunsInClosedForm)
{
    // Exact adds: 2^20 steps of 2^-40 from 1.
    EXPECT_EQ(repeatedAdd(1.0, 0x1p-40, 1ull << 20), 1.0 + 0x1p-20);
    // Below half an ulp, x never moves, however long the run.
    EXPECT_EQ(repeatedAdd(1.0, 0x1p-60, 1ull << 62), 1.0);
    // Crossings: 1 + 8 * 0.25 = 3.
    EXPECT_EQ(repeatedAdd(1.0, 0.25, 8), 3.0);
    EXPECT_EQ(repeatedAdd(5.0, 1.0, 0), 5.0);
    EXPECT_EQ(repeatedAdd(0.0, 0.5, 6), 3.0);
}

} // namespace
} // namespace vboost
