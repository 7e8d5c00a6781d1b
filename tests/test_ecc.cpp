/**
 * @file
 * Tests for the SECDED Hamming(72, 64) codec and its integration with
 * the fault-injection harness: the table codec against the loop codec
 * it replaced (differential, encode and 0-8-flip decode), exhaustive
 * single-bit correction,
 * double-bit detection, check-bit self-protection, statistical decode
 * rates against the analytic binomial expectation, and the
 * accuracy-protection property at moderate failure rates.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>

#include "common/rng.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "fi/experiment.hpp"
#include "sram/ecc.hpp"

namespace vboost::sram {
namespace {

TEST(Secded, CleanRoundTrip)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t data = rng.next();
        const auto check = SecdedCodec::encode(data);
        const auto r = SecdedCodec::decode(data, check);
        EXPECT_EQ(r.data, data);
        EXPECT_EQ(r.outcome, EccOutcome::Clean);
    }
}

TEST(Secded, CorrectsEverySingleDataBitError)
{
    Rng rng(2);
    const std::uint64_t data = rng.next();
    const auto check = SecdedCodec::encode(data);
    for (int b = 0; b < 64; ++b) {
        const auto r = SecdedCodec::decode(data ^ (1ull << b), check);
        EXPECT_EQ(r.data, data) << "bit " << b;
        EXPECT_EQ(r.outcome, EccOutcome::Corrected) << "bit " << b;
    }
}

TEST(Secded, CorrectsEverySingleCheckBitError)
{
    Rng rng(3);
    const std::uint64_t data = rng.next();
    const auto check = SecdedCodec::encode(data);
    for (int b = 0; b < 8; ++b) {
        const auto flipped =
            static_cast<std::uint8_t>(check ^ (1u << b));
        const auto r = SecdedCodec::decode(data, flipped);
        EXPECT_EQ(r.data, data) << "check bit " << b;
        EXPECT_EQ(r.outcome, EccOutcome::Corrected) << "check bit " << b;
    }
}

TEST(Secded, DetectsEveryDoubleBitErrorExhaustively)
{
    // The SECDED guarantee the resilient pipeline's retry loop relies
    // on: every one of the C(72,2) = 2556 two-bit corruptions of the
    // codeword is reported DetectedUncorrectable — never Clean, never
    // miscorrected into a "Corrected" word the consumer would trust.
    Rng rng(4);
    const std::uint64_t patterns[] = {0ull, ~0ull,
                                      0xaaaaaaaaaaaaaaaaull,
                                      rng.next(), rng.next()};
    for (const std::uint64_t data : patterns) {
        const auto check = SecdedCodec::encode(data);
        // Flip codeword bits i < j; bits 0..63 hit the data word,
        // bits 64..71 hit the check byte.
        for (int i = 0; i < 71; ++i) {
            for (int j = i + 1; j < 72; ++j) {
                std::uint64_t d = data;
                std::uint8_t c = check;
                if (i < 64)
                    d ^= 1ull << i;
                else
                    c = static_cast<std::uint8_t>(c ^ (1u << (i - 64)));
                if (j < 64)
                    d ^= 1ull << j;
                else
                    c = static_cast<std::uint8_t>(c ^ (1u << (j - 64)));
                const auto r = SecdedCodec::decode(d, c);
                ASSERT_EQ(r.outcome, EccOutcome::DetectedUncorrectable)
                    << "bits " << i << "," << j << " data " << data;
            }
        }
    }
}

TEST(Secded, StorageOverheadIsOneEighth)
{
    EXPECT_DOUBLE_EQ(SecdedCodec::storageOverhead(), 0.125);
    EXPECT_EQ(SecdedCodec::kCodewordBits, 72);
}

TEST(Secded, StatsAccumulate)
{
    EccStats stats;
    stats.record(EccOutcome::Clean);
    stats.record(EccOutcome::Corrected);
    stats.record(EccOutcome::Corrected);
    stats.record(EccOutcome::DetectedUncorrectable);
    EXPECT_EQ(stats.words, 4u);
    EXPECT_EQ(stats.corrected, 2u);
    EXPECT_EQ(stats.detectedUncorrectable, 1u);
}

/**
 * The loop-based Hamming(72, 64) codec: scatter the data bits into
 * codeword positions 1..71 (skipping the power-of-two check
 * positions), XOR the positions of the set bits into the syndrome,
 * gather the data back out. Kept here as the oracle for the table
 * codec in src/sram/ecc.cpp.
 */
namespace oracle {

constexpr int kPositions = 71;

constexpr bool
isCheckPos(int p)
{
    return (p & (p - 1)) == 0;
}

std::uint64_t
scatterLow(std::uint64_t data, std::uint64_t &high)
{
    std::uint64_t low = 0;
    high = 0;
    int bit = 0;
    for (int p = 1; p <= kPositions; ++p) {
        if (isCheckPos(p))
            continue;
        const std::uint64_t v = (data >> bit) & 1ull;
        if (p < 64)
            low |= v << p;
        else
            high |= v << (p - 64);
        ++bit;
    }
    return low;
}

std::uint64_t
gather(std::uint64_t low, std::uint64_t high)
{
    std::uint64_t data = 0;
    int bit = 0;
    for (int p = 1; p <= kPositions; ++p) {
        if (isCheckPos(p))
            continue;
        const std::uint64_t v =
            p < 64 ? (low >> p) & 1ull : (high >> (p - 64)) & 1ull;
        data |= v << bit;
        ++bit;
    }
    return data;
}

int
syndromeOf(std::uint64_t low, std::uint64_t high)
{
    int s = 0;
    for (int p = 1; p < 64; ++p) {
        if ((low >> p) & 1ull)
            s ^= p;
    }
    for (int p = 64; p <= kPositions; ++p) {
        if ((high >> (p - 64)) & 1ull)
            s ^= p;
    }
    return s;
}

int
parityOf(std::uint64_t low, std::uint64_t high)
{
    return (std::popcount(low) + std::popcount(high)) & 1;
}

void
setPosition(std::uint64_t &low, std::uint64_t &high, int p)
{
    if (p < 64)
        low |= 1ull << p;
    else
        high |= 1ull << (p - 64);
}

std::uint8_t
encode(std::uint64_t data)
{
    std::uint64_t high;
    std::uint64_t low = scatterLow(data, high);
    const int s = syndromeOf(low, high);
    std::uint8_t check = 0;
    for (int i = 0; i < 7; ++i) {
        if ((s >> i) & 1) {
            check |= static_cast<std::uint8_t>(1u << i);
            setPosition(low, high, 1 << i);
        }
    }
    if (parityOf(low, high))
        check |= 0x80;
    return check;
}

EccDecodeResult
decode(std::uint64_t data, std::uint8_t check)
{
    std::uint64_t high;
    std::uint64_t low = scatterLow(data, high);
    for (int i = 0; i < 7; ++i) {
        if ((check >> i) & 1)
            setPosition(low, high, 1 << i);
    }
    const int s = syndromeOf(low, high);
    const int parity_ok = parityOf(low, high) == ((check >> 7) & 1);

    EccDecodeResult result;
    if (s == 0 && parity_ok) {
        result.data = data;
        result.outcome = EccOutcome::Clean;
        return result;
    }
    if (!parity_ok) {
        if (s >= 1 && s <= kPositions) {
            if (s < 64)
                low ^= 1ull << s;
            else
                high ^= 1ull << (s - 64);
        }
        result.data = gather(low, high);
        result.outcome = EccOutcome::Corrected;
        return result;
    }
    result.data = data;
    result.outcome = EccOutcome::DetectedUncorrectable;
    return result;
}

} // namespace oracle

TEST(SecdedDifferential, EncodeMatchesTheLoopCodec)
{
    Rng rng(21);
    for (std::uint64_t data : {0ull, ~0ull, 1ull, 1ull << 63})
        ASSERT_EQ(SecdedCodec::encode(data), oracle::encode(data));
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t data = rng.next();
        ASSERT_EQ(SecdedCodec::encode(data), oracle::encode(data))
            << "data " << data;
    }
}

TEST(SecdedDifferential, DecodeMatchesTheLoopCodecUpToEightFlips)
{
    // Flip 0-8 distinct cells drawn over all 72 codeword positions:
    // covers every syndrome (including 72-127, which name no cell),
    // double-error detection and the miscorrection of >= 3 errors.
    Rng rng(22);
    std::array<bool, 128> syndromes_seen{};
    for (int flips = 0; flips <= 8; ++flips) {
        for (int i = 0; i < 100'000; ++i) {
            const std::uint64_t data = rng.next();
            const std::uint8_t check = oracle::encode(data);
            std::uint64_t d = data;
            std::uint8_t c = check;
            std::uint64_t used_low = 0;
            std::uint8_t used_high = 0;
            for (int k = 0; k < flips;) {
                const auto cell = static_cast<int>(rng.uniformInt(72));
                if (cell < 64) {
                    if ((used_low >> cell) & 1ull)
                        continue;
                    used_low |= 1ull << cell;
                    d ^= 1ull << cell;
                } else {
                    const auto bit =
                        static_cast<std::uint8_t>(1u << (cell - 64));
                    if (used_high & bit)
                        continue;
                    used_high |= bit;
                    c ^= bit;
                }
                ++k;
            }
            const EccDecodeResult got = SecdedCodec::decode(d, c);
            const EccDecodeResult want = oracle::decode(d, c);
            ASSERT_EQ(got.data, want.data)
                << flips << " flips, data " << data;
            ASSERT_EQ(got.outcome, want.outcome)
                << flips << " flips, data " << data;
            syndromes_seen[(SecdedCodec::encode(d) ^ c) & 0x7f] = true;
        }
    }
    for (std::size_t s = 0; s < syndromes_seen.size(); ++s)
        EXPECT_TRUE(syndromes_seen[s]) << "syndrome " << s << " never hit";
}

/** Property: decode correction rate matches the binomial model. */
class SecdedRateSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(SecdedRateSweep, CorrectionRateMatchesBinomial)
{
    const double per_bit = GetParam();
    Rng rng(7);
    EccStats stats;
    const int words = 20000;
    for (int i = 0; i < words; ++i) {
        const std::uint64_t data = rng.next();
        auto check = SecdedCodec::encode(data);
        std::uint64_t corrupted = data;
        for (int b = 0; b < 64; ++b) {
            if (rng.bernoulli(per_bit))
                corrupted ^= 1ull << b;
        }
        for (int b = 0; b < 8; ++b) {
            if (rng.bernoulli(per_bit))
                check = static_cast<std::uint8_t>(check ^ (1u << b));
        }
        stats.record(SecdedCodec::decode(corrupted, check).outcome);
    }
    // The decoder reports Corrected for every odd error count (a
    // single error is truly corrected; 3+ odd counts miscorrect --
    // an inherent SECDED property): P(odd) = (1 - (1-2p)^72) / 2.
    const double p_odd =
        (1.0 - std::pow(1.0 - 2.0 * per_bit, 72.0)) / 2.0;
    const double measured =
        static_cast<double>(stats.corrected) / words;
    EXPECT_NEAR(measured, p_odd,
                5 * std::sqrt(p_odd / words) + 0.05 * p_odd);
    // Detected-uncorrectable covers even counts >= 2.
    const double p_even2 =
        (1.0 + std::pow(1.0 - 2.0 * per_bit, 72.0)) / 2.0 -
        std::pow(1.0 - per_bit, 72.0);
    const double measured_du =
        static_cast<double>(stats.detectedUncorrectable) / words;
    EXPECT_NEAR(measured_du, p_even2,
                5 * std::sqrt(p_even2 / words) + 0.05 * p_even2 + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(PerBitRates, SecdedRateSweep,
                         ::testing::Values(1e-4, 1e-3, 5e-3, 2e-2));

} // namespace
} // namespace vboost::sram

namespace vboost::fi {
namespace {

/** Small trained network for the ECC protection test. */
class EccProtection : public ::testing::Test
{
  protected:
    static dnn::Network
    makeNet(std::uint64_t seed)
    {
        Rng rng(seed);
        dnn::Network net;
        net.addLayer<dnn::Dense>(16, 32, rng, "fc1");
        net.addLayer<dnn::Relu>("r");
        net.addLayer<dnn::Dense>(32, 4, rng, "fc2");
        return net;
    }

    static dnn::Dataset
    blobs(int n, std::uint64_t seed)
    {
        Rng rng(seed);
        dnn::Dataset ds;
        ds.images = dnn::Tensor({n, 16});
        ds.labels.resize(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            const int cls = static_cast<int>(rng.uniformInt(4));
            ds.labels[static_cast<std::size_t>(i)] = cls;
            for (int j = 0; j < 16; ++j)
                ds.images.at(i, j) = static_cast<float>(
                    rng.normal(j % 4 == cls ? 1.0 : 0.0, 0.15));
        }
        return ds;
    }
};

TEST_F(EccProtection, EccRecoversAccuracyAtModerateRates)
{
    auto net = makeNet(1);
    auto train = blobs(500, 11);
    auto test = blobs(250, 12);
    dnn::TrainConfig cfg;
    cfg.epochs = 8;
    dnn::SgdTrainer trainer(cfg);
    Rng rng(2);
    trainer.train(net, train, rng);
    dnn::clipParameters(net, 0.5f);

    ExperimentConfig ecfg;
    ecfg.numMaps = 6;
    ecfg.maxTestSamples = 250;
    FaultInjectionRunner runner(net, test, ecfg);

    // At a moderate failure rate ECC never hurts and its decoder is
    // visibly working (this tiny model may saturate at 100% for both).
    const double f = 0.04;
    sram::EccStats stats;
    const double raw =
        runner.run(f, InjectionSpec::allWeights()).meanAccuracy;
    const double ecc = runner.runWithEcc(f, 0.5, &stats).meanAccuracy;
    EXPECT_GE(ecc + 0.02, raw);
    EXPECT_GT(stats.corrected, 0u);

    // At VLV-scale failure rates, multi-bit errors defeat SECDED:
    // accuracy degrades badly even with ECC (the paper's argument for
    // boosting over static mitigation).
    const double ecc_hi = runner.runWithEcc(0.2, 0.5).meanAccuracy;
    EXPECT_LT(ecc_hi, 0.9);
}

TEST_F(EccProtection, ZeroRateIsCleanThroughEcc)
{
    auto net = makeNet(1);
    auto test = blobs(100, 12);
    ExperimentConfig ecfg;
    ecfg.numMaps = 2;
    ecfg.maxTestSamples = 100;
    FaultInjectionRunner runner(net, test, ecfg);
    sram::EccStats stats;
    runner.runWithEcc(0.0, 0.5, &stats);
    EXPECT_EQ(stats.corrected, 0u);
    EXPECT_EQ(stats.detectedUncorrectable, 0u);
    EXPECT_GT(stats.words, 0u);
}

} // namespace
} // namespace vboost::fi
