/**
 * @file
 * Cross-module property sweeps (TEST_P): invariants that must hold at
 * every operating point, tying the circuit, SRAM, energy and core
 * layers together — the relationships the paper's argument rests on,
 * checked over the whole (Vdd, level) grid rather than at single
 * points.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "accel/dataflow.hpp"
#include "common/fixed_point.hpp"
#include "core/context.hpp"
#include "core/tradeoff.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/quantize.hpp"
#include "energy/supply_config.hpp"
#include "sram/failure_model.hpp"
#include "sram/fault_map.hpp"

namespace vboost {
namespace {

/** Grid of (Vdd, level) operating points. */
class OperatingPointSweep
    : public ::testing::TestWithParam<std::tuple<double, int>>
{
  protected:
    OperatingPointSweep()
        : ctx_(core::SimContext::standard()),
          sc_(ctx_.tech, ctx_.design, 16), frm_(ctx_.failure)
    {
    }

    core::SimContext ctx_;
    energy::SupplyConfigurator sc_;
    sram::FailureRateModel frm_;
};

TEST_P(OperatingPointSweep, BoostingNeverRaisesFailureRate)
{
    const auto [v, level] = GetParam();
    const Volt vdd{v};
    const Volt vddv = sc_.boostedVoltage(vdd, level);
    EXPECT_GE(vddv, vdd);
    EXPECT_LE(frm_.rate(vddv), frm_.rate(vdd));
}

TEST_P(OperatingPointSweep, EnergyBreakdownComponentsAreNonNegative)
{
    const auto [v, level] = GetParam();
    const Volt vdd{v};
    const energy::Workload w{10000, 100000};
    const auto e = sc_.boostedDynamic(w, vdd, level);
    EXPECT_GE(e.sram.value(), 0.0);
    EXPECT_GE(e.pe.value(), 0.0);
    EXPECT_GE(e.booster.value(), 0.0);
    EXPECT_EQ(e.ldoLoss.value(), 0.0);
    EXPECT_NEAR(e.total().value(),
                e.sram.value() + e.pe.value() + e.booster.value(),
                1e-20);
}

TEST_P(OperatingPointSweep, BoostedLogicCheaperThanSingleRailAtVddv)
{
    // The core of Fig. 13(a): boosting keeps the logic at Vdd while a
    // single-rail design must lift everything to Vddv.
    const auto [v, level] = GetParam();
    if (level == 0)
        return;
    const Volt vdd{v};
    const Volt vddv = sc_.boostedVoltage(vdd, level);
    const energy::Workload w{10000, 100000};
    const auto boosted = sc_.boostedDynamic(w, vdd, level);
    const auto single = sc_.singleSupplyDynamic(w, vddv);
    EXPECT_LT(boosted.pe.value(), single.pe.value());
    EXPECT_LT(boosted.total().value(), single.total().value());
}

TEST_P(OperatingPointSweep, DualSupplyPaysTheLdoTax)
{
    const auto [v, level] = GetParam();
    if (level == 0)
        return;
    const Volt vdd{v};
    const Volt vddv = sc_.boostedVoltage(vdd, level);
    const energy::Workload w{10000, 100000};
    const auto dual = sc_.dualSupplyDynamic(w, vddv, vdd);
    // The LDO loss equals the Eq.-5 inefficiency exactly.
    const double eta = sc_.ldo().efficiency(vdd, vddv);
    EXPECT_NEAR(dual.ldoLoss.value(), dual.pe.value() * (1.0 / eta - 1.0),
                1e-18);
    EXPECT_GT(dual.ldoLoss.value(), 0.0);
}

TEST_P(OperatingPointSweep, LeakageOrderingHoldsEverywhere)
{
    // Boosted config idles everything at Vdd: it can never leak more
    // than the dual rail (SRAM at Vddv) or the single rail at Vddv.
    const auto [v, level] = GetParam();
    if (level == 0)
        return;
    const Volt vdd{v};
    const Volt vddv = sc_.boostedVoltage(vdd, level);
    const Hertz f = 50.0_MHz;
    const double boosted = sc_.boostedLeakagePerCycle(vdd, f).value();
    const double dual =
        sc_.dualSupplyLeakagePerCycle(vddv, vdd, f).value();
    const double single = sc_.singleSupplyLeakagePerCycle(vddv, f).value();
    EXPECT_LT(boosted, dual);
    EXPECT_LT(boosted, single);
    // dual vs single has no universal ordering: at small voltage gaps
    // the LDO tax can outweigh the logic-leakage savings.
}

TEST_P(OperatingPointSweep, MinimalLevelReachingIsMinimal)
{
    const auto [v, level] = GetParam();
    (void)level;
    const Volt vdd{v};
    core::TradeoffExplorer explorer(ctx_, 16);
    const Volt target{0.50};
    const auto chosen = explorer.minimalLevelReaching(vdd, target);
    if (!chosen)
        return;
    EXPECT_GE(explorer.boostedVoltage(vdd, *chosen), target);
    if (*chosen > 0) {
        EXPECT_LT(explorer.boostedVoltage(vdd, *chosen - 1), target);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OperatingPointSweep,
    ::testing::Combine(::testing::Values(0.34, 0.38, 0.42, 0.46, 0.50),
                       ::testing::Values(0, 1, 2, 3, 4)));

/** Quantization round trip must be within resolution for any format. */
class QuantSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantSweep, RoundTripWithinResolutionAtEveryFormat)
{
    const int frac = GetParam();
    FixedPointCodec codec(frac);
    Rng rng(static_cast<std::uint64_t>(frac) + 1);
    for (int i = 0; i < 500; ++i) {
        const float x = static_cast<float>(
            rng.uniform(codec.minValue(), codec.maxValue()));
        EXPECT_NEAR(codec.decode(codec.encode(x)), x,
                    codec.resolution() * 0.5001f)
            << "frac=" << frac;
    }
}

INSTANTIATE_TEST_SUITE_P(Formats, QuantSweep,
                         ::testing::Values(0, 3, 7, 11, 13, 15));

/** Fault-map corruption is deterministic given (seed, map, rng seed). */
TEST(CorruptionDeterminism, SameSeedsSameFlips)
{
    const sram::VulnerabilityMap map(5, 9);
    const FixedPointCodec codec(12);
    const dnn::Backend &backend = dnn::activeBackend();
    std::vector<std::int16_t> a(256, 0x2222), b(256, 0x2222);
    std::vector<float> oa(a.size()), ob(b.size());
    Rng r1(42), r2(42);
    const auto fa = backend.applyFaultMapDequant(
        a, codec, oa.data(), map, {100, 256 * 16, 0}, {0.05, 0.5}, r1);
    const auto fb = backend.applyFaultMapDequant(
        b, codec, ob.data(), map, {100, 256 * 16, 0}, {0.05, 0.5}, r2);
    EXPECT_GT(fa, 0u);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(a, b);
    EXPECT_EQ(oa, ob);
}

/** DANA ratio is layout-invariant: ~0.75 for any layer sizes that are
 *  multiples of the access width. */
class DanaRatioSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(DanaRatioSweep, RatioIsThreeQuarters)
{
    const auto [in, out] = GetParam();
    accel::DanaFcModel model;
    EXPECT_NEAR(model.layerActivity(in, out).accessRatio(), 0.75, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Layers, DanaRatioSweep,
    ::testing::Values(std::pair{784, 256}, std::pair{256, 256},
                      std::pair{512, 64}, std::pair{64, 1024}));

} // namespace
} // namespace vboost
