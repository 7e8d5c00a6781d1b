/**
 * @file
 * Tests for the SRAM substrate: failure-rate model, vulnerability /
 * fault maps (including the paper's inclusivity property), bank and
 * banked memory, with fault statistics checked against the
 * analytic failure probabilities.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "circuit/booster.hpp"
#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "sram/banked_memory.hpp"
#include "sram/failure_model.hpp"
#include "sram/fault_map.hpp"
#include "sram/sram_bank.hpp"

namespace vboost::sram {
namespace {

circuit::TechnologyParams tech =
    circuit::TechnologyParams::default14nm();

// -------------------------------------------------------- failure model

TEST(FailureModel, AnchorAndMonotonicity)
{
    FailureRateModel m;
    EXPECT_NEAR(m.rate(0.44_V), 1.4e-2, 1e-6);
    // Exponential increase as voltage decreases (Fig. 7).
    EXPECT_GT(m.rate(0.40_V), m.rate(0.44_V));
    EXPECT_GT(m.rate(0.44_V), m.rate(0.50_V));
    EXPECT_GT(m.rate(0.50_V), m.rate(0.60_V));
}

TEST(FailureModel, NegligibleAtScreeningVoltage)
{
    // Macros are screened for zero fails at 0.6 V.
    FailureRateModel m;
    EXPECT_LT(m.rate(0.60_V), 1e-6);
}

TEST(FailureModel, SaturatesBelowDataRetention)
{
    FailureRateModel m;
    EXPECT_DOUBLE_EQ(m.rate(0.25_V), m.params().maxRate);
    EXPECT_DOUBLE_EQ(m.rate(m.dataRetentionVoltage() - 0.01_V),
                     m.params().maxRate);
}

TEST(FailureModel, VoltageForRateInvertsRate)
{
    FailureRateModel m;
    for (double target : {1e-5, 1e-4, 1e-3, 1e-2, 0.1}) {
        const Volt v = m.voltageForRate(target);
        EXPECT_NEAR(m.rate(v), target, target * 1e-6);
    }
    EXPECT_THROW(m.voltageForRate(0.0), FatalError);
    EXPECT_THROW(m.voltageForRate(0.9), FatalError);
}

TEST(FailureModel, FirstErrorVoltageScalesWithArraySize)
{
    FailureRateModel m;
    // Bigger arrays see their first error at higher voltage (Fig. 1).
    const Volt small = m.firstErrorVoltage(32 * 1024);
    const Volt big = m.firstErrorVoltage(4ull * 1024 * 1024);
    EXPECT_GT(big, small);
    EXPECT_THROW(m.firstErrorVoltage(0), FatalError);
}

TEST(FailureModel, RejectsBadCalibration)
{
    FailureRateParams p;
    p.rateAtAnchor = 0.0;
    EXPECT_THROW(FailureRateModel{p}, FatalError);
    p = FailureRateParams{};
    p.slopePerVolt = -1;
    EXPECT_THROW(FailureRateModel{p}, FatalError);
}

// ----------------------------------------------------------- fault maps

TEST(VulnerabilityMap, DeterministicPerSeedAndMap)
{
    VulnerabilityMap a(1, 0), a2(1, 0), b(1, 1), c(2, 0);
    int same_b = 0, same_c = 0;
    for (std::uint64_t cell = 0; cell < 2000; ++cell) {
        EXPECT_EQ(a.isFaulty(cell, 0.1), a2.isFaulty(cell, 0.1));
        same_b += a.isFaulty(cell, 0.1) == b.isFaulty(cell, 0.1);
        same_c += a.isFaulty(cell, 0.1) == c.isFaulty(cell, 0.1);
    }
    // Different maps/seeds must not be identical.
    EXPECT_LT(same_b, 2000);
    EXPECT_LT(same_c, 2000);
}

TEST(VulnerabilityMap, FaultFractionMatchesProbability)
{
    VulnerabilityMap map(42, 0);
    const std::uint64_t n = 200000;
    for (double f : {0.001, 0.01, 0.1}) {
        const auto count = map.countFaulty(n, f);
        EXPECT_NEAR(static_cast<double>(count) / n, f, 3 * f);
        EXPECT_NEAR(static_cast<double>(count) / n, f,
                    5 * std::sqrt(f / n) + f * 0.2);
    }
}

TEST(VulnerabilityMap, InclusivityAcrossVoltages)
{
    // Paper Sec. 5.1: "failures present in a fault map at voltage V1
    // will also include failures present at voltage V2, where V1 < V2"
    // — i.e. the faulty set grows monotonically with fail probability.
    VulnerabilityMap map(7, 3);
    for (std::uint64_t cell = 0; cell < 50000; ++cell) {
        if (map.isFaulty(cell, 0.01)) {
            EXPECT_TRUE(map.isFaulty(cell, 0.05));
        }
        if (map.isFaulty(cell, 0.05)) {
            EXPECT_TRUE(map.isFaulty(cell, 0.3));
        }
    }
}

TEST(VulnerabilityMap, EdgeProbabilities)
{
    VulnerabilityMap map(9, 0);
    EXPECT_FALSE(map.isFaulty(123, 0.0));
    EXPECT_TRUE(map.isFaulty(123, 1.0));
}

TEST(VulnerabilityMap, VulnerabilityConsistentWithFaultiness)
{
    // Cell faulty at fail prob F iff vulnerability >= Phi^-1(1-F).
    VulnerabilityMap map(11, 2);
    const double f = 0.02;
    const double threshold = inverseNormalCdf(1.0 - f);
    for (std::uint64_t cell = 0; cell < 20000; ++cell) {
        EXPECT_EQ(map.isFaulty(cell, f),
                  map.vulnerability(cell) >= threshold)
            << "cell " << cell;
    }
}

TEST(VulnerabilityMap, VulnerabilityIsStandardNormal)
{
    VulnerabilityMap map(13, 0);
    double sum = 0, sq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = map.vulnerability(static_cast<std::uint64_t>(i));
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

// ------------------------------------------------ clustered fault maps

TEST(ClusteredMap, ValidateRejectsBadKnobs)
{
    ClusterParams p;
    EXPECT_NO_THROW(p.validate());

    p = ClusterParams{};
    p.rowCells = 0;
    EXPECT_THROW(p.validate(), FatalError);

    p = ClusterParams{};
    p.rowDefectProb = 1.2;
    EXPECT_THROW(p.validate(), FatalError);

    p = ClusterParams{};
    p.rowDefectProb = 0.0;
    p.colDefectProb = 0.0; // no defect process at all
    EXPECT_THROW(p.validate(), FatalError);

    p = ClusterParams{};
    p.defectBoost = 0.5;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(ClusteredMap, IidMapHasNoClusterStructure)
{
    const VulnerabilityMap map(21, 0);
    EXPECT_EQ(map.model(), MapModel::Iid);
    for (std::uint64_t cell = 0; cell < 5000; cell += 37) {
        EXPECT_FALSE(map.inDefectCluster(cell));
        EXPECT_DOUBLE_EQ(map.effectiveFailProb(cell, 0.01), 0.01);
    }
}

TEST(ClusteredMap, DeterministicAndDistinctFromIid)
{
    const ClusterParams p;
    const VulnerabilityMap a(21, 3, MapModel::Clustered, p);
    const VulnerabilityMap b(21, 3, MapModel::Clustered, p);
    const VulnerabilityMap iid(21, 3);
    int differs = 0;
    for (std::uint64_t cell = 0; cell < 20000; ++cell) {
        EXPECT_EQ(a.isFaulty(cell, 0.01), b.isFaulty(cell, 0.01));
        differs += a.isFaulty(cell, 0.01) != iid.isFaulty(cell, 0.01);
    }
    EXPECT_GT(differs, 0);
}

TEST(ClusteredMap, StratumCalibrationPreservesAggregateExactly)
{
    // MoRS-lite calibration: cov*hi + (1-cov)*lo == F(v) exactly, so
    // the clustered model changes the spatial structure of faults,
    // never the aggregate budget the failure model dictates.
    const ClusterParams p;
    const VulnerabilityMap map(31, 1, MapModel::Clustered, p);
    // Find one in-cluster and one out-of-cluster cell.
    std::uint64_t in = 0, out = 0;
    bool have_in = false, have_out = false;
    for (std::uint64_t cell = 0; cell < 200000 && !(have_in && have_out);
         ++cell) {
        if (map.inDefectCluster(cell)) {
            in = cell;
            have_in = true;
        } else {
            out = cell;
            have_out = true;
        }
    }
    ASSERT_TRUE(have_in && have_out);
    for (double f : {0.001, 0.01, 0.05}) {
        const double hi = map.effectiveFailProb(in, f);
        const double lo = map.effectiveFailProb(out, f);
        EXPECT_GT(hi, f);
        EXPECT_LT(lo, f);
        const double cov = p.coverage();
        EXPECT_NEAR(cov * hi + (1.0 - cov) * lo, f, 1e-12);
    }
}

TEST(ClusteredMap, AggregateFaultFractionMatchesProbability)
{
    // Averaged over maps, the clustered model produces the same fault
    // fraction as the i.i.d. baseline (per-map variance is larger by
    // design — whole rows fail together).
    const ClusterParams p;
    const std::uint64_t n = 200000;
    const double f = 0.01;
    double total = 0.0;
    const int maps = 20;
    for (int m = 0; m < maps; ++m) {
        const VulnerabilityMap map(42, static_cast<std::uint64_t>(m),
                                   MapModel::Clustered, p);
        total += static_cast<double>(map.countFaulty(n, f));
    }
    const double mean_fraction = total / (maps * static_cast<double>(n));
    EXPECT_NEAR(mean_fraction, f, 0.15 * f);
}

TEST(ClusteredMap, FaultsConcentrateInDefectClusters)
{
    const ClusterParams p;
    const VulnerabilityMap map(7, 2, MapModel::Clustered, p);
    const double f = 0.01;
    std::uint64_t in_cells = 0, in_faulty = 0;
    std::uint64_t out_cells = 0, out_faulty = 0;
    for (std::uint64_t cell = 0; cell < 400000; ++cell) {
        if (map.inDefectCluster(cell)) {
            ++in_cells;
            in_faulty += map.isFaulty(cell, f);
        } else {
            ++out_cells;
            out_faulty += map.isFaulty(cell, f);
        }
    }
    ASSERT_GT(in_cells, 0u);
    ASSERT_GT(out_cells, 0u);
    const double in_rate =
        static_cast<double>(in_faulty) / static_cast<double>(in_cells);
    const double out_rate =
        static_cast<double>(out_faulty) / static_cast<double>(out_cells);
    // Defective rows/columns fail an order of magnitude more often.
    EXPECT_GT(in_rate, 5.0 * out_rate);
}

TEST(ClusteredMap, InclusivityAcrossVoltages)
{
    // The §5.1 inclusivity contract survives the spatial model: the
    // defect structure is fixed per map, only the per-stratum
    // thresholds move with fail probability.
    const ClusterParams p;
    const VulnerabilityMap map(7, 3, MapModel::Clustered, p);
    for (std::uint64_t cell = 0; cell < 50000; ++cell) {
        if (map.isFaulty(cell, 0.01)) {
            EXPECT_TRUE(map.isFaulty(cell, 0.05));
        }
        if (map.isFaulty(cell, 0.05)) {
            EXPECT_TRUE(map.isFaulty(cell, 0.3));
        }
    }
}

// ----------------------------------------------------------------- bank

class SramBankTest : public ::testing::Test
{
  protected:
    SramBankTest()
        : bank_(0, circuit::BoosterDesign::standardConfig(), tech,
                FailureRateModel{}, 16)
    {
    }

    SramBank bank_;
    VulnerabilityMap map_{1, 0};
    Rng rng_{1};
};

TEST_F(SramBankTest, BoostLevelChangesEffectiveVoltage)
{
    bank_.setBoostLevel(0);
    EXPECT_DOUBLE_EQ(bank_.effectiveVoltage(0.4_V).value(), 0.4);
    bank_.setBoostLevel(4);
    EXPECT_GT(bank_.effectiveVoltage(0.4_V).value(), 0.55);
    // Boosting lowers the failure probability.
    bank_.setBoostLevel(0);
    const double f0 = bank_.failProbAt(0.4_V);
    bank_.setBoostLevel(4);
    EXPECT_LT(bank_.failProbAt(0.4_V), f0 / 10);
}

TEST_F(SramBankTest, CountersTrackAccessesAndBoosts)
{
    bank_.setBoostLevel(2);
    bank_.write(0, 77, 0.4_V);
    bank_.read(0, 0.4_V, map_, rng_);
    bank_.read(0, 0.4_V, map_, rng_);
    const auto &c = bank_.counters();
    EXPECT_EQ(c.writes, 1u);
    EXPECT_EQ(c.reads, 2u);
    EXPECT_EQ(c.boostEvents, 3u);
    EXPECT_GT(c.accessEnergy.value(), 0.0);
    EXPECT_GT(c.boostEnergy.value(), 0.0);

    bank_.setBoostLevel(0);
    bank_.resetCounters();
    bank_.read(0, 0.4_V, map_, rng_);
    EXPECT_EQ(bank_.counters().boostEvents, 0u);
    EXPECT_EQ(bank_.counters().boostEnergy.value(), 0.0);
}

TEST_F(SramBankTest, BoostedAccessCostsMoreEnergy)
{
    bank_.setBoostLevel(0);
    bank_.write(0, 1, 0.4_V);
    const double unboosted = bank_.counters().accessEnergy.value();
    bank_.resetCounters();
    bank_.setBoostLevel(4);
    bank_.write(0, 1, 0.4_V);
    const auto &c = bank_.counters();
    EXPECT_GT(c.accessEnergy.value(), unboosted);
}

TEST_F(SramBankTest, HighVoltageReadsAreClean)
{
    bank_.setBoostLevel(4);
    for (std::uint32_t a = 0; a < 64; ++a)
        bank_.write(a, a * 0x0101010101010101ull, 0.6_V);
    for (std::uint32_t a = 0; a < 64; ++a)
        EXPECT_EQ(bank_.read(a, 0.6_V, map_, rng_),
                  a * 0x0101010101010101ull);
}

TEST_F(SramBankTest, SpansTwoMacros)
{
    bank_.write(SramBank::kMacroWords, 123, 0.6_V); // first word of macro 2
    EXPECT_EQ(bank_.peek(SramBank::kMacroWords), 123u);
    EXPECT_THROW(bank_.peek(SramBank::kWords), FatalError);
    // Macro cells are disjoint.
    EXPECT_EQ(bank_.cellIndex(SramBank::kMacroWords),
              std::uint64_t{SramBank::kMacroWords} * SramBank::kWordBits);
}

TEST_F(SramBankTest, WritePeekRoundTrip)
{
    bank_.write(0, 0xdeadbeefcafef00dull, 0.6_V);
    bank_.write(SramBank::kWords - 1, 42, 0.6_V);
    EXPECT_EQ(bank_.peek(0), 0xdeadbeefcafef00dull);
    EXPECT_EQ(bank_.peek(SramBank::kWords - 1), 42u);
    EXPECT_THROW(bank_.write(SramBank::kWords, 0, 0.6_V), FatalError);
    EXPECT_THROW(bank_.peek(SramBank::kWords), FatalError);
}

TEST_F(SramBankTest, FaultFreeReadIsExact)
{
    // Faulty cells that never flip (flip probability 0) read exactly,
    // even deep in the failure region.
    bank_.setFlipProb(0.0);
    bank_.write(7, 0x123456789abcdef0ull, 0.34_V);
    ASSERT_GT(bank_.failProbAt(0.34_V), 0.05);
    EXPECT_EQ(bank_.read(7, 0.34_V, map_, rng_), 0x123456789abcdef0ull);
}

TEST_F(SramBankTest, FaultyReadFlipsOnlyFaultyCells)
{
    bank_.setFlipProb(1.0);
    const double fail = bank_.failProbAt(0.34_V);
    ASSERT_GT(fail, 0.05);
    // One word in each macro.
    for (std::uint32_t addr : {3u, SramBank::kMacroWords + 3}) {
        bank_.write(addr, 0, 0.34_V);
        const std::uint64_t got = bank_.read(addr, 0.34_V, map_, rng_);
        for (std::uint32_t b = 0; b < SramBank::kWordBits; ++b) {
            const bool flipped = (got >> b) & 1;
            EXPECT_EQ(flipped, map_.isFaulty(bank_.cellIndex(addr) + b, fail))
                << "addr " << addr << " bit " << b;
        }
    }
}

TEST_F(SramBankTest, ReadIsNonDeterministicWithHalfFlipProb)
{
    // Paper Sec. 5.1: "When the faulty bitcell is read, the output is
    // non-deterministic". Two reads of the same word should differ
    // with a strong fault density.
    bank_.write(0, 0, 0.34_V);
    ASSERT_GT(bank_.failProbAt(0.34_V), 0.05);
    int distinct = 0;
    std::uint64_t prev = bank_.read(0, 0.34_V, map_, rng_);
    for (int i = 0; i < 20; ++i) {
        const std::uint64_t cur = bank_.read(0, 0.34_V, map_, rng_);
        distinct += cur != prev;
        prev = cur;
    }
    EXPECT_GT(distinct, 0);
}

TEST_F(SramBankTest, CellIndexRespectsBase)
{
    const SramBank bank(2, circuit::BoosterDesign::standardConfig(), tech,
                        FailureRateModel{}, 16);
    EXPECT_EQ(bank.cellIndex(0), 2 * SramBank::kBits);
    EXPECT_EQ(bank.cellIndex(1), 2 * SramBank::kBits + 64);
    EXPECT_EQ(bank.cellIndex(SramBank::kWords - 1),
              3 * SramBank::kBits - 64);
    EXPECT_THROW(bank.cellIndex(SramBank::kWords), FatalError);
}

TEST(CorruptWords64, FlipsTrackFaultyCells)
{
    // With flip prob 1 a read flips every faulty cell of its word, so
    // the flips over a whole bank count its faulty cells.
    SramBank bank(0, circuit::BoosterDesign::standardConfig(), tech,
                  FailureRateModel{}, 1);
    bank.setFlipProb(1.0);
    const VulnerabilityMap map(17, 4);
    Rng rng(6);
    const Volt vdd{0.40};
    std::uint64_t set = 0;
    for (std::uint32_t a = 0; a < SramBank::kWords; ++a) {
        bank.write(a, 0, vdd);
        set += static_cast<std::uint64_t>(
            std::popcount(bank.read(a, vdd, map, rng)));
    }
    EXPECT_GT(set, 0u);
    EXPECT_EQ(set, map.countFaulty(SramBank::kBits, bank.failProbAt(vdd)));
}

TEST_F(SramBankTest, FlipProbValidation)
{
    EXPECT_THROW(bank_.setFlipProb(1.5), FatalError);
    bank_.setFlipProb(0.25);
    EXPECT_DOUBLE_EQ(bank_.flipProb(), 0.25);
}

TEST_F(SramBankTest, LeakageEvaluatedAtUnboostedSupply)
{
    // Leakage is independent of the boost level: idle SRAM stays at
    // Vdd (the paper's key leakage saving).
    bank_.setBoostLevel(0);
    const double l0 = bank_.leakagePower(0.4_V).value();
    bank_.setBoostLevel(4);
    EXPECT_DOUBLE_EQ(bank_.leakagePower(0.4_V).value(), l0);
}

TEST_F(SramBankTest, StageCleanMatchesPerWordAccesses)
{
    // Twin banks: one stages spans in bulk, the other writes then reads
    // each word; every counter and stored word must match bit for bit.
    const auto expect_same = [](const SramBank &bulk, const SramBank &word) {
        const BankCounters &b = bulk.counters();
        const BankCounters &w = word.counters();
        EXPECT_EQ(b.reads, w.reads);
        EXPECT_EQ(b.writes, w.writes);
        EXPECT_EQ(b.boostEvents, w.boostEvents);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.accessEnergy.value()),
                  std::bit_cast<std::uint64_t>(w.accessEnergy.value()));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b.boostEnergy.value()),
                  std::bit_cast<std::uint64_t>(w.boostEnergy.value()));
        for (std::uint32_t a = 0; a < SramBank::kWords; ++a)
            ASSERT_EQ(bulk.peek(a), word.peek(a)) << "word " << a;
    };
    const Volt vdd = 0.45_V;
    for (const int level : {0, bank_.levels()}) {
        for (const bool large : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "level " << level << (large ? " large" : ""));
            SramBank bulk(3, circuit::BoosterDesign::standardConfig(), tech,
                          FailureRateModel{}, 16);
            SramBank word(3, circuit::BoosterDesign::standardConfig(), tech,
                          FailureRateModel{}, 16);
            bulk.setBoostLevel(level);
            word.setBoostLevel(level);
            if (large) {
                // Counters far above one access's energy.
                for (std::uint32_t i = 0; i < 300000; ++i) {
                    bulk.write(i % SramBank::kWords, i, vdd);
                    word.write(i % SramBank::kWords, i, vdd);
                }
            }
            Rng rng(static_cast<std::uint64_t>(level) * 2 + large);
            std::vector<std::uint32_t> spans = {0, 1, 7, 8, 9,
                                                SramBank::kWords};
            for (int i = 0; i < 40; ++i)
                spans.push_back(static_cast<std::uint32_t>(
                    rng.uniformInt(SramBank::kWords + 1)));
            std::vector<std::uint64_t> data(SramBank::kWords);
            for (const std::uint32_t n : spans) {
                const auto addr = static_cast<std::uint32_t>(
                    rng.uniformInt(SramBank::kWords - n + 1));
                for (std::uint64_t &d : data)
                    d = rng.next();
                const SramBank::OperatingPoint p = bulk.accessPoint(
                    vdd, map_, WordFaultMasks::kNoCheckCells);
                bulk.stageClean(addr, data.data(), n, p);
                for (std::uint32_t i = 0; i < n; ++i) {
                    word.write(addr + i, data[i], vdd);
                    word.readRaw(addr + i, vdd, map_);
                }
                expect_same(bulk, word);
            }
        }
    }
}

TEST_F(SramBankTest, WriteReadRawMatchesWriteThenReadRaw)
{
    const Volt vdd = 0.40_V;
    SramBank twin(0, circuit::BoosterDesign::standardConfig(), tech,
                  FailureRateModel{}, 16);
    for (const int level : {0, 2}) {
        bank_.setBoostLevel(level);
        twin.setBoostLevel(level);
        for (std::uint32_t a = 0; a < SramBank::kWords; a += 37) {
            const SramBank::OperatingPoint p =
                bank_.accessPoint(vdd, map_, WordFaultMasks::kNoCheckCells);
            const SramBank::RawRead got = bank_.writeReadRaw(a, a * 3, p);
            twin.write(a, a * 3, vdd);
            const SramBank::RawRead want = twin.readRaw(a, vdd, map_);
            EXPECT_EQ(got.data, want.data);
            EXPECT_EQ(got.mask.data, want.mask.data);
            EXPECT_EQ(got.mask.check, want.mask.check);
            EXPECT_EQ(got.flipProb, want.flipProb);
        }
        EXPECT_EQ(bank_.counters().reads, twin.counters().reads);
        EXPECT_EQ(bank_.counters().writes, twin.counters().writes);
        EXPECT_EQ(bank_.counters().boostEvents, twin.counters().boostEvents);
        EXPECT_EQ(bank_.counters().accessEnergy.value(),
                  twin.counters().accessEnergy.value());
        EXPECT_EQ(bank_.counters().boostEnergy.value(),
                  twin.counters().boostEnergy.value());
    }
}

// -------------------------------------------------------- banked memory

class BankedMemoryTest : public ::testing::Test
{
  protected:
    BankedMemoryTest()
        : mem_("weights", 16, circuit::BoosterDesign::standardConfig(),
               tech, FailureRateModel{}, 0)
    {
    }

    BankedMemory mem_;
    VulnerabilityMap map_{1, 0};
    Rng rng_{1};
};

TEST_F(BankedMemoryTest, GeometryMatchesDante)
{
    EXPECT_EQ(mem_.banks(), 16);
    EXPECT_EQ(mem_.bytes(), 128u * 1024);
    EXPECT_EQ(mem_.words(), 16u * 1024);
}

TEST_F(BankedMemoryTest, FlatAddressingRoutesToBanks)
{
    EXPECT_EQ(mem_.bankOf(0), 0);
    EXPECT_EQ(mem_.bankOf(1023), 0);
    EXPECT_EQ(mem_.bankOf(1024), 1);
    EXPECT_EQ(mem_.bankOf(16 * 1024 - 1), 15);
    EXPECT_THROW(mem_.bankOf(16 * 1024), FatalError);
}

TEST_F(BankedMemoryTest, PerBankBoostConfig)
{
    // Sec. 3.2: "different regions/banks of the SRAM can be boosted to
    // target voltages independent of the other".
    mem_.setBoostLevel(0, 4);
    mem_.setBoostLevel(1, 1);
    EXPECT_EQ(mem_.boostLevel(0), 4);
    EXPECT_EQ(mem_.boostLevel(1), 1);
    EXPECT_GT(mem_.bank(0).effectiveVoltage(0.4_V),
              mem_.bank(1).effectiveVoltage(0.4_V));
    mem_.setAllBoostLevels(2);
    for (int b = 0; b < mem_.banks(); ++b)
        EXPECT_EQ(mem_.boostLevel(b), 2);
}

TEST_F(BankedMemoryTest, Word16RoundTripCleanAtHighVoltage)
{
    mem_.setAllBoostLevels(0);
    std::vector<std::int16_t> vals;
    for (int i = 0; i < 1000; ++i)
        vals.push_back(static_cast<std::int16_t>(i * 7 - 300));
    mem_.writeWords16(13, vals, 0.6_V); // unaligned start
    const auto got = mem_.readWords16(13, 1000, 0.6_V, map_, rng_);
    EXPECT_EQ(got, vals);
}

TEST_F(BankedMemoryTest, Word16PartialWritePreservesNeighbors)
{
    mem_.setAllBoostLevels(0);
    mem_.write(0, 0x1111222233334444ull, 0.6_V);
    mem_.writeWords16(1, {std::int16_t(0x7777)}, 0.6_V);
    EXPECT_EQ(mem_.peek(0), 0x1111222277774444ull);
}

TEST_F(BankedMemoryTest, AggregateCountersSumBanks)
{
    mem_.setAllBoostLevels(1);
    mem_.write(0, 1, 0.4_V);        // bank 0
    mem_.write(2048, 2, 0.4_V);     // bank 2
    mem_.read(0, 0.4_V, map_, rng_);
    const auto total = mem_.totalCounters();
    EXPECT_EQ(total.writes, 2u);
    EXPECT_EQ(total.reads, 1u);
    EXPECT_EQ(total.boostEvents, 3u);
    EXPECT_EQ(mem_.bankCounters(0).writes, 1u);
    EXPECT_EQ(mem_.bankCounters(2).writes, 1u);
    mem_.resetCounters();
    EXPECT_EQ(mem_.totalCounters().writes, 0u);
}

TEST_F(BankedMemoryTest, CellRangesDisjointAcrossMemories)
{
    BankedMemory inputs("inputs", 2,
                        circuit::BoosterDesign::standardConfig(), tech,
                        FailureRateModel{},
                        16ull * SramBank::kBits);
    EXPECT_EQ(inputs.cellBase(), 16ull * SramBank::kBits);
    EXPECT_EQ(inputs.cellIndex(0), 16ull * SramBank::kBits);
    // Misaligned offset rejected.
    EXPECT_THROW(BankedMemory("x", 1,
                              circuit::BoosterDesign::standardConfig(),
                              tech, FailureRateModel{}, 13),
                 FatalError);
}

TEST_F(BankedMemoryTest, LeakageAndAreaAggregate)
{
    const double one_bank =
        mem_.bank(0).leakagePower(0.4_V).value();
    EXPECT_NEAR(mem_.leakagePower(0.4_V).value(), 16 * one_bank, 1e-12);
    EXPECT_GT(mem_.boosterArea().value(), 0.0);
}

/** Property: measured bit-error rate through a bank tracks F(Vddv). */
class BankErrorRateSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BankErrorRateSweep, ErrorRateTracksBoostedVoltage)
{
    const int level = GetParam();
    SramBank bank(0, circuit::BoosterDesign::standardConfig(), tech,
                  FailureRateModel{}, 1);
    bank.setBoostLevel(level);
    bank.setFlipProb(1.0); // deterministic manifestation for counting
    VulnerabilityMap map(99, 0);
    Rng rng(99);
    const Volt vdd{0.42};
    for (std::uint32_t a = 0; a < SramBank::kWords; ++a)
        bank.write(a, 0, vdd);
    std::uint64_t flipped = 0;
    for (std::uint32_t a = 0; a < SramBank::kWords; ++a)
        flipped += static_cast<std::uint64_t>(
            std::popcount(bank.read(a, vdd, map, rng)));
    const double measured =
        static_cast<double>(flipped) / static_cast<double>(SramBank::kBits);
    const double expected = bank.failProbAt(vdd);
    EXPECT_NEAR(measured, expected,
                5 * std::sqrt(expected / SramBank::kBits) + 0.1 * expected)
        << "level " << level;
}

INSTANTIATE_TEST_SUITE_P(Levels, BankErrorRateSweep,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------------------------- read goldens

/** Three faulty reads of every word of bank 3 at a low supply, under
 *  flip probability p: the read values, then the next RNG draw. */
std::uint64_t
bankReadDigest(const VulnerabilityMap &map, double p, int level)
{
    SramBank bank(3, circuit::BoosterDesign::standardConfig(), tech,
                  FailureRateModel{}, 4);
    bank.setBoostLevel(level);
    bank.setFlipProb(p);
    const Volt vdd{0.38};
    for (std::uint32_t a = 0; a < SramBank::kWords; ++a)
        bank.write(a, a * 0x9e3779b97f4a7c15ull, vdd);
    Rng rng(31);
    std::uint64_t h = fnv::kTruncatedBasis;
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint32_t a = 0; a < SramBank::kWords; ++a)
            fnv::mixU64(h, bank.read(a, vdd, map, rng));
    }
    fnv::mixU64(h, rng.next());
    return h;
}

/** Flat reads and 16-bit element reads across a 3-bank memory whose
 *  banks sit at different boost levels. */
std::uint64_t
memoryReadDigest(const VulnerabilityMap &map)
{
    BankedMemory mem("inputs", 3, circuit::BoosterDesign::standardConfig(),
                     tech, FailureRateModel{}, 5 * SramBank::kBits);
    mem.setBoostLevel(0, 0);
    mem.setBoostLevel(1, 1);
    mem.setBoostLevel(2, 3);
    const Volt vdd{0.40};
    for (std::uint32_t a = 0; a < mem.words(); ++a)
        mem.write(a, ~static_cast<std::uint64_t>(a) * 0x2545f4914f6cdd1dull,
                  vdd);
    Rng rng(32);
    std::uint64_t h = fnv::kTruncatedBasis;
    for (std::uint32_t a = 0; a < mem.words(); ++a)
        fnv::mixU64(h, mem.read(a, vdd, map, rng));
    for (const std::int16_t w : mem.readWords16(1021, 4000, vdd, map, rng))
        fnv::mixU64(h, static_cast<std::uint16_t>(w));
    fnv::mixU64(h, rng.next());
    return h;
}

TEST(SramBankGolden, FaultyReadFlipStreams)
{
    // Recorded with the per-macro word storage; the flip stream of a
    // read (values and RNG draws) must not depend on how a bank stores
    // its words.
    const VulnerabilityMap iid(41, 2);
    const VulnerabilityMap clustered(41, 2, MapModel::Clustered,
                                     ClusterParams{});
    EXPECT_EQ(bankReadDigest(iid, 0.5, 0), 0x3327c38103923c1ull);
    EXPECT_EQ(bankReadDigest(iid, 0.25, 2), 0xafd19a635abc0ef1ull);
    EXPECT_EQ(bankReadDigest(clustered, 0.5, 0), 0xdaceda99da031a62ull);
    EXPECT_EQ(bankReadDigest(iid, 0.0, 0), 0xa4e70cdec7babfbdull);
    EXPECT_EQ(memoryReadDigest(iid), 0xb340b275647ce5aeull);
    EXPECT_EQ(memoryReadDigest(clustered), 0x59960db1fa6cfb91ull);
}

} // namespace
} // namespace vboost::sram
