/**
 * @file
 * Tests for the closed-loop resilient SRAM access pipeline: policy
 * ladder arithmetic, the EWMA bank monitor, the spare-row table, the
 * ResilientMemory read path (clean round trips, retry recovery,
 * quarantine and graceful spare exhaustion) and the determinism
 * contract — closed-loop Monte-Carlo fault injection is bitwise
 * identical at any thread count, down to the spare-row table digests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "testenv.hpp"

#include "circuit/latency.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"
#include "dnn/trainer.hpp"
#include "energy/supply_config.hpp"
#include "fi/experiment.hpp"
#include "obs/observability.hpp"
#include "resilience/monitor.hpp"
#include "resilience/policy.hpp"
#include "resilience/resilient_memory.hpp"
#include "resilience/spare_table.hpp"
#include "sram/banked_memory.hpp"

namespace vboost::resilience {
namespace {

TEST(ResiliencePolicy, OpenLoopNeverEscalates)
{
    const auto p = ResiliencePolicy::openLoop(2);
    EXPECT_EQ(p.mode, AccessPolicyMode::OpenLoop);
    EXPECT_EQ(p.retryBudget, 0);
    EXPECT_EQ(p.startLevel, 2);
    for (int attempt = 0; attempt < 4; ++attempt)
        EXPECT_EQ(p.attemptLevel(2, attempt, 4), 2);
}

TEST(ResiliencePolicy, StepUpClimbsOneLevelPerAttempt)
{
    auto p = ResiliencePolicy::closedLoop(3, EscalationPolicy::StepUp);
    EXPECT_EQ(p.attemptLevel(0, 0, 4), 0);
    EXPECT_EQ(p.attemptLevel(0, 1, 4), 1);
    EXPECT_EQ(p.attemptLevel(0, 3, 4), 3);
    EXPECT_EQ(p.attemptLevel(2, 3, 4), 4); // clamped at the top
    EXPECT_EQ(p.attemptLevel(4, 1, 4), 4);
}

TEST(ResiliencePolicy, MaxOutJumpsToTopOnFirstRetry)
{
    auto p = ResiliencePolicy::closedLoop(2, EscalationPolicy::MaxOut);
    EXPECT_EQ(p.attemptLevel(0, 0, 4), 0);
    EXPECT_EQ(p.attemptLevel(0, 1, 4), 4);
    EXPECT_EQ(p.attemptLevel(1, 2, 4), 4);
}

TEST(ResiliencePolicy, HoldRetriesAtStandingLevel)
{
    auto p = ResiliencePolicy::closedLoop(2, EscalationPolicy::Hold);
    EXPECT_EQ(p.attemptLevel(1, 0, 4), 1);
    EXPECT_EQ(p.attemptLevel(1, 2, 4), 1);
}

TEST(ResiliencePolicy, ValidateRejectsBadKnobs)
{
    auto p = ResiliencePolicy::closedLoop();
    p.retryBudget = ResiliencePolicy::kMaxAttempts;
    EXPECT_THROW(p.validate(4), FatalError);
    p = ResiliencePolicy::closedLoop();
    p.startLevel = 5;
    EXPECT_THROW(p.validate(4), FatalError);
    p = ResiliencePolicy::closedLoop();
    p.ewmaAlpha = 0.0;
    EXPECT_THROW(p.validate(4), FatalError);
    p = ResiliencePolicy::closedLoop();
    p.spareRows = -1;
    EXPECT_THROW(p.validate(4), FatalError);
    EXPECT_NO_THROW(ResiliencePolicy::closedLoop().validate(4));
}

TEST(ResiliencePolicy, NamesAreStable)
{
    EXPECT_EQ(ResiliencePolicy::openLoop(1).name(), "open/L1");
    EXPECT_EQ(ResiliencePolicy::closedLoop(3, EscalationPolicy::StepUp, 8)
                  .name(),
              "closed/r3/stepup/s8");
}

TEST(BankErrorMonitor, ErrorsRaiseAndResetEwma)
{
    BankErrorMonitor mon(2, 0.5, 0.6);
    EXPECT_FALSE(mon.recordAccess(0, true)); // 0.5
    EXPECT_TRUE(mon.recordAccess(0, true));  // 0.75 > 0.6 -> raise
    EXPECT_DOUBLE_EQ(mon.rate(0), 0.0);      // reset after the raise
    EXPECT_EQ(mon.raises(), 1u);
    EXPECT_EQ(mon.accesses(), 2u);
    // The other bank is untouched.
    EXPECT_DOUBLE_EQ(mon.rate(1), 0.0);
}

TEST(BankErrorMonitor, CleanAccessesDecayTheRate)
{
    BankErrorMonitor mon(1, 0.5, 0.9);
    mon.recordAccess(0, true);
    const double after_error = mon.rate(0);
    mon.recordAccess(0, false);
    EXPECT_LT(mon.rate(0), after_error);
}

/** The EWMA monitor by definition: one decay, and one threshold check,
 *  per access, paid as it comes. */
class EagerMonitor
{
  public:
    EagerMonitor(int num_banks, double alpha, double raise_threshold)
        : alpha_(alpha), threshold_(raise_threshold),
          ewma_(static_cast<std::size_t>(num_banks), 0.0)
    {
    }

    bool recordAccess(int bank, bool error)
    {
        ++accesses_;
        double &e = ewma_[static_cast<std::size_t>(bank)];
        e = (1.0 - alpha_) * e + (error ? alpha_ : 0.0);
        if (e > threshold_) {
            e = 0.0;
            ++raises_;
            return true;
        }
        return false;
    }

    double rate(int bank) const
    {
        return ewma_[static_cast<std::size_t>(bank)];
    }
    std::uint64_t raises() const { return raises_; }
    std::uint64_t accesses() const { return accesses_; }

    void reset()
    {
        std::fill(ewma_.begin(), ewma_.end(), 0.0);
        raises_ = 0;
        accesses_ = 0;
    }

  private:
    double alpha_;
    double threshold_;
    std::vector<double> ewma_;
    std::uint64_t raises_ = 0;
    std::uint64_t accesses_ = 0;
};

TEST(BankErrorMonitor, LazyDecayMatchesEagerReference)
{
    // `read` has its rates read at random points, `blind` only at the
    // end: a read must change no later result.
    constexpr int kBanks = 3;
    const double error_probs[] = {0.0, 0.01, 0.1, 0.3, 0.7};
    const std::pair<double, double> configs[] = {
        {0.05, 0.35}, {0.5, 0.6}, {1.0, 0.5}, {0.05, 1e-3}, {0.0005, 1e-3}};
    std::uint64_t seed = 1;
    for (const auto &[alpha, threshold] : configs) {
        SCOPED_TRACE(::testing::Message()
                     << "alpha " << alpha << " threshold " << threshold);
        EagerMonitor eager(kBanks, alpha, threshold);
        BankErrorMonitor read(kBanks, alpha, threshold);
        BankErrorMonitor blind(kBanks, alpha, threshold);
        Rng rng(seed++);
        double error_prob = 0.1;
        for (int op = 0; op < 20000; ++op) {
            if (rng.uniformInt(400) == 0)
                error_prob = error_probs[rng.uniformInt(5)];
            const auto bank = static_cast<int>(rng.uniformInt(kBanks));
            const std::uint64_t kind = rng.uniformInt(1000);
            if (kind < 600) {
                const bool error = rng.bernoulli(error_prob);
                const bool raised = eager.recordAccess(bank, error);
                ASSERT_EQ(read.recordAccess(bank, error), raised) << op;
                ASSERT_EQ(blind.recordAccess(bank, error), raised) << op;
            } else if (kind < 900) {
                // Mostly short spans; a few runs long enough to decay
                // through the subnormals to exactly 0 (alpha >= 0.5).
                const std::uint64_t n =
                    kind < 898 ? rng.uniformInt(64)
                               : 20001 + rng.uniformInt(50000);
                for (std::uint64_t i = 0; i < n; ++i)
                    ASSERT_FALSE(eager.recordAccess(bank, false));
                read.recordCleanAccesses(bank, n);
                blind.recordCleanAccesses(bank, n);
            } else if (kind < 998) {
                const auto b = static_cast<int>(rng.uniformInt(kBanks));
                ASSERT_EQ(std::bit_cast<std::uint64_t>(read.rate(b)),
                          std::bit_cast<std::uint64_t>(eager.rate(b)))
                    << op;
            } else {
                eager.reset();
                read.reset();
                blind.reset();
            }
            ASSERT_EQ(read.raises(), eager.raises());
            ASSERT_EQ(blind.raises(), eager.raises());
            ASSERT_EQ(read.accesses(), eager.accesses());
            ASSERT_EQ(blind.accesses(), eager.accesses());
        }
        for (int b = 0; b < kBanks; ++b) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(read.rate(b)),
                      std::bit_cast<std::uint64_t>(eager.rate(b)));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(blind.rate(b)),
                      std::bit_cast<std::uint64_t>(eager.rate(b)));
        }
    }
}

TEST(BankErrorMonitor, RejectsBadConfig)
{
    EXPECT_THROW(BankErrorMonitor(0, 0.5, 0.5), FatalError);
    EXPECT_THROW(BankErrorMonitor(1, 0.0, 0.5), FatalError);
    EXPECT_THROW(BankErrorMonitor(1, 0.5, 0.0), FatalError);
}

TEST(SpareRowTable, RemapFindAndCapacity)
{
    SpareRowTable t(2);
    EXPECT_EQ(t.find(7), -1);
    EXPECT_EQ(t.remap(7, 0xabcull, 0x12), 0);
    EXPECT_EQ(t.remap(9, 0xdefull, 0x34), 1);
    EXPECT_TRUE(t.full());
    EXPECT_EQ(t.remap(11, 0ull, 0), -1);  // full
    EXPECT_EQ(t.remap(7, 1ull, 1), -1);   // already mapped
    EXPECT_EQ(t.find(7), 0);
    EXPECT_EQ(t.row(0).data, 0xabcull);
    EXPECT_EQ(t.find(9), 1);
}

TEST(SpareRowTable, DigestReflectsContentAndOrder)
{
    SpareRowTable a(4), b(4), c(4);
    a.remap(1, 10, 1);
    a.remap(2, 20, 2);
    b.remap(1, 10, 1);
    b.remap(2, 20, 2);
    c.remap(2, 20, 2);
    c.remap(1, 10, 1);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest()); // quarantine order matters
    EXPECT_NE(a.digest(), SpareRowTable(4).digest());
}

/** ResilientMemory over a small 2-bank memory. */
class ResilientMemoryTest : public ::testing::Test
{
  protected:
    ResilientMemoryTest()
        : ctx_(core::SimContext::standard()),
          failure_(ctx_.failure),
          mem_("test_mem", 2, ctx_.design, ctx_.tech, failure_)
    {
    }

    ResilientMemory
    wrap(const ResiliencePolicy &policy)
    {
        ResilientMemory rmem(mem_, ctx_, policy);
        rmem.reseed(Rng(99));
        return rmem;
    }

    core::SimContext ctx_;
    sram::FailureRateModel failure_;
    sram::BankedMemory mem_;
};

TEST_F(ResilientMemoryTest, CleanRoundTripAtSafeVoltage)
{
    auto rmem = wrap(ResiliencePolicy::closedLoop());
    const sram::VulnerabilityMap map(5, 0);
    Rng rng(1);
    for (std::uint32_t addr = 0; addr < 64; ++addr) {
        const std::uint64_t data = rng.next();
        rmem.writeWord(addr, data, 0.8_V);
        const auto out = rmem.readWord(addr, 0.8_V, map);
        EXPECT_EQ(out.data, data) << addr;
        EXPECT_EQ(out.outcome, sram::EccOutcome::Clean);
        EXPECT_EQ(out.attempts, 1);
        EXPECT_FALSE(out.fromSpare);
    }
    const auto s = rmem.snapshot();
    EXPECT_EQ(s.reads, 64u);
    EXPECT_EQ(s.cleanReads, 64u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.quarantines, 0u);
    EXPECT_GT(rmem.totalAccessEnergy().value(), 0.0);
}

TEST_F(ResilientMemoryTest, Words16RoundTrip)
{
    auto rmem = wrap(ResiliencePolicy::closedLoop());
    const sram::VulnerabilityMap map(5, 0);
    const std::vector<std::int16_t> values = {-3, 7, 12345, -32768,
                                              32767, 0, 1, -1, 9};
    rmem.writeWords16(3, values, 0.8_V); // unaligned start on purpose
    const auto got = rmem.readWords16(
        3, static_cast<std::uint32_t>(values.size()), 0.8_V, map);
    EXPECT_EQ(got, values);
}

TEST_F(ResilientMemoryTest, OpenLoopStartLevelProgramsBanks)
{
    auto rmem = wrap(ResiliencePolicy::openLoop(2));
    EXPECT_EQ(rmem.standingLevel(0), 2);
    EXPECT_EQ(rmem.standingLevel(1), 2);
    EXPECT_EQ(mem_.boostLevel(0), 2);
}

TEST_F(ResilientMemoryTest, ClosedLoopRecoversWhatOpenLoopDrops)
{
    // At 0.44 V (BER ~1.4e-2) double-bit codeword errors are common
    // enough that the open loop leaks uncorrectable reads, while the
    // closed loop clears them by retrying at escalated levels.
    const Volt vdd{0.44};
    const sram::VulnerabilityMap map(17, 0);
    Rng data_rng(3);

    auto open = wrap(ResiliencePolicy::openLoop(0));
    std::uint64_t open_uncorrected = 0;
    for (std::uint32_t addr = 0; addr < 1024; ++addr) {
        open.writeWord(addr, data_rng.next(), vdd);
        if (open.readWord(addr, vdd, map).outcome ==
            sram::EccOutcome::DetectedUncorrectable)
            ++open_uncorrected;
    }
    EXPECT_GT(open_uncorrected, 0u);
    EXPECT_EQ(open.snapshot().retries, 0u);

    mem_.resetCounters();
    auto closed = wrap(
        ResiliencePolicy::closedLoop(3, EscalationPolicy::StepUp, 8));
    Rng data_rng2(3);
    std::uint64_t closed_uncorrected = 0;
    for (std::uint32_t addr = 0; addr < 1024; ++addr) {
        closed.writeWord(addr, data_rng2.next(), vdd);
        if (closed.readWord(addr, vdd, map).outcome ==
            sram::EccOutcome::DetectedUncorrectable)
            ++closed_uncorrected;
    }
    const auto s = closed.snapshot();
    EXPECT_LT(closed_uncorrected, open_uncorrected);
    EXPECT_GT(s.retries, 0u);
    EXPECT_GT(s.retryEnergy.value(), 0.0);
    EXPECT_GT(s.retryLatency.value(), 0.0);
}

TEST_F(ResilientMemoryTest, QuarantineMovesRowsToSpares)
{
    // Brutal conditions (0.40 V, BER ~0.28) with instant quarantine:
    // rows fail repeatedly, get remapped, and the table fills up to
    // graceful spare exhaustion.
    auto policy =
        ResiliencePolicy::closedLoop(0, EscalationPolicy::Hold, 2);
    policy.quarantineThreshold = 1;
    auto rmem = wrap(policy);
    const Volt vdd{0.40};
    const sram::VulnerabilityMap map(23, 0);
    Rng data_rng(4);
    for (std::uint32_t addr = 0; addr < 128; ++addr)
        rmem.writeWord(addr, data_rng.next(), vdd);
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint32_t addr = 0; addr < 128; ++addr)
            rmem.readWord(addr, vdd, map);

    const auto s = rmem.snapshot();
    EXPECT_EQ(s.quarantines, 2u);
    EXPECT_TRUE(rmem.spares().full());
    EXPECT_GT(s.spareReads, 0u);
    EXPECT_GT(s.spareExhausted, 0u);
    EXPECT_GT(s.spareEnergy.value(), 0.0);
    EXPECT_NE(s.spareTableDigest, SpareRowTable(2).digest());

    // A spared row reads through the spare path.
    const std::uint32_t spared = rmem.spares().row(0).addr;
    EXPECT_TRUE(rmem.readWord(spared, vdd, map).fromSpare);

    // A write to a spared row keeps the spare image coherent.
    rmem.writeWord(spared, 0xfeedull, vdd);
    EXPECT_EQ(rmem.spares().row(0).data, 0xfeedull);
}

TEST_F(ResilientMemoryTest, RetriesAndSparesCostWhatTheSupplyModelSays)
{
    // Retries and spare reads are charged at the bank's operating
    // point; every charge must equal the supply model's Eq. (3) terms
    // at the attempt's level, added in attempt order: access energy,
    // then boost energy at level > 0, and the access time at Vddv.
    const Volt vdd{0.40};
    const sram::VulnerabilityMap map(29, 0);
    const energy::SupplyConfigurator supply(ctx_.tech, ctx_.design,
                                            mem_.banks());
    const circuit::LatencyModel latency(ctx_.tech);
    const int max_level = mem_.bank(0).levels();
    auto add_attempt = [&](double &energy, double &time, int level) {
        const Volt vddv = supply.boostedVoltage(vdd, level);
        energy += supply.energyModel().sramAccessEnergy(vddv, mem_.banks())
                      .value();
        if (level > 0)
            energy += supply.booster().boostEventEnergy(vdd, level).value();
        time += latency.accessTime(vddv, vdd).value();
    };

    // Retries from level 0 up, no raises, no spares.
    auto retrying = ResiliencePolicy::closedLoop(3, EscalationPolicy::StepUp,
                                                 0);
    retrying.raiseThreshold = 1.0;
    auto rmem = wrap(retrying);
    Rng data_rng(6);
    double energy = 0.0;
    double time = 0.0;
    for (std::uint32_t addr = 0; addr < 512; ++addr) {
        rmem.writeWord(addr, data_rng.next(), vdd);
        const ReadOutcome out = rmem.readWord(addr, vdd, map);
        for (int a = 1; a < out.attempts; ++a)
            add_attempt(energy, time,
                        retrying.attemptLevel(0, a, max_level));
    }
    ResilienceStats s = rmem.snapshot();
    ASSERT_EQ(s.standingRaises, 0u);
    ASSERT_GT(s.escalations, 0u);
    EXPECT_EQ(s.retryEnergy.value(), energy);
    EXPECT_EQ(s.retryLatency.value(), time);

    // Spare reads at a boosted standing level, one attempt each.
    auto sparing = ResiliencePolicy::closedLoop(0, EscalationPolicy::Hold, 2);
    sparing.startLevel = 1;
    sparing.quarantineThreshold = 1;
    sparing.raiseThreshold = 1.0;
    auto spared = wrap(sparing);
    for (std::uint32_t addr = 0; addr < 128; ++addr)
        spared.writeWord(addr, data_rng.next(), vdd);
    for (int pass = 0; pass < 3; ++pass)
        for (std::uint32_t addr = 0; addr < 128; ++addr)
            spared.readWord(addr, vdd, map);
    s = spared.snapshot();
    ASSERT_GT(s.spareReads, 0u);
    energy = 0.0;
    time = 0.0; // spare reads add no retry latency
    for (std::uint64_t i = 0; i < s.spareReads; ++i)
        add_attempt(energy, time, 1);
    EXPECT_EQ(s.spareEnergy.value(), energy);
}

TEST_F(ResilientMemoryTest, ClusteredMapsDriveSecdedDoubleBitFailures)
{
    // MoRS-lite same-row clustering vs SECDED (DESIGN.md §13): at an
    // aggregate BER low enough that i.i.d. faults almost never land
    // two bits in one 72-bit codeword, a defective wordline row
    // concentrates its fault budget into whole codewords and defeats
    // single-error correction. Same aggregate F(v) on both sides —
    // only the spatial structure differs.
    const Volt vdd = failure_.voltageForRate(1e-3);
    const auto policy =
        ResiliencePolicy::closedLoop(0, EscalationPolicy::Hold, 0);
    const sram::ClusterParams cluster; // 576-cell codeword-aligned rows

    std::uint64_t iid_uncorrected = 0, clustered_uncorrected = 0;
    for (std::uint64_t m = 0; m < 3; ++m) {
        for (int clustered = 0; clustered < 2; ++clustered) {
            mem_.resetCounters();
            auto rmem = wrap(policy);
            const sram::VulnerabilityMap map =
                clustered ? sram::VulnerabilityMap(
                                5, m, sram::MapModel::Clustered, cluster)
                          : sram::VulnerabilityMap(5, m);
            Rng data_rng(3);
            for (std::uint32_t addr = 0; addr < 2048; ++addr)
                rmem.writeWord(addr, data_rng.next(), vdd);
            for (std::uint32_t addr = 0; addr < 2048; ++addr)
                rmem.readWord(addr, vdd, map);
            (clustered ? clustered_uncorrected : iid_uncorrected) +=
                rmem.snapshot().uncorrected;
        }
    }
    // Clustering turns a correctable trickle into double-bit escapes.
    EXPECT_GT(clustered_uncorrected, 2 * iid_uncorrected);
    EXPECT_GT(clustered_uncorrected, 0u);
}

TEST_F(ResilientMemoryTest, ClusteredSameRowMapsExhaustSpares)
{
    // Spare-row quarantine under same-row clustering: defective rows
    // fail chronically, quarantine fills the 2-entry spare table, and
    // further chronic rows degrade gracefully (spareExhausted counts
    // them). The i.i.d. control at the same aggregate BER stays below
    // the table capacity and never overflows it.
    const Volt vdd = failure_.voltageForRate(1e-3);
    auto policy =
        ResiliencePolicy::closedLoop(0, EscalationPolicy::Hold, 2);
    policy.quarantineThreshold = 2;
    const sram::ClusterParams cluster;
    const sram::VulnerabilityMap clustered(
        29, 0, sram::MapModel::Clustered, cluster);
    const sram::VulnerabilityMap iid(29, 0);

    auto run = [&](const sram::VulnerabilityMap &map) {
        mem_.resetCounters();
        auto rmem = wrap(policy);
        Rng data_rng(8);
        for (std::uint32_t addr = 0; addr < 1024; ++addr)
            rmem.writeWord(addr, data_rng.next(), vdd);
        for (int pass = 0; pass < 4; ++pass)
            for (std::uint32_t addr = 0; addr < 1024; ++addr)
                rmem.readWord(addr, vdd, map);
        return rmem.snapshot();
    };

    const auto iid_s = run(iid);
    const auto clu_s = run(clustered);
    EXPECT_LT(iid_s.quarantines, clu_s.quarantines);
    EXPECT_EQ(iid_s.spareExhausted, 0u);
    EXPECT_EQ(clu_s.quarantines, 2u); // table full
    EXPECT_GT(clu_s.spareReads, 0u);
    EXPECT_GT(clu_s.spareExhausted, 0u);
    EXPECT_GT(clu_s.spareEnergy.value(), 0.0);
}

TEST_F(ResilientMemoryTest, ChronicErrorsRaiseStandingLevel)
{
    auto policy =
        ResiliencePolicy::closedLoop(1, EscalationPolicy::StepUp, 0);
    auto rmem = wrap(policy);
    const Volt vdd{0.40}; // per-access error rate near 1
    const sram::VulnerabilityMap map(31, 0);
    Rng data_rng(6);
    for (std::uint32_t addr = 0; addr < 256; ++addr)
        rmem.writeWord(addr, data_rng.next(), vdd);
    for (std::uint32_t addr = 0; addr < 256; ++addr)
        rmem.readWord(addr, vdd, map);
    const auto s = rmem.snapshot();
    EXPECT_GT(s.standingRaises, 0u);
    EXPECT_GT(rmem.standingLevel(0) + rmem.standingLevel(1), 0);
    // The memory's banks mirror the standing levels.
    EXPECT_EQ(mem_.boostLevel(0), rmem.standingLevel(0));
    EXPECT_EQ(mem_.boostLevel(1), rmem.standingLevel(1));
}

TEST_F(ResilientMemoryTest, ResetRuntimeStateClearsEverything)
{
    auto policy = ResiliencePolicy::closedLoop(0, EscalationPolicy::Hold, 2);
    policy.quarantineThreshold = 1;
    auto rmem = wrap(policy);
    const sram::VulnerabilityMap map(23, 0);
    Rng data_rng(4);
    for (std::uint32_t addr = 0; addr < 128; ++addr) {
        rmem.writeWord(addr, data_rng.next(), 0.40_V);
        rmem.readWord(addr, 0.40_V, map);
    }
    ASSERT_GT(rmem.snapshot().reads, 0u);
    rmem.resetRuntimeState();
    const auto s = rmem.snapshot();
    EXPECT_EQ(s.reads, 0u);
    EXPECT_EQ(s.quarantines, 0u);
    EXPECT_EQ(rmem.spares().used(), 0);
    EXPECT_EQ(rmem.standingLevel(0), policy.startLevel);
}

TEST_F(ResilientMemoryTest, SameSeedSameOutcome)
{
    // The per-access counter discipline: identical seeds and access
    // sequences produce identical outcomes, attempt by attempt.
    const Volt vdd{0.44};
    const sram::VulnerabilityMap map(41, 0);
    auto run = [&](sram::BankedMemory &mem) {
        ResilientMemory rmem(mem, ctx_,
                             ResiliencePolicy::closedLoop());
        rmem.reseed(Rng(7));
        Rng data_rng(8);
        std::uint64_t digest = 0;
        const auto addrs = testenv::tsanScaled<std::uint32_t>(512, 128);
        for (std::uint32_t addr = 0; addr < addrs; ++addr) {
            rmem.writeWord(addr, data_rng.next(), vdd);
            const auto out = rmem.readWord(addr, vdd, map);
            digest = digest * 1099511628211ull ^ out.data ^
                     static_cast<std::uint64_t>(out.attempts);
        }
        const auto s = rmem.snapshot();
        return std::tuple{digest, s.retries, s.spareTableDigest};
    };
    sram::BankedMemory m1("a", 2, ctx_.design, ctx_.tech, failure_);
    sram::BankedMemory m2("b", 2, ctx_.design, ctx_.tech, failure_);
    EXPECT_EQ(run(m1), run(m2));
}

} // namespace
} // namespace vboost::resilience

namespace vboost::fi {
namespace {

/** Small trained network for end-to-end closed-loop experiments. */
class ResilientExperiment : public ::testing::Test
{
  protected:
    static dnn::Network
    makeTrainedNet()
    {
        Rng rng(1);
        dnn::Network net;
        net.addLayer<dnn::Dense>(16, 32, rng, "fc1");
        net.addLayer<dnn::Relu>("r");
        net.addLayer<dnn::Dense>(32, 4, rng, "fc2");
        // TSan smoke: fewer samples/epochs keep the instrumented run
        // fast; the fixture only needs a net better than chance.
        auto train = blobs(testenv::tsanScaled(400, 160), 11);
        dnn::TrainConfig cfg;
        cfg.epochs = testenv::tsanScaled(6, 3);
        dnn::SgdTrainer trainer(cfg);
        Rng train_rng(2);
        trainer.train(net, train, train_rng);
        dnn::clipParameters(net, 0.5f);
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

TEST_F(ResilientExperiment, ClosedLoopBeatsOpenLoopAccuracyAtVlv)
{
    auto net = makeTrainedNet();
    auto test = blobs(200, 12);
    ExperimentConfig cfg;
    cfg.numMaps = 4;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(net, test, cfg);
    const auto ctx = core::SimContext::standard();

    const Volt vdd{0.38}; // BER 0.5: open loop at L0 reads noise
    const auto open = runner.runResilient(
        vdd, ctx, resilience::ResiliencePolicy::openLoop(0));
    const auto closed = runner.runResilient(
        vdd, ctx, resilience::ResiliencePolicy::closedLoop());
    EXPECT_GT(closed.point.meanAccuracy, open.point.meanAccuracy);
    EXPECT_LT(closed.point.meanBitFlips, open.point.meanBitFlips);
    EXPECT_GT(closed.stats.retries, 0u);
    EXPECT_EQ(open.stats.retries, 0u);
    EXPECT_GT(closed.meanAccessEnergy.value(), 0.0);
}

TEST_F(ResilientExperiment, DeterministicAcrossThreadCounts)
{
    // The determinism contract of DESIGN.md §7 extended to the
    // resilient pipeline: accuracy, retry counters and the spare-row
    // tables are bitwise identical at 1 and 8 threads.
    auto net = makeTrainedNet();
    auto test = blobs(200, 12);
    const auto ctx = core::SimContext::standard();
    auto policy = resilience::ResiliencePolicy::closedLoop(
        2, resilience::EscalationPolicy::StepUp, 4);
    policy.quarantineThreshold = 1; // make quarantines likely

    auto run_at = [&](int threads) {
        ExperimentConfig cfg;
        cfg.numMaps = testenv::tsanScaled(8, 4);
        cfg.maxTestSamples = 200;
        cfg.numThreads = threads;
        FaultInjectionRunner runner(net, test, cfg);
        return runner.runResilient(Volt{0.42}, ctx, policy);
    };
    const auto serial = run_at(1);
    const auto parallel = run_at(8);

    EXPECT_EQ(serial.point.meanAccuracy, parallel.point.meanAccuracy);
    EXPECT_EQ(serial.point.stddevAccuracy,
              parallel.point.stddevAccuracy);
    EXPECT_EQ(serial.point.meanBitFlips, parallel.point.meanBitFlips);
    EXPECT_EQ(serial.stats.reads, parallel.stats.reads);
    EXPECT_EQ(serial.stats.retries, parallel.stats.retries);
    EXPECT_EQ(serial.stats.retriedReads, parallel.stats.retriedReads);
    EXPECT_EQ(serial.stats.escalations, parallel.stats.escalations);
    EXPECT_EQ(serial.stats.standingRaises,
              parallel.stats.standingRaises);
    EXPECT_EQ(serial.stats.quarantines, parallel.stats.quarantines);
    EXPECT_EQ(serial.stats.spareReads, parallel.stats.spareReads);
    EXPECT_EQ(serial.stats.uncorrected, parallel.stats.uncorrected);
    // Spare-row tables are compared through the order-sensitive
    // digest chain: identical remap contents in identical order.
    EXPECT_EQ(serial.stats.spareTableDigest,
              parallel.stats.spareTableDigest);
    EXPECT_EQ(serial.meanAccessEnergy.value(),
              parallel.meanAccessEnergy.value());
    EXPECT_EQ(serial.meanRetryLatency.value(),
              parallel.meanRetryLatency.value());
}

TEST_F(ResilientExperiment, TimingRunsAreBitwiseThreadInvariant)
{
    // §7 extended to the timing-speculative datapath: runTiming and
    // runCombined are bitwise identical at 1 and 8 threads, down to
    // the replay-count digests.
    auto net = makeTrainedNet();
    auto test = blobs(200, 12);
    const auto ctx = core::SimContext::standard();

    TimingInjection inj;
    inj.vLogic = Volt(0.33); // deep in the violation regime
    const auto policy = resilience::ResiliencePolicy::closedLoop();

    auto runner_at = [&](int threads) {
        ExperimentConfig cfg;
        cfg.numMaps = testenv::tsanScaled(6, 3);
        cfg.maxTestSamples = 200;
        cfg.numThreads = threads;
        return FaultInjectionRunner(net, test, cfg);
    };

    auto serial_runner = runner_at(1);
    auto parallel_runner = runner_at(8);
    const auto ts = serial_runner.runTiming(ctx, inj);
    const auto tp = parallel_runner.runTiming(ctx, inj);
    EXPECT_GT(ts.stats.errors, 0u); // the regime is live
    EXPECT_EQ(ts.point.meanAccuracy, tp.point.meanAccuracy);
    EXPECT_EQ(ts.point.stddevAccuracy, tp.point.stddevAccuracy);
    EXPECT_EQ(ts.point.meanBitFlips, tp.point.meanBitFlips);
    EXPECT_EQ(ts.stats.ops, tp.stats.ops);
    EXPECT_EQ(ts.stats.errors, tp.stats.errors);
    EXPECT_EQ(ts.stats.replays, tp.stats.replays);
    EXPECT_EQ(ts.stats.corrupted, tp.stats.corrupted);
    EXPECT_EQ(ts.stats.stepUps, tp.stats.stepUps);
    EXPECT_EQ(ts.stats.replayDigest, tp.stats.replayDigest);
    EXPECT_EQ(ts.meanLogicEnergy.value(), tp.meanLogicEnergy.value());
    EXPECT_EQ(ts.meanReplayLatency.value(),
              tp.meanReplayLatency.value());

    const auto cs = serial_runner.runCombined(Volt{0.44}, ctx, policy,
                                              inj);
    const auto cp = parallel_runner.runCombined(Volt{0.44}, ctx, policy,
                                                inj);
    EXPECT_EQ(cs.point.meanAccuracy, cp.point.meanAccuracy);
    EXPECT_EQ(cs.point.meanBitFlips, cp.point.meanBitFlips);
    EXPECT_EQ(cs.sram.retries, cp.sram.retries);
    EXPECT_EQ(cs.sram.uncorrected, cp.sram.uncorrected);
    EXPECT_EQ(cs.sram.spareTableDigest, cp.sram.spareTableDigest);
    EXPECT_EQ(cs.timing.errors, cp.timing.errors);
    EXPECT_EQ(cs.timing.replayDigest, cp.timing.replayDigest);
    EXPECT_EQ(cs.meanSramEnergy.value(), cp.meanSramEnergy.value());
    EXPECT_EQ(cs.meanLogicEnergy.value(), cp.meanLogicEnergy.value());
    EXPECT_EQ(cs.meanRetryLatency.value(), cp.meanRetryLatency.value());
    EXPECT_EQ(cs.meanReplayLatency.value(),
              cp.meanReplayLatency.value());
}

TEST_F(ResilientExperiment, TimingObsAttributionReconciles)
{
    // The §11 acceptance for the timing path: the metrics a runTiming
    // pass exports must reconcile exactly (counters) / to rounding
    // (energy means) with the returned TimingAccuracyPoint.
    auto net = makeTrainedNet();
    auto test = blobs(200, 12);
    const auto ctx = core::SimContext::standard();
    ExperimentConfig cfg;
    cfg.numMaps = 3;
    cfg.maxTestSamples = 200;
    FaultInjectionRunner runner(net, test, cfg);

    obs::Observability o;
    runner.attachObservability(&o);
    TimingInjection inj;
    inj.vLogic = Volt(0.33);
    const auto p = runner.runTiming(ctx, inj);
    runner.attachObservability(nullptr);

    EXPECT_EQ(o.metrics.counter("timing.ops").value(), p.stats.ops);
    EXPECT_EQ(o.metrics.counter("timing.errors").value(),
              p.stats.errors);
    EXPECT_EQ(o.metrics.counter("timing.replays").value(),
              p.stats.replays);
    EXPECT_EQ(o.metrics.counter("timing.corrupted").value(),
              p.stats.corrupted);
    EXPECT_EQ(o.metrics.counter("timing.replay_cycles").value(),
              p.stats.replayCycles);
    EXPECT_EQ(o.metrics.counter("timing.bubble_cycles").value(),
              p.stats.bubbleCycles);
    const double total = o.metrics.sum("timing.energy.logic_j").value();
    EXPECT_NEAR(total, p.meanLogicEnergy.value() * cfg.numMaps,
                1e-9 * total);
    EXPECT_EQ(total, p.stats.logicEnergy.value());
}

} // namespace
} // namespace vboost::fi
