/**
 * @file
 * Golden digests of resilient weight staging (DESIGN.md §8): an
 * MNIST-FC-sized network staged through the 16-bank weight memory with
 * fi::corruptNetworkResilient over {iid, clustered} maps x {open loop,
 * closed StepUp, closed MaxOut} x three supplies, each case staged
 * twice on one ResilientMemory. Every case pins an FNV-1a digest of
 * the staged weight bits, the residual flip count, every
 * ResilienceStats field, the bits of totalAccessEnergy(), the per-bank
 * counters and the standing levels.
 *
 * The 1-vs-8-thread determinism gates only show that a run is
 * reproducible; these constants show that it still computes what the
 * per-bit read path computed when they were recorded, so a fast path
 * that is deterministic but different fails here.
 *
 * Also here: the bulk staging pass against the per-word pipeline,
 * staging-image reuse, the kept image's key, a serving slot's undo
 * record, per-bank check-cell flip probabilities, the
 * masked-flip routine against the per-cell loop, a bank's masks
 * against per-cell queries, and when a bank packs them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/layers.hpp"
#include "dnn/zoo.hpp"
#include "fi/injector.hpp"
#include "resilience/resilient_memory.hpp"
#include "sram/banked_memory.hpp"
#include "sram/ecc.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::fi {
namespace {

/** FNV-1a over 64-bit values, byte by byte. */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }

    void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

void
hashNetwork(Fnv &f, dnn::Network &net)
{
    for (const auto &p : net.params()) {
        for (std::size_t i = 0; i < p.value->numel(); ++i)
            f.add(static_cast<std::uint64_t>(
                std::bit_cast<std::uint32_t>((*p.value)[i])));
    }
}

void
hashMemory(Fnv &f, const resilience::ResilientMemory &rmem)
{
    const resilience::ResilienceStats s = rmem.snapshot();
    for (std::uint64_t v :
         {s.reads, s.cleanReads, s.correctedReads, s.retriedReads,
          s.retries, s.escalations, s.standingRaises, s.quarantines,
          s.spareReads, s.spareExhausted, s.uncorrected,
          s.spareTableDigest})
        f.add(v);
    f.add(s.retryEnergy.value());
    f.add(s.spareEnergy.value());
    f.add(s.retryLatency.value());
    f.add(rmem.totalAccessEnergy().value());
    const sram::BankedMemory &mem = rmem.memory();
    for (int b = 0; b < mem.banks(); ++b) {
        const sram::BankCounters &c = mem.bankCounters(b);
        f.add(c.reads);
        f.add(c.writes);
        f.add(c.boostEvents);
        f.add(c.accessEnergy.value());
        f.add(c.boostEnergy.value());
        f.add(static_cast<std::uint64_t>(rmem.standingLevel(b)));
    }
}

struct GoldenCase
{
    bool clustered;
    int policy; // 0 open loop, 1 closed StepUp, 2 closed MaxOut
    double vdd;
};

resilience::ResiliencePolicy
policyOf(int which)
{
    switch (which) {
      case 0:
        return resilience::ResiliencePolicy::openLoop(0);
      case 1:
        return resilience::ResiliencePolicy::closedLoop(
            3, resilience::EscalationPolicy::StepUp);
      default:
        return resilience::ResiliencePolicy::closedLoop(
            3, resilience::EscalationPolicy::MaxOut);
    }
}

/** Stage `src` twice through a fresh 16-bank weight memory; digest of
 *  the staged weights, residual flips and memory state after each. */
std::uint64_t
stagingDigest(const GoldenCase &c, dnn::Network &src)
{
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech, failure);
    resilience::ResilientMemory rmem(mem, ctx, policyOf(c.policy));
    rmem.reseed(Rng(77).split(4000));
    const sram::VulnerabilityMap map =
        c.clustered ? sram::VulnerabilityMap(11, 0, sram::MapModel::Clustered,
                                             sram::ClusterParams{})
                    : sram::VulnerabilityMap(11, 0);
    dnn::Network dst = src.clone();
    Fnv f;
    for (int pass = 0; pass < 2; ++pass) {
        f.add(corruptNetworkResilient(dst, src, rmem, Volt(c.vdd), map));
        hashNetwork(f, dst);
        hashMemory(f, rmem);
    }
    return f.h;
}

TEST(ResilientStagingGolden, DigestsMatchThePerBitReadPath)
{
    Rng rng(7);
    dnn::Network net = dnn::buildMnistFc(rng);

    constexpr std::array<double, 3> kVdds{0.42, 0.46, 0.50};
    // Recorded with the per-bit read path (isFaulty per cell, loop
    // SECDED codec, per-batch re-quantization).
    constexpr std::array<std::uint64_t, 18> kGolden{
        // iid; rows open loop, closed StepUp, closed MaxOut; columns
        // the three supplies.
        0xe76c29b6710614faull, 0x005a82bd95d9decfull, 0xaad40a9bfa0dc543ull,
        0x3c6139d04977ff10ull, 0x8463af32975c2d92ull, 0xaad40a9bfa0dc543ull,
        0x643eb770d6ab0a1full, 0x97615d75bf09d12eull, 0xaad40a9bfa0dc543ull,
        // clustered, same layout.
        0xbea63fd9953f5e4aull, 0x1923111f6c6a1babull, 0xf6e588d00ce13380ull,
        0x5270ae07aa76b1d3ull, 0x45fa9c2290664191ull, 0x92d5047f71f396fdull,
        0x19d6374fa4fcaa36ull, 0xb030f849dfdd15dfull, 0x83ab42d780ace0b4ull};
    std::size_t i = 0;
    for (bool clustered : {false, true}) {
        for (int policy = 0; policy < 3; ++policy) {
            for (double vdd : kVdds) {
                const std::uint64_t d =
                    stagingDigest({clustered, policy, vdd}, net);
                char hex[32];
                std::snprintf(hex, sizeof hex, "0x%016llx",
                              static_cast<unsigned long long>(d));
                EXPECT_EQ(d, kGolden[i])
                    << (clustered ? "clustered" : "iid") << " policy "
                    << policy << " vdd " << vdd << ": got " << hex;
                ++i;
            }
        }
    }
}

/** Everything observable about a wrapper and its memory, doubles as
 *  bits: the snapshot (spare digest included), every bank counter,
 *  standing level and EWMA rate, the monitor's totals and every stored
 *  word. */
std::vector<std::uint64_t>
stateOf(const resilience::ResilientMemory &rmem)
{
    const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
    const resilience::ResilienceStats s = rmem.snapshot();
    std::vector<std::uint64_t> v{
        s.reads, s.cleanReads, s.correctedReads, s.retriedReads, s.retries,
        s.escalations, s.standingRaises, s.quarantines, s.spareReads,
        s.spareExhausted, s.uncorrected, s.spareTableDigest,
        bits(s.retryEnergy.value()), bits(s.spareEnergy.value()),
        bits(s.retryLatency.value()), bits(rmem.totalAccessEnergy().value()),
        rmem.monitor().accesses(), rmem.monitor().raises()};
    const sram::BankedMemory &mem = rmem.memory();
    for (int b = 0; b < mem.banks(); ++b) {
        const sram::BankCounters &c = mem.bankCounters(b);
        for (std::uint64_t x :
             {c.reads, c.writes, c.boostEvents, bits(c.accessEnergy.value()),
              bits(c.boostEnergy.value()),
              static_cast<std::uint64_t>(rmem.standingLevel(b)),
              static_cast<std::uint64_t>(mem.boostLevel(b)),
              bits(rmem.monitor().rate(b))})
            v.push_back(x);
    }
    for (std::uint32_t a = 0; a < mem.words(); ++a)
        v.push_back(mem.peek(a));
    return v;
}

/** Two identically built memories with the same seed: one stages with
 *  stageGroups, the other with writeEncoded + readWord per codeword. */
class StagingPair
{
  public:
    StagingPair(int banks, const resilience::ResiliencePolicy &policy)
        : failure_(ctx_.failure),
          bulkMem_("weight_mem", banks, ctx_.design, ctx_.tech, failure_),
          wordMem_("weight_mem", banks, ctx_.design, ctx_.tech, failure_),
          bulk_(bulkMem_, ctx_, policy), word_(wordMem_, ctx_, policy)
    {
        bulk_.reseed(Rng(21).split(9));
        word_.reseed(Rng(21).split(9));
    }

    /** Stage n random codewords from `cursor` on both sides, the bulk
     *  side in calls of `chunk` codewords; require equal read-backs and
     *  equal state. The bulk side's read-backs are the groups with its
     *  reported slow codewords put in; the report must ascend and name
     *  exactly the codewords that take the per-word path. */
    void
    stage(std::uint64_t cursor, std::size_t n, double vdd,
          const sram::VulnerabilityMap &map, std::size_t chunk,
          std::uint64_t seed)
    {
        Rng gen(seed);
        std::vector<std::uint64_t> groups(n);
        std::vector<std::uint8_t> checks(n);
        for (std::size_t k = 0; k < n; ++k) {
            groups[k] = gen.next();
            checks[k] = sram::SecdedCodec::encode(groups[k]);
        }
        std::vector<std::uint64_t> got = groups;
        std::vector<std::size_t> reported;
        std::vector<resilience::SlowRead> slow;
        for (std::size_t k = 0; k < n; k += chunk) {
            const std::size_t len = std::min(chunk, n - k);
            bulk_.stageGroups(cursor + k, groups.data() + k,
                              checks.data() + k, len, Volt(vdd), map, slow);
            for (const resilience::SlowRead &r : slow) {
                ASSERT_LT(r.index, len);
                ASSERT_TRUE(reported.empty() || k + r.index > reported.back())
                    << "report not ascending at " << k + r.index;
                reported.push_back(k + r.index);
                got[k + r.index] = r.data;
            }
        }
        const std::uint32_t words = wordMem_.words();
        std::vector<std::uint64_t> want(n);
        std::vector<std::size_t> per_word;
        for (std::size_t k = 0; k < n; ++k) {
            const auto addr = static_cast<std::uint32_t>((cursor + k) % words);
            if (takesPerWordPath(addr, vdd, map))
                per_word.push_back(k);
            word_.writeEncoded(addr, groups[k], checks[k], Volt(vdd));
            want[k] = word_.readWord(addr, Volt(vdd), map).data;
        }
        ASSERT_EQ(got, want) << "vdd " << vdd << " cursor " << cursor;
        ASSERT_EQ(reported, per_word) << "vdd " << vdd << " cursor " << cursor;
        ASSERT_EQ(stateOf(bulk_), stateOf(word_))
            << "vdd " << vdd << " cursor " << cursor;
    }

    /** Program a bank's BIC level behind both wrappers' backs. */
    void
    setBoostLevel(int bank, int level)
    {
        bulkMem_.setBoostLevel(bank, level);
        wordMem_.setBoostLevel(bank, level);
    }

    resilience::ResilienceStats stats() const { return word_.snapshot(); }

    /** Mask tables the bulk side's bank 0 has packed. */
    std::uint64_t maskPacks() const { return bulkMem_.bank(0).maskPacks(); }

    double ewmaRate(int bank) const { return word_.monitor().rate(bank); }

    const resilience::SpareRowTable &spares() const
    {
        return word_.spares();
    }

  private:
    /** Whether the codeword about to be staged at `addr` needs the
     *  per-word path, read off the word side's state (equal to the
     *  bulk side's): its bank's BIC level is off the standing level,
     *  its row holds a spare, or one of its data or check cells is
     *  faulty at the standing level. */
    bool
    takesPerWordPath(std::uint32_t addr, double vdd,
                     const sram::VulnerabilityMap &map)
    {
        // Where ResilientMemory lays out its check cells.
        constexpr std::uint64_t kCheckRegion = 1ull << 38;
        const int bank = wordMem_.bankOf(addr);
        if (wordMem_.boostLevel(bank) != word_.standingLevel(bank) ||
            word_.spares().find(addr) >= 0)
            return true;
        const sram::SramBank::OperatingPoint &p = wordMem_.accessPoint(
            bank, Volt(vdd), map, kCheckRegion + wordMem_.cellBase());
        return p.masks && !p.masks->at(addr % sram::SramBank::kWords).empty();
    }

    core::SimContext ctx_ = core::SimContext::standard();
    sram::FailureRateModel failure_;
    sram::BankedMemory bulkMem_, wordMem_;
    resilience::ResilientMemory bulk_, word_;
};

TEST(StageGroups, MatchesThePerWordPipelineUnderEveryPolicy)
{
    // Open loop, closed StepUp and closed MaxOut over both map models
    // and three supplies, each memory staged twice: the second staging
    // runs on the first one's levels, EWMAs, spares and streams.
    const sram::VulnerabilityMap iid(11, 0);
    const sram::VulnerabilityMap clustered(11, 0, sram::MapModel::Clustered,
                                           sram::ClusterParams{});
    std::uint64_t raises = 0, slow = 0, fast = 0;
    for (const sram::VulnerabilityMap *map : {&iid, &clustered}) {
        for (int policy = 0; policy < 3; ++policy) {
            for (double vdd : {0.42, 0.46, 0.50}) {
                StagingPair pair(4, policyOf(policy));
                pair.stage(0, 5000, vdd, *map, 512, 1);
                pair.stage(123, 4500, vdd, *map, 1000, 2);
                const resilience::ResilienceStats s = pair.stats();
                raises += s.standingRaises;
                slow += s.reads - s.cleanReads;
                fast += s.cleanReads;
            }
        }
    }
    // Both paths and mid-run standing raises were exercised.
    EXPECT_GT(raises, 0u);
    EXPECT_GT(slow, 0u);
    EXPECT_GT(fast, 0u);
}

TEST(StageGroups, MatchesThroughQuarantineUntilSparesRunOut)
{
    // No retries and no raises: every uncorrectable read counts
    // against its row, so rows are quarantined until the two spares
    // are gone. Three passes over the memory revisit every row. At
    // 0.50 V the quarantined primary rows read clean, but their reads
    // must still go to the spares.
    auto policy = resilience::ResiliencePolicy::closedLoop(
        0, resilience::EscalationPolicy::Hold, 2);
    policy.raiseThreshold = 1.0;
    StagingPair pair(2, policy);
    const sram::VulnerabilityMap map(12, 0);
    pair.stage(5, 3 * 2048 + 77, 0.40, map, 700, 3);
    const std::uint64_t spare_reads = pair.stats().spareReads;
    pair.stage(5, 2048, 0.50, map, 2048, 4);
    EXPECT_GT(pair.stats().spareReads, spare_reads);
    pair.stage(5, 2048, 0.40, map, 2048, 5);
    const resilience::ResilienceStats s = pair.stats();
    EXPECT_EQ(s.quarantines, 2u);
    EXPECT_GT(s.spareExhausted, 0u);
    EXPECT_GT(s.spareReads, 0u);
}

TEST(StageGroups, MatchesAcrossWrapsOddLengthsAndMovedLevels)
{
    // Start cursors past the end of the memory that wrap inside a
    // call, lengths and chunks off the bank size, and banks whose BIC
    // level was moved away from the standing level between stagings.
    StagingPair pair(3, resilience::ResiliencePolicy::closedLoop());
    const sram::VulnerabilityMap map(13, 1);
    const std::uint64_t words = 3 * sram::SramBank::kWords;
    pair.stage(3 * words - 700, 2 * 1024 + 333, 0.46, map, 37, 5);
    pair.setBoostLevel(1, 3);
    pair.setBoostLevel(2, 1);
    pair.stage(words + 1000, 1500, 0.46, map, 1, 6);
    pair.setBoostLevel(0, 2);
    pair.stage(words - 1, 4000, 0.44, map, 999, 7);
}

TEST(StageGroups, MatchesWhenMaskTablesAreEvicted)
{
    // Ten distinct supplies give ten operating points per level, each
    // with its own mask table; the first supplies then come back and
    // must find theirs.
    StagingPair pair(2, resilience::ResiliencePolicy::closedLoop(
                            3, resilience::EscalationPolicy::MaxOut));
    const sram::VulnerabilityMap map(14, 0);
    std::uint64_t seed = 10;
    std::uint64_t cursor = 0;
    for (double vdd : {0.40, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48,
                       0.49, 0.40, 0.41, 0.45}) {
        pair.stage(cursor, 1100, vdd, map, 512, seed++);
        cursor += 1100;
    }
}

TEST(StageGroups, MatchesWhenTheMemoClearsMidCall)
{
    // One codeword at each of 63 near-fault-free supplies fills the
    // bank's memo to one below its bound; at 0.40 V the standing point
    // fills it, so the first escalated retry starts it over while the
    // walk still reads the faulty words off its hoisted copy of the
    // point.
    StagingPair pair(1, resilience::ResiliencePolicy::closedLoop(
                            3, resilience::EscalationPolicy::MaxOut));
    const sram::VulnerabilityMap map(18, 0);
    for (int i = 0; i < 63; ++i)
        pair.stage(static_cast<std::uint64_t>(i), 1, 0.60 + 0.005 * i, map, 1,
                   100 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(pair.maskPacks(), 63u);
    pair.stage(0, 1024, 0.40, map, 1024, 200);
    EXPECT_GT(pair.stats().escalations, 0u);
    // The memo started over: the first supply's table is packed again.
    const std::uint64_t packs = pair.maskPacks();
    pair.stage(0, 1, 0.60, map, 1, 300);
    EXPECT_EQ(pair.maskPacks(), packs + 1);
}

TEST(StageGroups, MatchesWhenASpanEndsBeforeABankOffItsStandingLevel)
{
    // At 0.50 V bank 0's tail is one clean span up to the bank end;
    // bank 1's BIC was moved off its standing level, so its first
    // codeword takes the per-word path, which restores the BIC, and
    // the rest of the bank is looked up again.
    StagingPair pair(3, resilience::ResiliencePolicy::closedLoop());
    const sram::VulnerabilityMap map(16, 0);
    pair.setBoostLevel(1, 2);
    pair.stage(700, 1500, 0.50, map, 2048, 8);
    pair.setBoostLevel(2, 1);
    pair.stage(1500, 1000, 0.50, map, 300, 9);
    EXPECT_GT(pair.stats().cleanReads, 0u);
}

TEST(StageGroups, MatchesWhenCleanSpansDecayABoostedBanksEwma)
{
    // A standing level of 1 charges boost energy on every access, and
    // at 0.36 V the faulty codewords keep each bank's EWMA above 0, so
    // clean spans start with an EWMA to decay and a boost chain to add.
    auto policy = resilience::ResiliencePolicy::closedLoop();
    policy.startLevel = 1;
    policy.raiseThreshold = 1.0;
    StagingPair pair(2, policy);
    const sram::VulnerabilityMap map(17, 0);
    pair.stage(0, 4096, 0.36, map, 512, 10);
    const resilience::ResilienceStats s = pair.stats();
    EXPECT_GT(s.cleanReads, 0u);
    EXPECT_GT(s.reads - s.cleanReads, 0u);
    EXPECT_GT(pair.ewmaRate(0) + pair.ewmaRate(1), 0.0);
}

TEST(StageGroups, MatchesWithASparedRowInsideACleanSpan)
{
    // Quarantine rows at 0.40 V, then stage at 0.50 V, where the rows
    // around the spared ones read clean: each spared row sits inside a
    // clean span and must still be read from its spare, in every
    // chunking.
    for (std::size_t chunk : {std::size_t{1}, std::size_t{37},
                              std::size_t{2048}}) {
        auto policy = resilience::ResiliencePolicy::closedLoop(
            0, resilience::EscalationPolicy::Hold, 2);
        policy.raiseThreshold = 1.0;
        StagingPair pair(2, policy);
        const sram::VulnerabilityMap map(12, 0);
        pair.stage(5, 2 * 2048, 0.40, map, 700, 11);
        const resilience::SpareRowTable &spares = pair.spares();
        ASSERT_EQ(spares.used(), 2);
        const std::uint32_t first =
            std::min(spares.row(0).addr, spares.row(1).addr);
        const std::uint32_t last =
            std::max(spares.row(0).addr, spares.row(1).addr);
        const resilience::ResilienceStats before = pair.stats();
        pair.stage(first + 2 * 2048 - 3, last - first + 7, 0.50, map, chunk,
                   12);
        const resilience::ResilienceStats after = pair.stats();
        EXPECT_EQ(after.spareReads - before.spareReads, 2u)
            << "chunk " << chunk;
        EXPECT_EQ(after.reads - before.reads,
                  after.cleanReads - before.cleanReads)
            << "chunk " << chunk;
        pair.stage(5, 2048, 0.50, map, chunk, 13);
    }
}

TEST(ResilientStaging, CopiesEveryNonWeightParameter)
{
    // Staging overwrites every weight tensor and copies the rest from
    // the source: biases a scratch network drifted on are restored.
    Rng rng(10);
    dnn::Network src = dnn::buildMnistFc(rng);
    dnn::Network dst = src.clone();
    for (auto &p : dst.params())
        (*p.value)[0] += 1.0f;
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech, failure);
    resilience::ResilientMemory rmem(
        mem, ctx, resilience::ResiliencePolicy::openLoop(3));
    rmem.reseed(Rng(11));
    EXPECT_EQ(corruptNetworkResilient(dst, src, rmem, Volt(0.50),
                                      sram::VulnerabilityMap(15, 0)),
              0u);
    const StagedWeights image = stageWeights(src);
    auto dst_params = dst.params();
    auto src_params = src.params();
    std::size_t weight = 0;
    for (std::size_t i = 0; i < src_params.size(); ++i) {
        const dnn::Tensor &want = src_params[i].isWeight
                                      ? image.layers[weight++].clean
                                      : *src_params[i].value;
        ASSERT_EQ(dst_params[i].value->numel(), want.numel());
        for (std::size_t j = 0; j < want.numel(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint32_t>((*dst_params[i].value)[j]),
                      std::bit_cast<std::uint32_t>(want[j]))
                << src_params[i].name << "[" << j << "]";
    }
}

TEST(ResilientStaging, OneImageServesEveryStaging)
{
    // A staging image reused across calls (as a serving run and a
    // Monte-Carlo point reuse it) stages exactly what a per-call image
    // stages.
    Rng rng(8);
    dnn::Network src = dnn::buildMnistFc(rng);
    const StagedWeights image = stageWeights(src);
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(12, 3);
    std::array<std::uint64_t, 2> digests{};
    for (int reuse = 0; reuse < 2; ++reuse) {
        sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech,
                               failure);
        resilience::ResilientMemory rmem(
            mem, ctx, resilience::ResiliencePolicy::closedLoop());
        rmem.reseed(Rng(9));
        dnn::Network dst = src.clone();
        Fnv f;
        for (double vdd : {0.44, 0.42}) {
            f.add(reuse ? corruptNetworkResilient(dst, src, image, rmem,
                                                  Volt(vdd), map)
                        : corruptNetworkResilient(dst, src, rmem, Volt(vdd),
                                                  map));
            hashNetwork(f, dst);
            hashMemory(f, rmem);
        }
        digests[static_cast<std::size_t>(reuse)] = f.h;
    }
    EXPECT_EQ(digests[0], digests[1]);
}

/** Require every weight tensor of `got` bitwise equal to `want`'s. */
void
expectSameWeights(dnn::Network &got, dnn::Network &want, int batch)
{
    auto got_weights = got.weightParams();
    auto want_weights = want.weightParams();
    ASSERT_EQ(got_weights.size(), want_weights.size());
    for (std::size_t l = 0; l < got_weights.size(); ++l) {
        const dnn::Tensor &g = *got_weights[l].value;
        const dnn::Tensor &w = *want_weights[l].value;
        ASSERT_EQ(g.shape(), w.shape());
        for (std::size_t j = 0; j < w.numel(); ++j)
            ASSERT_EQ(std::bit_cast<std::uint32_t>(g[j]),
                      std::bit_cast<std::uint32_t>(w[j]))
                << "batch " << batch << " layer " << l << " [" << j << "]";
    }
}

TEST(ResilientStaging, UndoRecordStagesWhatAFullCopyStages)
{
    // One serving slot stages 24 batches in a row, restoring only what
    // its undo record names; each batch is also staged into a fresh
    // network with the full clean copy, on a twin memory. vdd cycles
    // 0.44, 0.36, 0.50 V and the start level 0..2, so batches with many
    // residual flips are followed by ones with none.
    Rng rng(20);
    dnn::Network src = dnn::buildMnistFc(rng);
    const StagedWeights image = stageWeights(src);
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(18, 0);
    sram::BankedMemory slot_mem("weight_mem", 16, ctx.design, ctx.tech,
                                failure);
    sram::BankedMemory fresh_mem("weight_mem", 16, ctx.design, ctx.tech,
                                 failure);
    resilience::ResilientMemory slot_rmem(
        slot_mem, ctx, resilience::ResiliencePolicy::closedLoop());
    resilience::ResilientMemory fresh_rmem(
        fresh_mem, ctx, resilience::ResiliencePolicy::closedLoop());
    dnn::Network slot = src.clone();
    StagingUndo undo;
    std::uint64_t previous = 0;
    bool none_after_many = false;
    for (int b = 0; b < 24; ++b) {
        const double vdd = std::array{0.44, 0.36, 0.50}[b % 3];
        const int level = b / 3 % 3;
        for (resilience::ResilientMemory *rmem : {&slot_rmem, &fresh_rmem}) {
            rmem->memory().resetCounters();
            rmem->resetRuntimeState(level);
            rmem->reseed(Rng(22).split(static_cast<std::uint64_t>(b)));
        }
        dnn::Network fresh = src.clone();
        const std::uint64_t got = corruptNetworkResilient(
            slot, src, image, slot_rmem, Volt(vdd), map, &undo);
        const std::uint64_t want = corruptNetworkResilient(
            fresh, src, image, fresh_rmem, Volt(vdd), map);
        ASSERT_EQ(got, want) << "batch " << b;
        expectSameWeights(slot, fresh, b);
        if (HasFatalFailure())
            return;
        EXPECT_EQ(undo.image, image.serial);
        if (got == 0 && previous >= 100)
            none_after_many = true;
        previous = got;
    }
    EXPECT_TRUE(none_after_many);
}

TEST(ResilientStaging, UndoRecordOfAnotherImageFallsBackToAFullCopy)
{
    // An empty record, then one made against another build of the
    // image (even of the same weights), does not apply: the staging
    // copies every clean tensor.
    Rng rng(21);
    dnn::Network src = dnn::buildMnistFc(rng);
    const StagedWeights first = stageWeights(src);
    const StagedWeights second = stageWeights(src);
    EXPECT_NE(first.serial, 0u);
    EXPECT_NE(first.serial, second.serial);
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(18, 0);
    sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech, failure);
    resilience::ResilientMemory rmem(
        mem, ctx, resilience::ResiliencePolicy::closedLoop());
    dnn::Network slot = src.clone();
    dnn::Network fresh = src.clone();
    StagingUndo undo;
    for (const StagedWeights *image : {&first, &second}) {
        // A stale weight in a group the record does not name must not
        // survive.
        std::size_t stale = 0;
        while (std::find(undo.groups.begin(), undo.groups.end(), stale) !=
               undo.groups.end())
            ++stale;
        (*slot.weightParams()[0].value)[4 * stale] += 1.0f;
        mem.resetCounters();
        rmem.resetRuntimeState();
        rmem.reseed(Rng(23));
        const std::uint64_t got = corruptNetworkResilient(
            slot, src, *image, rmem, Volt(0.40), map, &undo);
        mem.resetCounters();
        rmem.resetRuntimeState();
        rmem.reseed(Rng(23));
        EXPECT_EQ(got, corruptNetworkResilient(fresh, src, *image, rmem,
                                               Volt(0.40), map));
        expectSameWeights(slot, fresh, 0);
        EXPECT_EQ(undo.image, image->serial);
        EXPECT_FALSE(undo.groups.empty());
    }
}

TEST(ResilientStaging, UndoRecordRestoresEveryLayersEdgeGroups)
{
    // Layers of 35, 15 and 6 weights end in partly padded groups. A
    // record naming each layer's first and last group, over weights
    // that differ from the clean tensors exactly there, stages what a
    // full copy stages.
    Rng rng(24);
    dnn::Network src;
    src.addLayer<dnn::Dense>(7, 5, rng, "fc1");
    src.addLayer<dnn::Dense>(5, 3, rng, "fc2");
    src.addLayer<dnn::Dense>(3, 2, rng, "fc3");
    const StagedWeights image = stageWeights(src);
    dnn::Network slot = src.clone();
    dnn::Network fresh = src.clone();
    StagingUndo undo;
    undo.image = image.serial;
    auto slot_weights = slot.weightParams();
    for (std::size_t l = 0; l < image.layers.size(); ++l) {
        const StagedWeights::Layer &layer = image.layers[l];
        dnn::Tensor &w = *slot_weights[l].value;
        w = layer.clean;
        const std::size_t last = layer.firstGroup + (layer.words - 1) / 4;
        for (const std::size_t g : {layer.firstGroup, last}) {
            undo.groups.push_back(g);
            for (std::size_t e = 4 * (g - layer.firstGroup);
                 e < std::min(layer.words, 4 * (g - layer.firstGroup) + 4);
                 ++e)
                w[e] = 100.0f;
        }
    }
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(18, 0);
    std::array<std::uint64_t, 2> flips{};
    for (int full = 0; full < 2; ++full) {
        sram::BankedMemory mem("weight_mem", 1, ctx.design, ctx.tech,
                               failure);
        resilience::ResilientMemory rmem(
            mem, ctx, resilience::ResiliencePolicy::closedLoop());
        rmem.reseed(Rng(25));
        flips[static_cast<std::size_t>(full)] =
            full ? corruptNetworkResilient(fresh, src, image, rmem,
                                           Volt(0.50), map)
                 : corruptNetworkResilient(slot, src, image, rmem,
                                           Volt(0.50), map, &undo);
    }
    EXPECT_EQ(flips[0], flips[1]);
    expectSameWeights(slot, fresh, 0);
}

TEST(StagedWeightsCache, RebuildsOnlyWhenAWeightChanges)
{
    // The key is every weight tensor's shape and bits: the same
    // weights keep the image, one flipped bit rebuilds it, and
    // flipping it back rebuilds it again, bitwise as a fresh build.
    Rng rng(22);
    dnn::Network src = dnn::buildMnistFc(rng);
    StagedWeightsCache cache;
    const std::uint64_t first = cache.update(src).serial;
    EXPECT_EQ(cache.update(src).serial, first);
    EXPECT_EQ(cache.builds(), 1u);

    float &w = (*src.weightParams()[1].value)[7];
    const float original = w;
    w = std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ 1u);
    const StagedWeights &changed = cache.update(src);
    EXPECT_EQ(cache.builds(), 2u);
    EXPECT_NE(changed.serial, first);
    EXPECT_EQ(changed.groups, stageWeights(src).groups);

    w = original;
    const StagedWeights &restored = cache.update(src);
    EXPECT_EQ(cache.builds(), 3u);
    const StagedWeights fresh = stageWeights(src);
    EXPECT_EQ(restored.groups, fresh.groups);
    EXPECT_EQ(restored.checks, fresh.checks);
    ASSERT_EQ(restored.layers.size(), fresh.layers.size());
    for (std::size_t l = 0; l < fresh.layers.size(); ++l)
        EXPECT_EQ(0, std::memcmp(restored.layers[l].clean.data(),
                                 fresh.layers[l].clean.data(),
                                 fresh.layers[l].clean.numel() *
                                     sizeof(float)));

    // Biases are not in the image: changing one keeps it.
    for (auto &p : src.params()) {
        if (!p.isWeight) {
            (*p.value)[0] += 1.0f;
            break;
        }
    }
    cache.update(src);
    EXPECT_EQ(cache.builds(), 3u);
}

TEST(ResilientStaging, CheckCellsFlipWithTheirOwnBanksProbability)
{
    // Regression: check cells used to flip with bank 0's probability
    // whatever bank the word lived in. With bank 1 set to never flip,
    // none of its 72 cells may flip, so every bank-1 read is clean,
    // while bank 0 (p = 0.5) visibly corrupts at the same supply.
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    sram::BankedMemory mem("two_banks", 2, ctx.design, ctx.tech, failure);
    mem.bank(0).setFlipProb(0.5);
    mem.bank(1).setFlipProb(0.0);
    resilience::ResilientMemory rmem(
        mem, ctx, resilience::ResiliencePolicy::openLoop(0));
    rmem.reseed(Rng(4));
    const sram::VulnerabilityMap map(13, 0);
    const Volt vdd(0.42);
    Rng data(5);
    for (std::uint32_t a = 0; a < mem.words(); ++a)
        rmem.writeWord(a, data.next(), vdd);

    const std::uint32_t bank_words = sram::SramBank::kWords;
    for (std::uint32_t a = bank_words; a < 2 * bank_words; ++a)
        rmem.readWord(a, vdd, map);
    resilience::ResilienceStats s = rmem.snapshot();
    EXPECT_EQ(s.reads, bank_words);
    EXPECT_EQ(s.cleanReads, s.reads);

    for (std::uint32_t a = 0; a < bank_words; ++a)
        rmem.readWord(a, vdd, map);
    s = rmem.snapshot();
    EXPECT_GT(s.reads - s.cleanReads, 0u);
}

} // namespace
} // namespace vboost::fi

namespace vboost::sram {
namespace {

TEST(WordFaultMasks, FlipMaskedDrawsLikeThePerCellLoop)
{
    Rng gen(31);
    for (double p : {0.0, 0.25, 0.5, 1.0}) {
        for (int i = 0; i < 20000; ++i) {
            // Sparse, dense and empty masks alike.
            const int density = i % 3;
            WordMask mask;
            mask.data = density == 0   ? gen.next() & gen.next() & gen.next()
                        : density == 1 ? gen.next()
                                       : 0;
            mask.check = static_cast<std::uint8_t>(gen.next());
            const std::uint64_t data = gen.next();
            const auto check = static_cast<std::uint8_t>(gen.next());
            const std::uint64_t seed = gen.next();

            std::uint64_t want_data = data;
            std::uint8_t want_check = check;
            int want_flips = 0;
            Rng loop(seed);
            for (int b = 0; b < 64; ++b) {
                if (((mask.data >> b) & 1u) && loop.bernoulli(p)) {
                    want_data ^= 1ull << b;
                    ++want_flips;
                }
            }
            for (int b = 0; b < 8; ++b) {
                if (((mask.check >> b) & 1u) && loop.bernoulli(p)) {
                    want_check =
                        static_cast<std::uint8_t>(want_check ^ (1u << b));
                    ++want_flips;
                }
            }

            std::uint64_t got_data = data;
            std::uint8_t got_check = check;
            Rng masked(seed);
            const int got_flips =
                flipMasked(got_data, got_check, mask, p, masked);
            ASSERT_EQ(got_data, want_data);
            ASSERT_EQ(got_check, want_check);
            ASSERT_EQ(got_flips, want_flips);
            // Same number of draws: the streams stay in step.
            ASSERT_EQ(masked.next(), loop.next());
        }
    }
}

TEST(WordFaultMasks, BankMasksMatchPerCellQueriesForEveryMapKey)
{
    // One bank reads under maps that share a seed but differ in model,
    // cluster params or fail probability. Masks kept for too little of
    // the map's identity would hand one map's faults to another; every
    // read must match the per-cell isFaulty truth instead.
    const auto ctx = core::SimContext::standard();
    const FailureRateModel failure(ctx.failure);
    SramBank bank(3, ctx.design, ctx.tech, failure, 4);
    const VulnerabilityMap iid(5, 0);
    const VulnerabilityMap clustered(5, 0, MapModel::Clustered,
                                     ClusterParams{});
    ClusterParams rows;
    rows.rowDefectProb = 0.1;
    const VulnerabilityMap clustered_rows(5, 0, MapModel::Clustered, rows);
    const std::uint64_t check_base = 1ull << 38;

    EXPECT_NE(iid.key(), clustered.key());
    EXPECT_NE(clustered.key(), clustered_rows.key());
    EXPECT_EQ(iid.key(), VulnerabilityMap(5, 0).key());

    struct Step
    {
        const VulnerabilityMap *map;
        double vdd;
        std::uint64_t checkBase;
    };
    const std::vector<Step> steps{
        {&iid, 0.42, check_base},
        {&clustered, 0.42, check_base},
        {&iid, 0.42, check_base},
        {&clustered_rows, 0.42, check_base},
        {&clustered, 0.46, check_base},
        {&clustered, 0.42, WordFaultMasks::kNoCheckCells},
        {&clustered, 0.42, check_base},
    };
    std::uint32_t iid_vs_clustered = 0;
    std::vector<WordMask> first_iid(SramBank::kWords);
    for (std::size_t s = 0; s < steps.size(); ++s) {
        const Step &step = steps[s];
        const double p = failure.rate(
            bank.effectiveVoltage(Volt(step.vdd)));
        for (std::uint32_t w = 0; w < SramBank::kWords; ++w) {
            const SramBank::RawRead r =
                bank.readRaw(w, Volt(step.vdd), *step.map, step.checkBase);
            WordMask want;
            for (std::uint32_t b = 0; b < 64; ++b) {
                if (step.map->isFaulty(bank.cellIndex(w) + b, p))
                    want.data |= 1ull << b;
            }
            if (step.checkBase != WordFaultMasks::kNoCheckCells) {
                for (std::uint32_t b = 0; b < 8; ++b) {
                    if (step.map->isFaulty(step.checkBase + 8ull * w + b, p))
                        want.check = static_cast<std::uint8_t>(
                            want.check | (1u << b));
                }
            }
            ASSERT_EQ(r.mask.data, want.data) << "step " << s << " word " << w;
            ASSERT_EQ(r.mask.check, want.check)
                << "step " << s << " word " << w;
            if (s == 0)
                first_iid[w] = r.mask;
            if (s == 1 && r.mask.data != first_iid[w].data)
                ++iid_vs_clustered;
        }
    }
    EXPECT_GT(iid_vs_clustered, 0u);
}

TEST(WordFaultMasks, BankPacksOncePerMapFailProbabilityAndCheckBase)
{
    // A bank cycled through ten supplies and back packs one table per
    // (map, fail probability, check base) and reads the same masks
    // from it every time. A map of another seed, model or cluster
    // params, or another check base, packs anew; a map equal to the
    // last one in all but its object does not, nor does a supply at
    // the fail probability of one already packed.
    const auto ctx = core::SimContext::standard();
    const FailureRateModel failure(ctx.failure);
    SramBank bank(1, ctx.design, ctx.tech, failure, 2);
    const VulnerabilityMap iid(7, 0);
    const VulnerabilityMap other_seed(8, 0);
    const VulnerabilityMap clustered(7, 0, MapModel::Clustered,
                                     ClusterParams{});
    ClusterParams rows;
    rows.rowDefectProb = 0.1;
    const VulnerabilityMap clustered_rows(7, 0, MapModel::Clustered, rows);
    const std::uint64_t check_base = 1ull << 38;
    const std::vector<double> vdds{0.40, 0.41, 0.42, 0.43, 0.44,
                                   0.45, 0.46, 0.47, 0.48, 0.49};
    for (double vdd : vdds)
        ASSERT_GT(bank.failProbAt(Volt(vdd)), 0.0) << vdd;

    auto cycle = [&](const VulnerabilityMap &map, std::uint64_t base) {
        std::vector<WordMask> masks;
        for (double vdd : vdds) {
            for (std::uint32_t w = 0; w < SramBank::kWords; ++w)
                masks.push_back(bank.readRaw(w, Volt(vdd), map, base).mask);
        }
        return masks;
    };
    auto same = [](const std::vector<WordMask> &a,
                   const std::vector<WordMask> &b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          [](WordMask x, WordMask y) {
                              return x.data == y.data && x.check == y.check;
                          });
    };

    const std::vector<WordMask> first = cycle(iid, check_base);
    EXPECT_EQ(bank.maskPacks(), vdds.size());
    for (int pass = 0; pass < 2; ++pass)
        EXPECT_TRUE(same(cycle(iid, check_base), first)) << pass;
    EXPECT_TRUE(same(cycle(VulnerabilityMap(7, 0), check_base), first));
    EXPECT_EQ(bank.maskPacks(), vdds.size());

    std::uint64_t packs = bank.maskPacks();
    const std::vector<std::pair<const VulnerabilityMap *, std::uint64_t>>
        others{{&iid, WordFaultMasks::kNoCheckCells},
               {&iid, check_base + 8 * SramBank::kWords},
               {&other_seed, check_base},
               {&clustered, check_base},
               {&clustered_rows, check_base},
               {&iid, check_base}};
    for (const auto &[map, base] : others) {
        const std::vector<WordMask> masks = cycle(*map, base);
        EXPECT_EQ(bank.maskPacks(), packs + vdds.size());
        packs = bank.maskPacks();
        EXPECT_TRUE(same(cycle(*map, base), masks));
        EXPECT_EQ(bank.maskPacks(), packs);
    }
    EXPECT_TRUE(same(cycle(iid, check_base), first));

    // A boost level moves every supply to another fail probability.
    bank.setBoostLevel(1);
    cycle(iid, check_base);
    EXPECT_EQ(bank.maskPacks(), packs + vdds.size());

    // Below about 0.39 V the rate saturates: two supplies, one table.
    bank.setBoostLevel(0);
    packs = bank.maskPacks();
    ASSERT_EQ(bank.failProbAt(Volt(0.34)), bank.failProbAt(Volt(0.36)));
    for (std::uint32_t w = 0; w < SramBank::kWords; ++w) {
        const WordMask a = bank.readRaw(w, Volt(0.34), iid, check_base).mask;
        const WordMask b = bank.readRaw(w, Volt(0.36), iid, check_base).mask;
        ASSERT_TRUE(a.data == b.data && a.check == b.check) << w;
    }
    EXPECT_EQ(bank.maskPacks(), packs + 1);
}

} // namespace
} // namespace vboost::sram
