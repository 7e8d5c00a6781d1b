/**
 * @file
 * Tests for the multi-tenant inference serving runtime (DESIGN.md §9):
 * bounded-queue admission control, the deterministic dynamic batcher,
 * the Poisson trace generator, the SLO -> operating-point planner with
 * error-rate feedback, and the three acceptance properties of the
 * InferenceServer — bitwise-identical results at any worker count,
 * deterministic typed shedding at the queue bound, and lower-SLO
 * classes never costing more energy per inference than higher ones at
 * the same supply voltage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "serve/batcher.hpp"
#include "serve/planner.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace vboost::serve {
namespace {

constexpr double kFaultFree = 0.9;

/** Monotone accuracy-vs-Vddv stub: 0 below 0.30 V, the fault-free
 *  ceiling above 0.58 V, linear in between. Cheap, deterministic, and
 *  feasible for all three SLO classes at the top of the Vdd grid. */
double
stubAccuracy(Volt vddv)
{
    const double t =
        std::clamp((vddv.value() - 0.30) / 0.28, 0.0, 1.0);
    return kFaultFree * t;
}

InferenceRequest
makeRequest(std::uint64_t id, const std::string &tenant, SloClass slo,
            Tick arrival, std::size_t sample = 0)
{
    InferenceRequest req;
    req.id = id;
    req.tenant = tenant;
    req.slo = slo;
    req.sample = sample;
    req.arrivalTick = arrival;
    return req;
}

// ---------------------------------------------------------------------
// BoundedRequestQueue
// ---------------------------------------------------------------------

TEST(BoundedRequestQueue, ShedsWithTypedReasonsAtTheBounds)
{
    BoundedRequestQueue q(2, 1);
    EXPECT_TRUE(
        q.tryAdmit(makeRequest(0, "a", SloClass::Gold, 0)).admitted);

    // Second "a" request trips the per-tenant quota, not the global
    // bound.
    const auto quota = q.tryAdmit(makeRequest(1, "a", SloClass::Gold, 1));
    EXPECT_FALSE(quota.admitted);
    EXPECT_EQ(quota.reason, ShedReason::TenantQuotaExceeded);

    EXPECT_TRUE(
        q.tryAdmit(makeRequest(2, "b", SloClass::Bronze, 2)).admitted);

    // Queue is now globally full; even a fresh tenant is shed.
    const auto full = q.tryAdmit(makeRequest(3, "c", SloClass::Gold, 3));
    EXPECT_FALSE(full.admitted);
    EXPECT_EQ(full.reason, ShedReason::QueueFull);

    EXPECT_EQ(q.occupancy(), 2u);
    EXPECT_EQ(q.admitted(), 2u);
    EXPECT_EQ(q.shedQueueFull(), 1u);
    EXPECT_EQ(q.shedTenantQuota(), 1u);

    // Closing "a"'s batch frees its slot for admission again.
    q.release("a", 1);
    EXPECT_EQ(q.occupancy(), 1u);
    EXPECT_EQ(q.tenantOccupancy("a"), 0u);
    EXPECT_TRUE(
        q.tryAdmit(makeRequest(4, "a", SloClass::Gold, 4)).admitted);
}

TEST(BoundedRequestQueue, ValidatesConstruction)
{
    EXPECT_THROW(BoundedRequestQueue(0), FatalError);
}

// ---------------------------------------------------------------------
// DynamicBatcher
// ---------------------------------------------------------------------

TEST(DynamicBatcher, ClosesWhenAGroupReachesMaxSize)
{
    DynamicBatcher b({2, 1000});
    EXPECT_FALSE(b.add(makeRequest(0, "a", SloClass::Gold, 10)));
    EXPECT_EQ(b.pendingCount(), 1u);
    const auto batch = b.add(makeRequest(1, "a", SloClass::Gold, 17));
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->seq, 0u);
    EXPECT_EQ(batch->tenant, "a");
    EXPECT_EQ(batch->requests.size(), 2u);
    // A size-close stamps the closing request's arrival instant.
    EXPECT_EQ(batch->formedTick, 17u);
    EXPECT_EQ(b.pendingCount(), 0u);
    EXPECT_FALSE(b.nextDeadline().has_value());
}

TEST(DynamicBatcher, SameTenantDifferentSloNeverShareABatch)
{
    DynamicBatcher b({2, 1000});
    EXPECT_FALSE(b.add(makeRequest(0, "a", SloClass::Gold, 0)));
    // Same tenant, different accuracy contract: separate group.
    EXPECT_FALSE(b.add(makeRequest(1, "a", SloClass::Bronze, 1)));
    EXPECT_EQ(b.pendingCount(), 2u);
    const auto flushed = b.closeDue(DynamicBatcher::kNever);
    ASSERT_EQ(flushed.size(), 2u);
    EXPECT_EQ(flushed[0].requests.size(), 1u);
    EXPECT_EQ(flushed[1].requests.size(), 1u);
}

TEST(DynamicBatcher, DeadlineCloseHappensInDeadlineOrder)
{
    DynamicBatcher b({8, 100});
    b.add(makeRequest(0, "late", SloClass::Gold, 50));
    b.add(makeRequest(1, "early", SloClass::Gold, 10));
    // Nothing is due before the earliest deadline.
    EXPECT_TRUE(b.closeDue(100).empty());
    ASSERT_TRUE(b.nextDeadline().has_value());
    EXPECT_EQ(*b.nextDeadline(), 110u);

    // A late sweep closes both, in (deadline, key) order, and each
    // batch is stamped with its own deadline, not the sweep instant.
    const auto due = b.closeDue(1000);
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(due[0].tenant, "early");
    EXPECT_EQ(due[0].formedTick, 110u);
    EXPECT_EQ(due[1].tenant, "late");
    EXPECT_EQ(due[1].formedTick, 150u);
    EXPECT_EQ(due[0].seq, 0u);
    EXPECT_EQ(due[1].seq, 1u);
}

TEST(DynamicBatcher, ValidatesConfig)
{
    EXPECT_THROW(DynamicBatcher({0, 100}), FatalError);
}

// ---------------------------------------------------------------------
// Poisson trace generator
// ---------------------------------------------------------------------

TEST(PoissonTrace, IsDeterministicAndWellFormed)
{
    TraceConfig cfg;
    cfg.requestsPerTick = 0.002;
    cfg.numRequests = 64;
    cfg.seed = 7;
    cfg.tenants = {{"a", SloClass::Gold, 0.5},
                   {"b", SloClass::Bronze, 0.5}};
    cfg.samplePoolSize = 16;

    const auto t1 = generatePoissonTrace(cfg);
    const auto t2 = generatePoissonTrace(cfg);
    ASSERT_EQ(t1.size(), 64u);
    EXPECT_EQ(t1, t2);

    std::set<std::string> tenants;
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].id, i);
        EXPECT_LT(t1[i].sample, cfg.samplePoolSize);
        if (i > 0) {
            EXPECT_GE(t1[i].arrivalTick, t1[i - 1].arrivalTick);
        }
        tenants.insert(t1[i].tenant);
    }
    // Both 50% tenants appear in 64 draws.
    EXPECT_EQ(tenants.size(), 2u);

    // A different seed moves the arrivals.
    cfg.seed = 8;
    EXPECT_NE(generatePoissonTrace(cfg), t1);
}

/** FNV-1a digest over every field of a trace, in trace order. */
std::uint64_t
traceDigest(const std::vector<InferenceRequest> &trace)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const auto &req : trace) {
        mix(req.id);
        for (const char c : req.tenant)
            mix(static_cast<unsigned char>(c));
        mix(static_cast<std::uint64_t>(req.slo));
        mix(req.sample);
        mix(req.arrivalTick);
    }
    return h;
}

TEST(PoissonTrace, EmptyTenantMixIsRejected)
{
    TraceConfig cfg;
    cfg.tenants = {};
    EXPECT_THROW(generatePoissonTrace(cfg), FatalError);
}

TEST(PoissonTrace, SharesAreNormalized)
{
    // Only the relative shares matter: scaling the whole mix changes
    // nothing about the generated trace.
    TraceConfig cfg;
    cfg.requestsPerTick = 0.002;
    cfg.numRequests = 48;
    cfg.seed = 11;
    cfg.samplePoolSize = 8;
    cfg.tenants = {{"a", SloClass::Gold, 3.0},
                   {"b", SloClass::Bronze, 1.0}};
    const auto base = generatePoissonTrace(cfg);

    cfg.tenants = {{"a", SloClass::Gold, 0.75},
                   {"b", SloClass::Bronze, 0.25}};
    EXPECT_EQ(generatePoissonTrace(cfg), base);

    cfg.tenants = {{"a", SloClass::Gold, 300.0},
                   {"b", SloClass::Bronze, 100.0}};
    EXPECT_EQ(generatePoissonTrace(cfg), base);
}

TEST(PoissonTrace, SingleRequestTraceIsWellFormed)
{
    TraceConfig cfg;
    cfg.requestsPerTick = 0.001;
    cfg.numRequests = 1;
    cfg.seed = 3;
    cfg.tenants = {{"solo", SloClass::Silver, 1.0}};
    cfg.samplePoolSize = 4;
    const auto trace = generatePoissonTrace(cfg);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].id, 0u);
    EXPECT_EQ(trace[0].tenant, "solo");
    EXPECT_EQ(trace[0].slo, SloClass::Silver);
    EXPECT_LT(trace[0].sample, cfg.samplePoolSize);
}

TEST(PoissonTrace, DigestIsSeedStable)
{
    // The digest of a trace is a pure function of the config: equal
    // for repeated generations (no hidden global state), different
    // across seeds.
    TraceConfig cfg;
    cfg.requestsPerTick = 0.002;
    cfg.numRequests = 96;
    cfg.seed = 21;
    cfg.tenants = {{"a", SloClass::Gold, 0.5},
                   {"b", SloClass::Bronze, 0.5}};
    cfg.samplePoolSize = 16;
    const auto d1 = traceDigest(generatePoissonTrace(cfg));
    const auto d2 = traceDigest(generatePoissonTrace(cfg));
    EXPECT_EQ(d1, d2);

    TraceConfig other = cfg;
    other.seed = 22;
    EXPECT_NE(traceDigest(generatePoissonTrace(other)), d1);
}

TEST(PoissonTrace, ValidatesConfig)
{
    TraceConfig cfg;
    cfg.tenants = {{"a", SloClass::Gold, 1.0}};
    cfg.requestsPerTick = 0.0;
    EXPECT_THROW(generatePoissonTrace(cfg), FatalError);
    cfg.requestsPerTick = 0.001;
    cfg.tenants.clear();
    EXPECT_THROW(generatePoissonTrace(cfg), FatalError);
    cfg.tenants = {{"a", SloClass::Gold, -1.0}};
    EXPECT_THROW(generatePoissonTrace(cfg), FatalError);
}

// ---------------------------------------------------------------------
// OperatingPointPlanner
// ---------------------------------------------------------------------

class PlannerTest : public ::testing::Test
{
  protected:
    PlannerTest() : ctx_(core::SimContext::standard()) {}

    OperatingPointPlanner makePlanner() const
    {
        InferenceFootprint fp;
        fp.weightAccesses = 6352;
        fp.inputAccesses = 204;
        fp.psumAccesses = 64;
        fp.computeOps = 25408;
        return OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                     kFaultFree, fp);
    }

    core::SimContext ctx_;
};

TEST_F(PlannerTest, BasePlanMeetsTheClassTarget)
{
    auto planner = makePlanner();
    for (int c = 0; c < kNumSloClasses; ++c) {
        const auto slo = static_cast<SloClass>(c);
        const auto &plan = planner.planFor("tenant", slo);
        EXPECT_GE(plan.plannedAccuracy, plan.targetAccuracy);
        EXPECT_GT(plan.energyPerInference.value(), 0.0);
        EXPECT_EQ(plan.vddStep, 0);
        EXPECT_GE(planner.ladderSize(slo), 1u);
    }
    // Looser contracts have lower absolute targets.
    EXPECT_GT(planner.targetAccuracy(SloClass::Gold),
              planner.targetAccuracy(SloClass::Silver));
    EXPECT_GT(planner.targetAccuracy(SloClass::Silver),
              planner.targetAccuracy(SloClass::Bronze));
}

TEST_F(PlannerTest, LowerSloNeverCostsMoreAtTheSameVdd)
{
    // Acceptance (c): at every supply voltage where the Gold contract
    // is servable at all, the looser contracts are servable too and
    // their planned energy per inference is no higher.
    auto planner = makePlanner();
    int compared = 0;
    for (Volt vdd : planner.config().vddGrid) {
        const auto gold = planner.planAtVdd(SloClass::Gold, vdd);
        if (!gold)
            continue;
        const auto silver = planner.planAtVdd(SloClass::Silver, vdd);
        const auto bronze = planner.planAtVdd(SloClass::Bronze, vdd);
        ASSERT_TRUE(silver.has_value());
        ASSERT_TRUE(bronze.has_value());
        EXPECT_LE(bronze->weightLevel, silver->weightLevel);
        EXPECT_LE(silver->weightLevel, gold->weightLevel);
        EXPECT_LE(bronze->energyPerInference.value(),
                  silver->energyPerInference.value());
        EXPECT_LE(silver->energyPerInference.value(),
                  gold->energyPerInference.value());
        ++compared;
    }
    EXPECT_GT(compared, 0);
}

TEST_F(PlannerTest, ErrorFeedbackStepsUpTheLadderAndBackDown)
{
    auto planner = makePlanner();
    ASSERT_GE(planner.ladderSize(SloClass::Bronze), 2u);
    const Volt base_vdd =
        planner.planFor("t", SloClass::Bronze).vdd;

    // A noisy epoch: the EWMA seeds above the step-up threshold and
    // the tenant moves one rung toward higher Vdd.
    planner.observeErrorRate("t", 0.5);
    EXPECT_EQ(planner.tenantStep("t"), 1);
    const auto &raised = planner.planFor("t", SloClass::Bronze);
    EXPECT_EQ(raised.vddStep, 1);
    EXPECT_GT(raised.vdd.value(), base_vdd.value());

    // Quiet epochs decay the EWMA below the step-down threshold and
    // the tenant returns to the cheap base rung.
    planner.observeErrorRate("t", 0.0);
    EXPECT_EQ(planner.tenantStep("t"), 0);
    EXPECT_EQ(planner.planFor("t", SloClass::Bronze).vddStep, 0);

    // Tenants are independent.
    EXPECT_EQ(planner.tenantStep("other"), 0);

    EXPECT_THROW(planner.observeErrorRate("t", -0.1), FatalError);
}

// ---------------------------------------------------------------------
// 2-D (V_logic, V_sram) joint planning (DESIGN.md §13)
// ---------------------------------------------------------------------

class JointPlannerTest : public PlannerTest
{
  protected:
    OperatingPointPlanner
    makeJointPlanner(std::vector<Volt> v_logic_grid) const
    {
        InferenceFootprint fp;
        fp.weightAccesses = 6352;
        fp.inputAccesses = 204;
        fp.psumAccesses = 64;
        fp.computeOps = 25408;
        PlannerConfig cfg;
        cfg.vLogicGrid = std::move(v_logic_grid);
        return OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                     kFaultFree, fp, cfg);
    }
};

TEST_F(JointPlannerTest, NoUnderscaleFallbackMatchesLegacyBitwise)
{
    // planAt(slo, vdd, 0) of a 2-D planner is the legacy 1-D plan:
    // same levels, same energy, down to the last bit.
    auto legacy = makePlanner();
    auto joint = makeJointPlanner({Volt(0.32), Volt(0.34), Volt(0.36)});
    for (int c = 0; c < kNumSloClasses; ++c) {
        const auto slo = static_cast<SloClass>(c);
        for (Volt vdd : joint.config().vddGrid) {
            const auto base = legacy.planAtVdd(slo, vdd);
            const auto fallback = joint.planAt(slo, vdd, Volt(0.0));
            ASSERT_EQ(base.has_value(), fallback.has_value());
            if (!base)
                continue;
            EXPECT_EQ(fallback->weightLevel, base->weightLevel);
            EXPECT_EQ(fallback->inputLevel, base->inputLevel);
            EXPECT_EQ(fallback->energyPerInference.value(),
                      base->energyPerInference.value());
            EXPECT_EQ(fallback->vLogic.value(), 0.0);
            EXPECT_EQ(fallback->replayRate, 0.0);
            EXPECT_EQ(fallback->clockStretch, 1.0);
        }
    }
}

TEST_F(JointPlannerTest, JointPlanningNeverLosesFeasibilityOrEnergy)
{
    // The no-underscale candidate is always in the joint pool, so 2-D
    // planning can only match or beat the 1-D plan at every rung.
    auto legacy = makePlanner();
    auto joint = makeJointPlanner({Volt(0.32), Volt(0.34), Volt(0.36)});
    int underscaled_rungs = 0;
    for (int c = 0; c < kNumSloClasses; ++c) {
        const auto slo = static_cast<SloClass>(c);
        for (Volt vdd : joint.config().vddGrid) {
            const auto base = legacy.planAtVdd(slo, vdd);
            const auto best = joint.planAtVdd(slo, vdd);
            ASSERT_EQ(base.has_value(), best.has_value());
            if (!base)
                continue;
            EXPECT_LE(best->energyPerInference.value(),
                      base->energyPerInference.value());
            EXPECT_LE(best->vLogic.value(), vdd.value());
            EXPECT_LE(best->corruptedRate,
                      joint.config().maxCorruptedRate);
            underscaled_rungs += best->vLogic.value() > 0.0;
        }
    }
    // The grid reaches rails where underscaling pays: at least one
    // rung must actually pick a V_logic below Vdd.
    EXPECT_GT(underscaled_rungs, 0);
}

TEST_F(JointPlannerTest, CorruptionBoundGatesDeepUnderscaling)
{
    auto joint = makeJointPlanner({Volt(0.32), Volt(0.34), Volt(0.36)});
    const Volt vdd(0.46);
    // 0.30 V at 50 MHz: replay at 2x slowdown still fails, so the
    // planned corrupted-commit rate blows through the 1e-9 bound and
    // the rail is rejected outright.
    EXPECT_FALSE(joint.planAt(SloClass::Bronze, vdd, Volt(0.30))
                     .has_value());
    // 0.36 V closes timing: feasible, negligible predicted replays.
    const auto ok = joint.planAt(SloClass::Bronze, vdd, Volt(0.36));
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->vLogic.value(), 0.36);
    EXPECT_LE(ok->corruptedRate, joint.config().maxCorruptedRate);
    EXPECT_GE(ok->replayRate, 0.0);
    EXPECT_GT(ok->energyPerInference.value(), 0.0);
    // A rail above Vdd is not an underscale candidate.
    EXPECT_FALSE(joint.planAt(SloClass::Bronze, Volt(0.34), Volt(0.36))
                     .has_value());
}

TEST_F(JointPlannerTest, ServedPlansCarryTheJointPoint)
{
    auto joint = makeJointPlanner({Volt(0.34), Volt(0.36)});
    for (int c = 0; c < kNumSloClasses; ++c) {
        const auto slo = static_cast<SloClass>(c);
        const auto &plan = joint.planFor("tenant", slo);
        EXPECT_GE(plan.plannedAccuracy, plan.targetAccuracy);
        EXPECT_LE(plan.vLogic.value(), plan.vdd.value());
        EXPECT_LE(plan.corruptedRate, joint.config().maxCorruptedRate);
        EXPECT_DOUBLE_EQ(plan.clockStretch, 1.0); // razor, not worst-case
    }
}

TEST_F(JointPlannerTest, ValidatesJointConfig)
{
    InferenceFootprint fp;
    fp.weightAccesses = 100;
    fp.computeOps = 1000;

    // A worst-case-clocked policy has no underscaled candidates.
    PlannerConfig worst_case;
    worst_case.vLogicGrid = {Volt(0.34)};
    worst_case.replayPolicy = timing::ReplayPolicy::worstCase();
    EXPECT_THROW(OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                       kFaultFree, fp, worst_case),
                 FatalError);

    // The rail grid must be sorted ascending.
    PlannerConfig descending;
    descending.vLogicGrid = {Volt(0.36), Volt(0.34)};
    EXPECT_THROW(OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                       kFaultFree, fp, descending),
                 FatalError);

    PlannerConfig no_clock;
    no_clock.vLogicGrid = {Volt(0.34)};
    no_clock.datapathClock = Hertz(0.0);
    EXPECT_THROW(OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                       kFaultFree, fp, no_clock),
                 FatalError);
}

// ---------------------------------------------------------------------
// InferenceServer acceptance
// ---------------------------------------------------------------------

class ServeTest : public ::testing::Test
{
  protected:
    ServeTest()
        : ctx_(core::SimContext::standard()),
          pool_(dnn::makeSyntheticMnist(32, 3))
    {
        // A small FC net keeps the per-batch weight staging through
        // the resilient memory cheap; untrained is fine — the server
        // only needs deterministic predictions.
        Rng rng(7);
        net_.addLayer<dnn::Dense>(784, 32, rng, "fc1");
        net_.addLayer<dnn::Relu>("fc1.relu");
        net_.addLayer<dnn::Dense>(32, 10, rng, "fc2");

        act_.macs = 25408;
        act_.weightAccesses = 6352;
        act_.inputAccesses = 204;
        act_.psumAccesses = 64;
    }

    OperatingPointPlanner makePlanner() const
    {
        InferenceFootprint fp;
        fp.weightAccesses = act_.weightAccesses;
        fp.inputAccesses = act_.inputAccesses;
        fp.psumAccesses = act_.psumAccesses;
        fp.computeOps = act_.macs;
        return OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                     kFaultFree, fp);
    }

    InferenceServer makeServer(ServerConfig cfg)
    {
        return InferenceServer(ctx_, net_, pool_, act_, makePlanner(),
                               cfg);
    }

    std::vector<InferenceRequest> makeTrace(std::size_t n,
                                            double rate) const
    {
        TraceConfig cfg;
        cfg.requestsPerTick = rate;
        cfg.numRequests = n;
        cfg.seed = 42;
        cfg.tenants = {{"acme", SloClass::Gold, 0.5},
                       {"batchco", SloClass::Bronze, 0.5}};
        cfg.samplePoolSize = pool_.size();
        return generatePoissonTrace(cfg);
    }

    static ServerConfig smallConfig()
    {
        ServerConfig cfg;
        cfg.queueCapacity = 16;
        cfg.batcher.maxBatchSize = 4;
        cfg.batcher.maxWaitTicks = 2000;
        cfg.workerSlots = 2;
        cfg.feedbackInterval = 2;
        return cfg;
    }

    core::SimContext ctx_;
    dnn::Network net_;
    dnn::Dataset pool_;
    accel::LayerActivity act_;
};

TEST_F(ServeTest, ResultsAreBitwiseIdenticalAtAnyWorkerCount)
{
    // Acceptance (a): the worker count is an execution detail; every
    // outcome, every stat and the stats fingerprint are bitwise
    // identical between a serial and an 8-thread server.
    const auto trace = makeTrace(24, 0.002);

    auto serial_cfg = smallConfig();
    serial_cfg.numThreads = 1;
    auto serial = makeServer(serial_cfg);
    const auto r1 = serial.run(trace);

    auto wide_cfg = smallConfig();
    wide_cfg.numThreads = 8;
    auto wide = makeServer(wide_cfg);
    const auto r8 = wide.run(trace);

    ASSERT_EQ(r1.outcomes.size(), trace.size());
    EXPECT_EQ(r1.outcomes, r8.outcomes);
    EXPECT_EQ(r1.stats, r8.stats);
    EXPECT_EQ(r1.stats.fingerprint(), r8.stats.fingerprint());

    // Batch-level records agree too (same plans, same timing, same
    // resilience counters).
    ASSERT_EQ(r1.batches.size(), r8.batches.size());
    for (std::size_t i = 0; i < r1.batches.size(); ++i) {
        EXPECT_EQ(r1.batches[i].startTick, r8.batches[i].startTick);
        EXPECT_EQ(r1.batches[i].completionTick,
                  r8.batches[i].completionTick);
        EXPECT_EQ(r1.batches[i].predictions, r8.batches[i].predictions);
        EXPECT_DOUBLE_EQ(r1.batches[i].modeledEnergy.value(),
                         r8.batches[i].modeledEnergy.value());
        EXPECT_EQ(r1.batches[i].resilience.retries,
                  r8.batches[i].resilience.retries);
    }
}

TEST_F(ServeTest, KeptStagingImageFollowsTheWeights)
{
    // The server keeps its staging image (and each slot its undo
    // record) across run() calls. Flip one weight bit between runs,
    // then flip it back: every run must equal a fresh server's run on
    // the same weights and trace from the same planner state and idle
    // slots, and the flipped bit must change what a fresh server
    // serves, so a stale image could not pass.
    const auto trace = makeTrace(24, 0.002);
    auto cfg = smallConfig();
    cfg.numThreads = 2;
    auto server = makeServer(cfg);
    float &w = (*net_.weightParams()[0].value)[0];
    const float original = w;
    const float flipped =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ (1u << 30));
    for (const float value : {original, flipped, original}) {
        const OperatingPointPlanner planner = server.planner();
        w = value == original ? flipped : original;
        const ServeResult other =
            InferenceServer(ctx_, net_, pool_, act_, planner, cfg).run(trace);
        w = value;
        const ServeResult want =
            InferenceServer(ctx_, net_, pool_, act_, planner, cfg).run(trace);
        server.resetWorkerBacklog();
        const ServeResult got = server.run(trace);

        EXPECT_EQ(got.outcomes, want.outcomes);
        EXPECT_EQ(got.stats, want.stats);
        EXPECT_EQ(got.stats.fingerprint(), want.stats.fingerprint());
        ASSERT_EQ(got.batches.size(), want.batches.size());
        for (std::size_t i = 0; i < got.batches.size(); ++i) {
            EXPECT_EQ(got.batches[i].predictions, want.batches[i].predictions);
            EXPECT_EQ(got.batches[i].residualFlips,
                      want.batches[i].residualFlips);
        }
        EXPECT_NE(want.outcomes, other.outcomes);
    }
}

TEST_F(ServeTest, ServersSharingASlotPoolServeWhatOwnPoolsServe)
{
    // Two devices serve through one staging cache, so a slot network
    // stages the other device's batches in between; its undo record
    // must return it to the clean weights all the same. Each run must
    // equal the same device's run on a pool of its own.
    // Open loop at 0.44 V: batches leave residual flips, so a slot
    // network left with stale fix-ups serves other predictions.
    const auto trace = makeTrace(24, 0.002);
    auto cfg = smallConfig();
    cfg.numThreads = 2;
    cfg.policy = resilience::ResiliencePolicy::openLoop();
    auto cfg_b = cfg;
    cfg_b.seed = cfg.seed + 1;
    PlannerConfig pcfg;
    pcfg.vddGrid = {Volt(0.44)};
    pcfg.accuracyFraction = {0.1, 0.1, 0.1};
    InferenceFootprint fp;
    fp.weightAccesses = act_.weightAccesses;
    fp.inputAccesses = act_.inputAccesses;
    fp.psumAccesses = act_.psumAccesses;
    fp.computeOps = act_.macs;
    const OperatingPointPlanner planner(ctx_, 16, &stubAccuracy, kFaultFree,
                                        fp, pcfg);
    fi::StagedWeightsCache shared;
    shared.update(net_);
    InferenceServer a(ctx_, net_, pool_, act_, planner, cfg);
    InferenceServer b(ctx_, net_, pool_, act_, planner, cfg_b);
    InferenceServer own_a(ctx_, net_, pool_, act_, planner, cfg);
    InferenceServer own_b(ctx_, net_, pool_, act_, planner, cfg_b);
    std::uint64_t flips = 0;
    for (int round = 0; round < 2; ++round) {
        for (auto [server, alone] : {std::pair{&a, &own_a},
                                     std::pair{&b, &own_b}}) {
            const ServeResult got = std::move(
                InferenceServer::serveTogether({server}, {&trace}, shared,
                                               cfg.numThreads)
                    .front());
            const ServeResult want = alone->run(trace);
            EXPECT_EQ(got.outcomes, want.outcomes);
            EXPECT_EQ(got.stats, want.stats);
            ASSERT_EQ(got.batches.size(), want.batches.size());
            for (std::size_t i = 0; i < got.batches.size(); ++i) {
                EXPECT_EQ(got.batches[i].predictions,
                          want.batches[i].predictions);
                EXPECT_EQ(got.batches[i].residualFlips,
                          want.batches[i].residualFlips);
                flips += got.batches[i].residualFlips;
            }
        }
    }
    // Fix-ups happened, so a wrong restore could show.
    EXPECT_GT(flips, 0u);
    EXPECT_GE(shared.slotNetworks(), 1u);
    EXPECT_LE(shared.slotNetworks(), 2u);
    EXPECT_EQ(shared.builds(), 1u);
    EXPECT_EQ(a.staging().slotNetworks(), 0u);
    EXPECT_LE(own_a.staging().slotNetworks(), 2u);
}

TEST_F(ServeTest, AccountingIsConsistent)
{
    const auto trace = makeTrace(24, 0.002);
    auto server = makeServer(smallConfig());
    const auto r = server.run(trace);
    const auto &s = r.stats;

    EXPECT_EQ(s.total.requests, trace.size());
    EXPECT_EQ(s.total.admitted + s.total.shedQueueFull +
                  s.total.shedTenantQuota,
              s.total.requests);
    EXPECT_EQ(s.total.inferences, s.total.admitted);

    // Per-tenant rows sum to the totals.
    std::uint64_t requests = 0, admitted = 0, inferences = 0;
    double energy = 0.0;
    for (const auto &[name, t] : s.perTenant) {
        requests += t.requests;
        admitted += t.admitted;
        inferences += t.inferences;
        energy += t.energyPj;
    }
    EXPECT_EQ(requests, s.total.requests);
    EXPECT_EQ(admitted, s.total.admitted);
    EXPECT_EQ(inferences, s.total.inferences);
    EXPECT_NEAR(energy, s.total.energyPj, 1e-6 * (1.0 + energy));

    // Batches cover exactly the admitted requests, in seq order.
    std::uint64_t batched = 0;
    for (std::size_t i = 0; i < r.batches.size(); ++i) {
        EXPECT_EQ(r.batches[i].seq, i);
        EXPECT_EQ(r.batches[i].predictions.size(), r.batches[i].size);
        EXPECT_GE(r.batches[i].completionTick, r.batches[i].startTick);
        EXPECT_GE(r.batches[i].startTick, r.batches[i].formedTick);
        batched += r.batches[i].size;
    }
    EXPECT_EQ(batched, s.total.admitted);
    EXPECT_GT(s.meanBatchSize, 0.0);
    EXPECT_GE(s.p95LatencyTicks, s.p50LatencyTicks);
    EXPECT_GT(s.total.energyPj, 0.0);
    EXPECT_NE(s.fingerprint(), 0u);
}

TEST_F(ServeTest, SheddingAtTheQueueBoundIsDeterministicAndTyped)
{
    // Acceptance (b): a burst against a tiny queue sheds the same
    // requests with the same typed reasons on every run. The burst is
    // crafted so both bounds trip: "acme" floods past its quota while
    // the queue still has room, then "batchco" fills the last slot and
    // everything after hits the global bound.
    std::vector<InferenceRequest> trace = {
        makeRequest(0, "acme", SloClass::Gold, 0, 0),
        makeRequest(1, "acme", SloClass::Gold, 1, 1),
        makeRequest(2, "acme", SloClass::Gold, 2, 2),    // quota
        makeRequest(3, "batchco", SloClass::Bronze, 3, 3),
        makeRequest(4, "batchco", SloClass::Bronze, 4, 4), // full
        makeRequest(5, "acme", SloClass::Gold, 5, 5),      // full
        makeRequest(6, "batchco", SloClass::Bronze, 6, 6), // full
    };
    auto cfg = smallConfig();
    cfg.queueCapacity = 3;
    cfg.perTenantQueueCap = 2;
    cfg.batcher.maxBatchSize = 8;
    cfg.batcher.maxWaitTicks = 10000;

    auto collectSheds = [&](const ServeResult &r) {
        std::vector<std::pair<std::uint64_t, ShedReason>> sheds;
        for (const auto &o : r.outcomes) {
            if (!o.admitted)
                sheds.emplace_back(o.id, o.shedReason);
        }
        return sheds;
    };

    auto s1 = makeServer(cfg);
    const auto r1 = s1.run(trace);
    auto s2 = makeServer(cfg);
    const auto r2 = s2.run(trace);

    const auto sheds1 = collectSheds(r1);
    EXPECT_EQ(sheds1, collectSheds(r2));
    EXPECT_EQ(r1.stats.fingerprint(), r2.stats.fingerprint());

    // The exact shed set is part of the contract, not a statistic.
    const std::vector<std::pair<std::uint64_t, ShedReason>> expected = {
        {2, ShedReason::TenantQuotaExceeded},
        {4, ShedReason::QueueFull},
        {5, ShedReason::QueueFull},
        {6, ShedReason::QueueFull},
    };
    EXPECT_EQ(sheds1, expected);
    EXPECT_EQ(r1.stats.total.shedQueueFull, 3u);
    EXPECT_EQ(r1.stats.total.shedTenantQuota, 1u);
    EXPECT_EQ(r1.stats.total.admitted, 3u);
    EXPECT_EQ(r1.stats.total.admitted + sheds1.size(), trace.size());
}

TEST_F(ServeTest, ServedRequestsCarryPlanAndTiming)
{
    const auto trace = makeTrace(16, 0.002);
    auto server = makeServer(smallConfig());
    const auto r = server.run(trace);
    for (const auto &o : r.outcomes) {
        if (!o.admitted)
            continue;
        EXPECT_GE(o.formedTick, o.arrivalTick);
        EXPECT_GE(o.startTick, o.formedTick);
        EXPECT_GT(o.completionTick, o.startTick);
        EXPECT_GE(o.predictedClass, 0);
        EXPECT_GT(o.energyPj, 0.0);
        ASSERT_LT(o.batchSeq, r.batches.size());
        const auto &batch = r.batches[o.batchSeq];
        EXPECT_EQ(batch.tenant, o.tenant);
        EXPECT_EQ(batch.slo, o.slo);
        // The batch ran at a plan meeting the request's contract.
        EXPECT_GE(batch.plan.plannedAccuracy,
                  batch.plan.targetAccuracy);
    }
}

TEST_F(ServeTest, ValidatesTraces)
{
    auto server = makeServer(smallConfig());

    std::vector<InferenceRequest> decreasing = {
        makeRequest(0, "a", SloClass::Gold, 100),
        makeRequest(1, "a", SloClass::Gold, 50),
    };
    EXPECT_THROW(server.run(decreasing), FatalError);

    std::vector<InferenceRequest> bad_sample = {
        makeRequest(0, "a", SloClass::Gold, 0, pool_.size()),
    };
    EXPECT_THROW(server.run(bad_sample), FatalError);

    std::vector<InferenceRequest> duplicate = {
        makeRequest(3, "a", SloClass::Gold, 0),
        makeRequest(3, "a", SloClass::Gold, 1),
    };
    EXPECT_THROW(server.run(duplicate), FatalError);
}

// ---------------------------------------------------------------------
// Observability (DESIGN.md §11)
// ---------------------------------------------------------------------

/** Look up a metric instance without creating it. */
const obs::Metric *
findMetric(const obs::MetricsRegistry &reg, const std::string &name,
           const obs::Labels &labels)
{
    const auto it = reg.metrics().find(obs::MetricKey{name, labels});
    return it == reg.metrics().end() ? nullptr : &it->second;
}

TEST_F(ServeTest, ObservabilityReconcilesWithServerStats)
{
    const auto trace = makeTrace(24, 0.002);
    auto server = makeServer(smallConfig());
    obs::Observability o;
    const obs::Labels base{{"mix", "test"}};
    server.attachObservability(&o, 0, base);
    const auto r = server.run(trace);
    const auto &s = r.stats;
    const obs::MetricsRegistry &reg = o.metrics;

    // Admission counters match the aggregate snapshot exactly.
    const auto *requests = findMetric(reg, "serve.requests", base);
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->count, s.total.requests);
    const auto *admitted = findMetric(reg, "serve.admitted", base);
    ASSERT_NE(admitted, nullptr);
    EXPECT_EQ(admitted->count, s.total.admitted);

    // Resilience counters reconcile with the per-tenant totals.
    const auto *retries = findMetric(reg, "resil.retry.count", base);
    ASSERT_NE(retries, nullptr);
    EXPECT_EQ(retries->count, s.total.retries);
    const auto *escalations =
        findMetric(reg, "resil.escalation.count", base);
    ASSERT_NE(escalations, nullptr);
    EXPECT_EQ(escalations->count, s.total.escalations);
    const auto *uncorrected =
        findMetric(reg, "resil.uncorrected.count", base);
    ASSERT_NE(uncorrected, nullptr);
    EXPECT_EQ(uncorrected->count, s.total.uncorrected);

    // Every request passed through the queue-depth histogram; every
    // admitted one landed in exactly one per-SLO latency histogram,
    // and every batch in the occupancy histogram.
    const auto *depth = findMetric(reg, "serve.queue.depth", base);
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->count, s.total.requests);
    std::uint64_t latency_count = 0;
    double slo_energy_j = 0.0;
    for (int c = 0; c < kNumSloClasses; ++c) {
        obs::Labels slo_labels = base;
        slo_labels["slo"] = toString(static_cast<SloClass>(c));
        if (const auto *h =
                findMetric(reg, "serve.latency.ticks", slo_labels))
            latency_count += h->count;
        if (const auto *e = findMetric(reg, "serve.energy_j", slo_labels))
            slo_energy_j += e->sum;
    }
    EXPECT_EQ(latency_count, s.total.admitted);
    const auto *batch_size = findMetric(reg, "serve.batch.size", base);
    ASSERT_NE(batch_size, nullptr);
    EXPECT_EQ(batch_size->count, s.total.batches);

    // Modeled energy: the per-SLO sums (joules) add up to the stats
    // total (picojoules).
    EXPECT_NEAR(slo_energy_j * 1e12, s.total.energyPj,
                1e-6 * (1.0 + s.total.energyPj));

    // Run-level gauges mirror the printed percentiles.
    const auto *p95 = findMetric(reg, "serve.latency.p95_ticks", base);
    ASSERT_NE(p95, nullptr);
    EXPECT_DOUBLE_EQ(p95->sum, s.p95LatencyTicks);

    // The trace carries one execution span per batch.
    std::uint64_t batch_spans = 0;
    for (const auto &ev : o.trace.events())
        if (ev.phase == 'X' && ev.numArgs.count("batch") > 0)
            ++batch_spans;
    EXPECT_EQ(batch_spans, s.total.batches);
}

TEST_F(ServeTest, ObservabilityIsThreadCountInvariant)
{
    // The §11 acceptance property at unit scale: metrics fingerprint
    // and the exported Chrome trace are bitwise identical between a
    // serial and a parallel server (the serve_obs_determinism ctest
    // checks the same property on the full bench sweep). One feedback
    // epoch holds all ~24 batches of 1-16 requests, so they run
    // concurrently and finish out of order, and the 0.38 V rail gives
    // every batch its own resilience counters and energies. A float
    // reduced in completion order then differs from the serial run —
    // though a reordered float sum can round to the same bits, so
    // twelve parallel runs each get a chance to expose it.
    const auto trace = makeTrace(256, 0.01);
    PlannerConfig pcfg;
    pcfg.vddGrid = {Volt(0.38)};
    pcfg.accuracyFraction = {0.1, 0.1, 0.1};
    InferenceFootprint fp;
    fp.weightAccesses = act_.weightAccesses;
    fp.inputAccesses = act_.inputAccesses;
    fp.psumAccesses = act_.psumAccesses;
    fp.computeOps = act_.macs;

    const auto capture = [&](int threads) {
        auto cfg = smallConfig();
        cfg.numThreads = threads;
        cfg.queueCapacity = 256;
        cfg.batcher.maxBatchSize = 16;
        cfg.feedbackInterval = 1024;
        InferenceServer server(ctx_, net_, pool_, act_,
                               OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                                     kFaultFree, fp, pcfg),
                               cfg);
        obs::Observability o;
        server.attachObservability(&o, 0, {{"threads", "x"}});
        server.run(trace);
        std::ostringstream chrome, text;
        o.trace.writeChromeTrace(chrome);
        o.metrics.writeText(text);
        return std::make_tuple(o.metrics.fingerprint(), chrome.str(),
                               text.str());
    };

    const auto serial = capture(1);
    for (int threads = 3; threads <= 14; ++threads) {
        SCOPED_TRACE(threads);
        const auto wide = capture(threads);
        EXPECT_EQ(std::get<0>(serial), std::get<0>(wide));
        EXPECT_EQ(std::get<1>(serial), std::get<1>(wide));
        EXPECT_EQ(std::get<2>(serial), std::get<2>(wide));
    }
}

} // namespace
} // namespace vboost::serve
