/**
 * @file
 * Tests for the sharded serving cluster (DESIGN.md §14): consistent-
 * hash ring balance/monotonicity/construction determinism, the node
 * health monitor's drain/rejoin state machine, cluster configuration
 * validation, and the §7 acceptance property of the cluster tier —
 * bitwise-identical routes, outcomes and fingerprints at any thread
 * count, including a run with an injected node loss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/failover.hpp"
#include "cluster/hash_ring.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "resilience/policy.hpp"
#include "serve/planner.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace vboost::cluster {
namespace {

// ---------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------

std::vector<std::string>
testKeys(std::size_t n)
{
    std::vector<std::string> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        keys.push_back("tenant-" + std::to_string(i));
    return keys;
}

TEST(HashRing, BalanceStaysWithinBoundedSkew)
{
    // With enough virtual nodes, no node owns more than a small
    // multiple of the fair share of a large key population.
    HashRingConfig cfg;
    cfg.virtualNodes = 64;
    HashRing ring(cfg);
    const int nodes = 4;
    for (int i = 0; i < nodes; ++i)
        ring.addNode("node-" + std::to_string(i));

    std::map<std::string, int> owned;
    const auto keys = testKeys(2000);
    for (const auto &key : keys)
        ++owned[ring.nodeFor(key)];

    const double fair = static_cast<double>(keys.size()) / nodes;
    for (const auto &[node, count] : owned) {
        EXPECT_GT(count, 0) << node << " owns nothing";
        EXPECT_LT(count, 2.0 * fair)
            << node << " owns " << count << " of " << keys.size();
    }
}

TEST(HashRing, RemovalOnlyRemapsTheRemovedNodesKeys)
{
    // Consistent-hashing monotonicity: removing a node must not move
    // any key whose owner survives.
    HashRing ring;
    for (int i = 0; i < 5; ++i)
        ring.addNode("node-" + std::to_string(i));

    const auto keys = testKeys(500);
    std::map<std::string, std::string> before;
    for (const auto &key : keys)
        before[key] = ring.nodeFor(key);

    ring.removeNode("node-2");
    for (const auto &key : keys) {
        const std::string &now = ring.nodeFor(key);
        EXPECT_NE(now, "node-2");
        if (before[key] != "node-2") {
            EXPECT_EQ(now, before[key]) << key << " moved needlessly";
        }
    }
}

TEST(HashRing, AdditionOnlyStealsKeysForTheNewNode)
{
    HashRing ring;
    for (int i = 0; i < 4; ++i)
        ring.addNode("node-" + std::to_string(i));

    const auto keys = testKeys(500);
    std::map<std::string, std::string> before;
    for (const auto &key : keys)
        before[key] = ring.nodeFor(key);

    ring.addNode("node-4");
    int stolen = 0;
    for (const auto &key : keys) {
        const std::string &now = ring.nodeFor(key);
        if (now != before[key]) {
            EXPECT_EQ(now, "node-4") << key << " moved to a veteran";
            ++stolen;
        }
    }
    EXPECT_GT(stolen, 0) << "the new node took no keys";
}

TEST(HashRing, ConstructionIsInsertionOrderIndependent)
{
    std::vector<std::string> names = {"alpha", "beta", "gamma", "delta"};
    HashRing forward;
    for (const auto &n : names)
        forward.addNode(n);
    HashRing backward;
    for (auto it = names.rbegin(); it != names.rend(); ++it)
        backward.addNode(*it);

    EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
    for (const auto &key : testKeys(200)) {
        EXPECT_EQ(forward.nodeFor(key), backward.nodeFor(key));
        EXPECT_EQ(forward.replicasFor(key, 3), backward.replicasFor(key, 3));
    }
}

TEST(HashRing, ReplicaGroupsAreDistinctAndBounded)
{
    HashRing ring;
    for (int i = 0; i < 3; ++i)
        ring.addNode("node-" + std::to_string(i));
    for (const auto &key : testKeys(50)) {
        const auto group = ring.replicasFor(key, 2);
        ASSERT_EQ(group.size(), 2u);
        EXPECT_NE(group[0], group[1]);
        EXPECT_EQ(group[0], ring.nodeFor(key));
        // Asking for more replicas than members clamps to the ring.
        EXPECT_EQ(ring.replicasFor(key, 10).size(), 3u);
    }
}

TEST(HashRing, ValidatesMembershipOperations)
{
    HashRing ring;
    EXPECT_THROW(ring.nodeFor("k"), FatalError);
    ring.addNode("a");
    EXPECT_THROW(ring.addNode("a"), FatalError);
    EXPECT_THROW(ring.addNode(""), FatalError);
    EXPECT_THROW(ring.removeNode("b"), FatalError);
    EXPECT_TRUE(ring.hasNode("a"));
    HashRingConfig bad;
    bad.virtualNodes = 0;
    EXPECT_THROW(HashRing{bad}, FatalError);
}

// ---------------------------------------------------------------------
// NodeHealthMonitor
// ---------------------------------------------------------------------

TEST(NodeHealthMonitor, DegradedNodeWalksTheFullLifecycle)
{
    FailoverConfig cfg;
    cfg.drainThreshold = 0.35;
    cfg.drainEpochs = 1;
    cfg.downEpochs = 1;
    cfg.rejoinEpochs = 1;
    NodeHealthMonitor mon(2, cfg);

    // A chronically noisy node drains; its healthy peer stays Active.
    mon.observeEpoch(0, 0, 0.9, true);
    mon.observeEpoch(0, 1, 0.0, true);
    EXPECT_EQ(mon.state(0), NodeState::Draining);
    EXPECT_FALSE(mon.accepting(0));
    EXPECT_EQ(mon.state(1), NodeState::Active);

    // Drain elapses -> Down; cooldown elapses -> Rejoining (accepting
    // again, on probation); a clean probation epoch -> Active.
    mon.observeEpoch(1, 0, 0.0, false);
    EXPECT_EQ(mon.state(0), NodeState::Down);
    mon.observeEpoch(2, 0, 0.0, false);
    EXPECT_EQ(mon.state(0), NodeState::Rejoining);
    EXPECT_TRUE(mon.accepting(0));
    mon.observeEpoch(3, 0, 0.0, true);
    EXPECT_EQ(mon.state(0), NodeState::Active);

    // The log recorded every hop, in order.
    std::vector<NodeState> path;
    for (const NodeTransition &tr : mon.transitions()) {
        EXPECT_EQ(tr.node, 0);
        path.push_back(tr.to);
    }
    EXPECT_EQ(path,
              (std::vector<NodeState>{
                  NodeState::Draining, NodeState::Down,
                  NodeState::Rejoining, NodeState::Active}));
}

TEST(NodeHealthMonitor, BadProbationEpochGoesStraightBackDown)
{
    FailoverConfig cfg;
    cfg.drainEpochs = 1;
    cfg.downEpochs = 1;
    cfg.rejoinEpochs = 2;
    NodeHealthMonitor mon(1, cfg);
    mon.injectLoss(0, 0);
    EXPECT_EQ(mon.state(0), NodeState::Down);
    mon.observeEpoch(0, 0, 0.0, false);
    EXPECT_EQ(mon.state(0), NodeState::Rejoining);
    // EWMA was reset on the transition: the bad epoch seeds it fresh
    // above the threshold and probation fails immediately.
    mon.observeEpoch(1, 0, 0.9, true);
    EXPECT_EQ(mon.state(0), NodeState::Down);
}

TEST(NodeHealthMonitor, InjectLossForcesDownFromAnyState)
{
    NodeHealthMonitor mon(2);
    EXPECT_EQ(mon.state(1), NodeState::Active);
    mon.injectLoss(3, 1);
    EXPECT_EQ(mon.state(1), NodeState::Down);
    ASSERT_EQ(mon.transitions().size(), 1u);
    EXPECT_EQ(mon.transitions()[0].cause, FailoverCause::InjectedLoss);
    EXPECT_EQ(mon.transitions()[0].epoch, 3u);
    // Losing an already-lost node is a no-op, not a second transition.
    mon.injectLoss(4, 1);
    EXPECT_EQ(mon.transitions().size(), 1u);
}

TEST(NodeHealthMonitor, ValidatesConfigAndArguments)
{
    FailoverConfig bad;
    bad.ewmaAlpha = 0.0;
    EXPECT_THROW(NodeHealthMonitor(1, bad), FatalError);
    bad = FailoverConfig{};
    bad.drainThreshold = -0.1;
    EXPECT_THROW(NodeHealthMonitor(1, bad), FatalError);
    bad = FailoverConfig{};
    bad.downEpochs = 0;
    EXPECT_THROW(NodeHealthMonitor(1, bad), FatalError);

    NodeHealthMonitor mon(1);
    EXPECT_THROW(mon.observeEpoch(0, 5, 0.0, true), FatalError);
    EXPECT_THROW(mon.observeEpoch(0, 0, -0.1, true), FatalError);
}

// ---------------------------------------------------------------------
// Configuration validation
// ---------------------------------------------------------------------

TEST(ClusterConfigValidate, RejectsInconsistentKnobs)
{
    ClusterConfig cfg;
    cfg.shards = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ClusterConfig{};
    cfg.replicas = cfg.shards + 1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ClusterConfig{};
    cfg.epochRequests = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ClusterConfig{};
    cfg.lossEvents = {{0, cfg.shards}};
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = ClusterConfig{};
    EXPECT_NO_THROW(cfg.validate());
}

TEST(ServerConfigValidate, RejectsDegenerateServerKnobs)
{
    serve::ServerConfig cfg;
    cfg.queueCapacity = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = serve::ServerConfig{};
    cfg.workerSlots = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = serve::ServerConfig{};
    cfg.feedbackInterval = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = serve::ServerConfig{};
    cfg.ticksPerSecond = 0.0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = serve::ServerConfig{};
    EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------
// ServingCluster acceptance
// ---------------------------------------------------------------------

constexpr double kFaultFree = 0.9;

double
stubAccuracy(Volt vddv)
{
    const double t =
        std::clamp((vddv.value() - 0.30) / 0.28, 0.0, 1.0);
    return kFaultFree * t;
}

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest()
        : ctx_(core::SimContext::standard()),
          pool_(dnn::makeSyntheticMnist(32, 3))
    {
        Rng rng(7);
        net_.addLayer<dnn::Dense>(784, 32, rng, "fc1");
        net_.addLayer<dnn::Relu>("fc1.relu");
        net_.addLayer<dnn::Dense>(32, 10, rng, "fc2");

        act_.macs = 25408;
        act_.weightAccesses = 6352;
        act_.inputAccesses = 204;
        act_.psumAccesses = 64;
    }

    serve::OperatingPointPlanner
    makePlanner(serve::PlannerConfig pcfg = serve::PlannerConfig()) const
    {
        serve::InferenceFootprint fp;
        fp.weightAccesses = act_.weightAccesses;
        fp.inputAccesses = act_.inputAccesses;
        fp.psumAccesses = act_.psumAccesses;
        fp.computeOps = act_.macs;
        return serve::OperatingPointPlanner(ctx_, 16, &stubAccuracy,
                                            kFaultFree, fp, std::move(pcfg));
    }

    ClusterConfig smallConfig(int threads) const
    {
        ClusterConfig cfg;
        cfg.shards = 3;
        cfg.replicas = 2;
        cfg.epochRequests = 12;
        cfg.shardQueueCapacity = 6;
        cfg.node.queueCapacity = 16;
        cfg.node.batcher.maxBatchSize = 4;
        cfg.node.workerSlots = 2;
        cfg.node.feedbackInterval = 2;
        cfg.node.numThreads = threads;
        // Crash node 0 at the second epoch: the determinism contract
        // must hold through failover, not just in steady state.
        cfg.lossEvents = {{1, 0}};
        return cfg;
    }

    ServingCluster makeCluster(const ClusterConfig &cfg)
    {
        return ServingCluster(ctx_, net_, pool_, act_, makePlanner(),
                              cfg);
    }

    std::vector<serve::InferenceRequest> makeTrace(std::size_t n) const
    {
        serve::TraceConfig cfg;
        cfg.requestsPerTick = 0.004;
        cfg.numRequests = n;
        cfg.seed = 42;
        cfg.tenants = serve::scaledTenantMix(6).tenants;
        cfg.samplePoolSize = pool_.size();
        return serve::generatePoissonTrace(cfg);
    }

    core::SimContext ctx_;
    dnn::Network net_;
    dnn::Dataset pool_;
    accel::LayerActivity act_;
};

TEST_F(ClusterTest, OutcomesAreBitwiseIdenticalAtAnyThreadCount)
{
    // The cluster-tier §7 acceptance: a node-loss/failover run is
    // bitwise identical between serial and 8-thread execution — every
    // route, every outcome, the failover log and the fingerprint.
    const auto trace = makeTrace(48);
    auto serial = makeCluster(smallConfig(1));
    auto wide = makeCluster(smallConfig(8));
    const auto r1 = serial.run(trace);
    const auto r8 = wide.run(trace);

    EXPECT_EQ(r1.routes, r8.routes);
    EXPECT_EQ(r1.outcomes, r8.outcomes);
    EXPECT_EQ(r1.transitions, r8.transitions);
    EXPECT_EQ(r1.stats, r8.stats);
    EXPECT_EQ(r1.stats.fingerprint(), r8.stats.fingerprint());
    // The loss event actually produced transitions to gate on.
    EXPECT_GE(r1.stats.transitions, 1u);
}

TEST_F(ClusterTest, SharedStagingImageFollowsTheWeights)
{
    // The nodes share one staging image, kept across run() calls.
    // Flip one weight bit before the second run and flip it back
    // before the third. Routing, health, plans, backlog and resilience
    // counters never depend on the weight values (only predictions
    // do), so a fresh cluster replaying the first k runs on one set of
    // weights reaches the same state and builds its image once: its
    // k-th run is what the kept cluster must serve on those weights,
    // and differs from a replay on the other weights.
    const auto trace = makeTrace(48);
    const auto cfg = smallConfig(2);
    auto kept = makeCluster(cfg);
    float &w = (*net_.weightParams()[0].value)[0];
    const float original = w;
    const float flipped =
        std::bit_cast<float>(std::bit_cast<std::uint32_t>(w) ^ (1u << 30));
    const std::array<float, 3> runs{original, flipped, original};
    const auto replay = [&](std::size_t k, float value) {
        w = value;
        auto fresh = makeCluster(cfg);
        for (std::size_t i = 0; i < k; ++i)
            fresh.run(trace);
        return fresh.run(trace);
    };
    for (std::size_t k = 0; k < runs.size(); ++k) {
        const ClusterResult other =
            replay(k, runs[k] == original ? flipped : original);
        const ClusterResult want = replay(k, runs[k]);
        const ClusterResult got = kept.run(trace);

        EXPECT_EQ(got.routes, want.routes);
        EXPECT_EQ(got.outcomes, want.outcomes);
        EXPECT_EQ(got.transitions, want.transitions);
        EXPECT_EQ(got.stats, want.stats);
        EXPECT_EQ(got.stats.fingerprint(), want.stats.fingerprint());
        EXPECT_EQ(other.routes, want.routes);
        EXPECT_NE(other.outcomes, want.outcomes);
    }
}

TEST_F(ClusterTest, MergedRegionsServeWhatNodesRunOneAtATimeServe)
{
    // run() executes the feedback regions of every node together over
    // one pool of slot networks. Replay the schedule of serving each
    // node alone: every epoch, each node's InferenceServer::run on the
    // requests the cluster routed to it, in node order, feeding a
    // health monitor in node order and restarting a node that goes
    // Down. Every outcome, node total, failover transition and
    // planner state must match bit for bit. In the open-loop case at
    // 0.44 V batches leave fix-ups in the slot networks, which the
    // next batch, of whichever node, must undo.
    const auto trace = makeTrace(48);
    for (const auto &[threads, open_loop] :
         {std::pair{1, false}, std::pair{3, false}, std::pair{1, true},
          std::pair{3, true}}) {
        SCOPED_TRACE(testing::Message() << threads << " threads, "
                                        << (open_loop ? "open" : "closed")
                                        << " loop");
        ClusterConfig cfg = smallConfig(threads);
        serve::PlannerConfig pcfg;
        if (open_loop) {
            cfg.node.policy = resilience::ResiliencePolicy::openLoop();
            pcfg.vddGrid = {Volt(0.44)};
            pcfg.accuracyFraction = {0.1, 0.1, 0.1};
        }
        const serve::OperatingPointPlanner planner = makePlanner(pcfg);
        ServingCluster cl(ctx_, net_, pool_, act_, planner, cfg);
        const ClusterResult got = cl.run(trace);

        std::vector<std::unique_ptr<serve::InferenceServer>> alone;
        for (int i = 0; i < cfg.shards; ++i) {
            serve::ServerConfig node_cfg = cfg.node;
            node_cfg.seed = cfg.node.seed + static_cast<std::uint64_t>(i);
            alone.push_back(std::make_unique<serve::InferenceServer>(
                ctx_, net_, pool_, act_, planner, node_cfg));
        }
        std::uint64_t flips = 0;
        NodeHealthMonitor health(cfg.shards, cfg.failover);
        std::map<std::uint64_t, std::size_t> index;
        for (std::size_t i = 0; i < trace.size(); ++i)
            index.emplace(trace[i].id, i);
        std::vector<serve::RequestOutcome> outcomes = got.outcomes;
        std::vector<serve::TenantStats> totals(
            static_cast<std::size_t>(cfg.shards));
        const auto per_epoch = static_cast<std::size_t>(cfg.epochRequests);
        for (std::size_t begin = 0; begin < trace.size();
             begin += per_epoch) {
            const std::uint64_t epoch = begin / per_epoch;
            for (const NodeLossEvent &ev : cfg.lossEvents) {
                if (ev.epoch == epoch)
                    health.injectLoss(epoch, ev.node);
            }
            std::vector<std::vector<serve::InferenceRequest>> sub(
                static_cast<std::size_t>(cfg.shards));
            for (std::size_t i = begin;
                 i < std::min(begin + per_epoch, trace.size()); ++i) {
                if (got.routes[i].node >= 0)
                    sub[static_cast<std::size_t>(got.routes[i].node)]
                        .push_back(trace[i]);
            }
            const std::size_t logged = health.transitions().size();
            for (std::size_t n = 0; n < sub.size(); ++n) {
                double error_rate = 0.0;
                if (!sub[n].empty()) {
                    const serve::ServeResult r = alone[n]->run(sub[n]);
                    std::uint64_t reads = 0;
                    std::uint64_t clean = 0;
                    for (const serve::BatchRecord &b : r.batches) {
                        reads += b.resilience.reads;
                        clean += b.resilience.cleanReads;
                        flips += b.residualFlips;
                    }
                    if (reads > 0)
                        error_rate = static_cast<double>(reads - clean) /
                                     static_cast<double>(reads);
                    for (const serve::RequestOutcome &out : r.outcomes)
                        outcomes[index.at(out.id)] = out;
                    totals[n].admitted += r.stats.total.admitted;
                    totals[n].correct += r.stats.total.correct;
                    totals[n].retries += r.stats.total.retries;
                    totals[n].energyPj += r.stats.total.energyPj;
                    totals[n].latencyTicksSum +=
                        r.stats.total.latencyTicksSum;
                }
                health.observeEpoch(epoch, static_cast<int>(n), error_rate,
                                    !sub[n].empty());
            }
            for (std::size_t t = logged; t < health.transitions().size();
                 ++t) {
                const NodeTransition &tr = health.transitions()[t];
                if (tr.to == NodeState::Down)
                    alone[static_cast<std::size_t>(tr.node)]
                        ->resetWorkerBacklog();
            }
        }

        EXPECT_EQ(got.outcomes, outcomes);
        EXPECT_EQ(got.transitions, health.transitions());
        EXPECT_GE(got.stats.transitions, 1u);
        if (open_loop) {
            EXPECT_GT(flips, 0u);
        }
        std::set<std::string> tenants;
        for (const serve::InferenceRequest &req : trace)
            tenants.insert(req.tenant);
        for (std::size_t n = 0; n < alone.size(); ++n) {
            const serve::TenantStats &node = got.stats.perNode[n].serve;
            EXPECT_EQ(node.admitted, totals[n].admitted);
            EXPECT_EQ(node.correct, totals[n].correct);
            EXPECT_EQ(node.retries, totals[n].retries);
            EXPECT_EQ(node.energyPj, totals[n].energyPj);
            EXPECT_EQ(node.latencyTicksSum, totals[n].latencyTicksSum);
            EXPECT_EQ(got.stats.perNode[n].finalEwma,
                      health.ewma(static_cast<int>(n)));
            for (const std::string &t : tenants) {
                EXPECT_EQ(cl.node(static_cast<int>(n)).planner().tenantEwma(t),
                          alone[n]->planner().tenantEwma(t));
                EXPECT_EQ(cl.node(static_cast<int>(n)).planner().tenantStep(t),
                          alone[n]->planner().tenantStep(t));
            }
        }
    }
}

TEST_F(ClusterTest, NodesShareOneSlotNetworkPerThread)
{
    // One staging image and one pool of slot networks serve every
    // node: never more networks than execution threads, and one image
    // build however many runs and nodes stage it.
    const auto trace = makeTrace(48);
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        auto cl = makeCluster(smallConfig(threads));
        cl.run(trace);
        cl.run(trace);
        const fi::StagedWeightsCache &pool = cl.staging();
        for (int i = 0; i < cl.config().shards; ++i) {
            EXPECT_EQ(cl.node(i).staging().builds(), 0u);
            EXPECT_EQ(cl.node(i).staging().slotNetworks(), 0u);
        }
        EXPECT_GE(pool.slotNetworks(), 1u);
        EXPECT_LE(pool.slotNetworks(), static_cast<std::size_t>(threads));
        EXPECT_EQ(pool.builds(), 1u);
    }
}

TEST_F(ClusterTest, RoutingHonorsHealthCapacityAndReplicaGroups)
{
    const auto trace = makeTrace(48);
    auto cl = makeCluster(smallConfig(4));
    const auto r = cl.run(trace);

    ASSERT_EQ(r.routes.size(), trace.size());
    ASSERT_EQ(r.outcomes.size(), trace.size());
    std::map<std::pair<std::uint64_t, int>, std::size_t> epoch_load;
    for (std::size_t i = 0; i < r.routes.size(); ++i) {
        const RouteRecord &rec = r.routes[i];
        EXPECT_EQ(rec.id, trace[i].id);
        if (rec.status == RouteStatus::ShedCluster) {
            EXPECT_EQ(rec.node, -1);
            EXPECT_FALSE(r.outcomes[i].admitted);
            EXPECT_EQ(r.outcomes[i].shedReason,
                      serve::ShedReason::QueueFull);
            continue;
        }
        ASSERT_GE(rec.node, 0);
        ASSERT_LT(rec.node, cl.config().shards);
        ++epoch_load[{rec.epoch, rec.node}];
        if (rec.status == RouteStatus::Primary)
            EXPECT_EQ(rec.node, rec.primary);
        else
            EXPECT_NE(rec.node, rec.primary);
    }
    // No (epoch, node) cell ever exceeded the stretched admission
    // bound: at worst ceil(cap * shards / accepting) with one node out.
    const std::size_t cap = cl.config().shardQueueCapacity;
    const auto stretched =
        (cap * 3 + 1) / 2; // 3 shards, >= 2 accepting
    for (const auto &[cell, load] : epoch_load)
        EXPECT_LE(load, stretched);

    // Accounting is consistent with the route records.
    EXPECT_EQ(r.stats.requests, trace.size());
    EXPECT_EQ(r.stats.routedPrimary + r.stats.routedSpill +
                  r.stats.routedFailover + r.stats.shedCluster,
              trace.size());
}

TEST_F(ClusterTest, LostNodeStopsServingUntilItRejoins)
{
    const auto trace = makeTrace(48);
    auto cl = makeCluster(smallConfig(4));
    const auto r = cl.run(trace);

    // Epoch 1 injected the loss: nothing routes to node 0 during the
    // outage epochs, and traffic for its tenants fails over.
    bool node0_served_during_outage = false;
    std::uint64_t failed_over = 0;
    for (const RouteRecord &rec : r.routes) {
        if (rec.epoch == 1 && rec.node == 0)
            node0_served_during_outage = true;
        if (rec.status == RouteStatus::FailedOver)
            ++failed_over;
    }
    EXPECT_FALSE(node0_served_during_outage);
    EXPECT_GT(failed_over, 0u);

    // The injected loss is in the log with its cause.
    const auto &log = r.transitions;
    ASSERT_FALSE(log.empty());
    EXPECT_EQ(log[0].node, 0);
    EXPECT_EQ(log[0].to, NodeState::Down);
    EXPECT_EQ(log[0].cause, FailoverCause::InjectedLoss);
}

TEST_F(ClusterTest, ValidatesTracePreconditions)
{
    auto cl = makeCluster(smallConfig(1));
    auto trace = makeTrace(8);
    std::swap(trace[0], trace[7]); // arrival ticks out of order
    EXPECT_THROW(cl.run(trace), FatalError);

    trace = makeTrace(8);
    trace[3].id = trace[2].id; // duplicate id
    EXPECT_THROW(cl.run(trace), FatalError);
}

} // namespace
} // namespace vboost::cluster
