/**
 * @file
 * Golden fingerprints of the two serving tiers: a standalone
 * InferenceServer and a ServingCluster (three nodes, node 0 lost at
 * the second routing epoch), each serving one trace twice, so the
 * second run continues the tenants' planner feedback trajectories and
 * the worker slots' carried backlog. Pinned per run: the
 * ServerStats / ClusterStats fingerprint; after both runs: the
 * metrics and trace fingerprints of the attached sink (for the
 * cluster, the sink the node sinks merge into). Closed loop at a low
 * rail makes the resilient pipeline retry and escalate; open loop at
 * 0.44 V leaves residual flips in the slot networks. Every case must
 * give the same constants at 1 and 3 threads. Sizes are fixed (never
 * scaled for TSan), so the constants hold in every build.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "obs/observability.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace vboost::serve {
namespace {

constexpr double kFaultFree = 0.9;

/** Accuracy-vs-Vddv stub: 0 below 0.30 V, the fault-free ceiling
 *  above 0.58 V, linear in between. */
double
stubAccuracy(Volt vddv)
{
    const double t =
        std::clamp((vddv.value() - 0.30) / 0.28, 0.0, 1.0);
    return kFaultFree * t;
}

/** Fingerprints of two runs and of the sink they published into. */
struct ServingDigests
{
    std::uint64_t first;
    std::uint64_t second;
    std::uint64_t metrics;
    std::uint64_t trace;
};

class ServingGoldenFixture : public ::testing::Test
{
  protected:
    ServingGoldenFixture()
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

    /** Low rails and loose accuracy targets, so batches see faults and
     *  the feedback loop has error rates to act on. */
    OperatingPointPlanner makePlanner() const
    {
        PlannerConfig pcfg;
        pcfg.vddGrid = {Volt(0.40), Volt(0.44), Volt(0.50)};
        pcfg.accuracyFraction = {0.3, 0.2, 0.1};
        InferenceFootprint fp;
        fp.weightAccesses = act_.weightAccesses;
        fp.inputAccesses = act_.inputAccesses;
        fp.psumAccesses = act_.psumAccesses;
        fp.computeOps = act_.macs;
        return OperatingPointPlanner(ctx_, 16, &stubAccuracy, kFaultFree,
                                     fp, pcfg);
    }

    static ServerConfig nodeConfig(int threads, bool open_loop)
    {
        ServerConfig cfg;
        cfg.queueCapacity = 16;
        cfg.batcher.maxBatchSize = 4;
        cfg.batcher.maxWaitTicks = 2000;
        cfg.workerSlots = 2;
        cfg.feedbackInterval = 2;
        cfg.numThreads = threads;
        cfg.policy = open_loop ? resilience::ResiliencePolicy::openLoop()
                               : resilience::ResiliencePolicy::closedLoop();
        return cfg;
    }

    std::vector<InferenceRequest> makeTrace() const
    {
        TraceConfig cfg;
        cfg.requestsPerTick = 0.004;
        cfg.numRequests = 48;
        cfg.seed = 42;
        cfg.tenants = scaledTenantMix(6).tenants;
        cfg.samplePoolSize = pool_.size();
        return generatePoissonTrace(cfg);
    }

    ServingDigests serveTwice(int threads, bool open_loop)
    {
        InferenceServer server(ctx_, net_, pool_, act_, makePlanner(),
                               nodeConfig(threads, open_loop));
        obs::Observability o;
        server.attachObservability(&o, 1, {{"suite", "golden"}});
        const auto trace = makeTrace();
        ServingDigests d{};
        d.first = server.run(trace).stats.fingerprint();
        d.second = server.run(trace).stats.fingerprint();
        d.metrics = o.metrics.fingerprint();
        d.trace = o.trace.fingerprint();
        return d;
    }

    ServingDigests clusterTwice(int threads, bool open_loop)
    {
        cluster::ClusterConfig cfg;
        cfg.shards = 3;
        cfg.replicas = 2;
        cfg.epochRequests = 12;
        cfg.shardQueueCapacity = 6;
        cfg.node = nodeConfig(threads, open_loop);
        cfg.lossEvents = {{1, 0}};
        cluster::ServingCluster cl(ctx_, net_, pool_, act_, makePlanner(),
                                   cfg);
        obs::Observability o;
        cl.attachObservability(&o, {{"suite", "golden"}});
        const auto trace = makeTrace();
        ServingDigests d{};
        d.first = cl.run(trace).stats.fingerprint();
        d.second = cl.run(trace).stats.fingerprint();
        d.metrics = o.metrics.fingerprint();
        d.trace = o.trace.fingerprint();
        return d;
    }

    static void
    expectDigests(const ServingDigests &got, const ServingDigests &want)
    {
        EXPECT_EQ(got.first, want.first);
        EXPECT_EQ(got.second, want.second);
        EXPECT_EQ(got.metrics, want.metrics);
        EXPECT_EQ(got.trace, want.trace);
    }

    core::SimContext ctx_;
    dnn::Network net_;
    dnn::Dataset pool_;
    accel::LayerActivity act_;
};

using ServeGolden = ServingGoldenFixture;
using ClusterGolden = ServingGoldenFixture;

TEST_F(ServeGolden, ClosedLoop)
{
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        expectDigests(serveTwice(threads, false),
                      {0xf8283fd3d304ffe4ull, 0x7fe86a9d434d154full,
                       0x951c9bcef88234fcull, 0x99451c5fa4acd88full});
    }
}

TEST_F(ServeGolden, OpenLoop)
{
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        expectDigests(serveTwice(threads, true),
                      {0x7b0cec7c9c074fedull, 0x5d3ccc49c803788ull,
                       0x935e853ec503d8b0ull, 0xd8798942be53a0fbull});
    }
}

TEST_F(ClusterGolden, ClosedLoop)
{
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        expectDigests(clusterTwice(threads, false),
                      {0x19ae34b03f01294cull, 0x7eefe05af3fdeee7ull,
                       0x4b790919626d3d0full, 0xe27ce8e09b033a0eull});
    }
}

TEST_F(ClusterGolden, OpenLoop)
{
    for (const int threads : {1, 3}) {
        SCOPED_TRACE(threads);
        expectDigests(clusterTwice(threads, true),
                      {0xd55a8636683db7c0ull, 0x42e41c362b530295ull,
                       0x5c44c7dfd0ad5ebeull, 0xda0c72a41cc6224aull});
    }
}

} // namespace
} // namespace vboost::serve
