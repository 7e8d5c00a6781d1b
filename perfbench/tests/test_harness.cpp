/**
 * @file
 * Tests of the benchmark's own machinery: sample summaries on known
 * inputs, self time on nested spans, digest checking against reference
 * and repeated values, and the determinism of windowed cluster replays
 * the serve_cluster workload relies on. The end-to-end check that a
 * perturbed reference digest fails the command lives in test_run.py.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "accel/dataflow.hpp"
#include "cluster/cluster.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/zoo.hpp"
#include "harness.hpp"
#include "serve/planner.hpp"
#include "serve/trace.hpp"
#include "workloads.hpp"

using namespace vboost;
using namespace vboost::perfbench;

TEST(Summary, PercentilesOnKnownInputs)
{
    const std::vector<double> v{10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_DOUBLE_EQ(median(v), 5.5);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.9), 9.1);
    EXPECT_DOUBLE_EQ(median({4.0}), 4.0);
    EXPECT_THROW(percentile({}, 0.5), std::exception);
}

TEST(Summary, TailPercentileNeedsTenSamplesBeyondIt)
{
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    Summary s = summarize(v);
    EXPECT_EQ(s.count, 99u);
    EXPECT_DOUBLE_EQ(s.median, 50.0);
    EXPECT_DOUBLE_EQ(s.tailQuantile, 0.5); // p90 would have 9.9 beyond

    v.push_back(100);
    s = summarize(v);
    EXPECT_EQ(s.count, 100u);
    EXPECT_DOUBLE_EQ(s.tailQuantile, 0.9);
    EXPECT_DOUBLE_EQ(s.tail, 90.1);
    EXPECT_NE(describe(s).find("n=100"), std::string::npos);

    std::vector<double> big(1000, 1.0);
    EXPECT_DOUBLE_EQ(summarize(big).tailQuantile, 0.99);
}

TEST(Spans, SelfTimeOfNestedSpans)
{
    SpanRecorder rec;
    const int root = rec.add("bench.unit", 0, 100, -1);
    const int a = rec.add("fi.mc_point", 10, 40, root);
    rec.add("dnn.forward", 15, 25, a);
    rec.add("dnn.backend.gemm", 50, 70, root);

    const auto by_name = rec.selfSecondsByName();
    EXPECT_DOUBLE_EQ(by_name.at("bench.unit"), 50e-9);
    EXPECT_DOUBLE_EQ(by_name.at("fi.mc_point"), 20e-9);
    EXPECT_DOUBLE_EQ(by_name.at("dnn.forward"), 10e-9);
    EXPECT_DOUBLE_EQ(by_name.at("dnn.backend.gemm"), 20e-9);

    const auto by_layer = rec.selfSecondsByLayer();
    EXPECT_DOUBLE_EQ(by_layer.at("bench"), 50e-9);
    EXPECT_DOUBLE_EQ(by_layer.at("fi"), 20e-9);
    EXPECT_DOUBLE_EQ(by_layer.at("dnn"), 30e-9);
}

TEST(Spans, ScopesNestAndDisabledRecorderRecordsNothing)
{
    SpanRecorder rec;
    rec.setRun(7);
    {
        SpanRecorder::Scope outer(rec, "bench.unit");
        SpanRecorder::Scope inner(rec, "fi.stage");
    }
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].run, 7u);
    EXPECT_GE(rec.spans()[0].seconds(), rec.spans()[1].seconds());

    std::ostringstream chrome;
    rec.writeChromeTrace(chrome);
    EXPECT_NE(chrome.str().find("\"fi.stage\""), std::string::npos);

    SpanRecorder off(false);
    {
        SpanRecorder::Scope s(off, "bench.unit");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Digests, PerturbedReferenceFailsAndRepeatsMustMatch)
{
    const auto path =
        (std::filesystem::temp_directory_path() / "perfbench_ref_test.txt")
            .string();
    ReferenceDigests table;
    table.set(1, "serve_cluster", {0x11, 0x22});
    table.save(path);

    const ReferenceDigests ref = ReferenceDigests::load(path);
    DigestChecker ok(ref, 1, "serve_cluster");
    EXPECT_TRUE(ok.check(0, 0x11));
    EXPECT_TRUE(ok.check(1, 0x22));
    EXPECT_TRUE(ok.check(0, 0x11)); // a repeat of item 0
    EXPECT_EQ(ok.referenceItems(), 2u);

    // Perturb one stored digest: the same outputs now fail.
    std::string text;
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    text.replace(text.find("0x22"), 4, "0x23");
    std::ofstream(path) << text;
    const ReferenceDigests perturbed = ReferenceDigests::load(path);
    DigestChecker bad(perturbed, 1, "serve_cluster");
    EXPECT_TRUE(bad.check(0, 0x11));
    EXPECT_FALSE(bad.check(1, 0x22));

    // Seeds without reference values still check repeat stability.
    DigestChecker other(perturbed, 2, "serve_cluster");
    EXPECT_TRUE(other.check(0, 0x99));
    EXPECT_FALSE(other.check(0, 0x98));
    EXPECT_EQ(other.referenceItems(), 0u);
    std::remove(path.c_str());
}

TEST(ServeCluster, WindowedReplaysWithOneSeedHaveEqualFingerprints)
{
    const auto ctx = core::SimContext::standard();
    Rng init(7);
    dnn::Network net = dnn::buildMnistFc(init);
    const dnn::Dataset pool =
        dnn::makeSyntheticMnist(64, deriveSeed(5, 1));
    const auto activity = accel::totalActivity(
        accel::DanaFcModel().networkActivity(dnn::mnistFcLayerSizes()));
    serve::InferenceFootprint fp;
    fp.weightAccesses = activity.weightAccesses;
    fp.inputAccesses = activity.inputAccesses;
    fp.psumAccesses = activity.psumAccesses;
    fp.computeOps = activity.macs;
    const serve::OperatingPointPlanner planner(
        ctx, 16, [](Volt v) { return v.value() > 0.44 ? 0.9 : 0.5; }, 0.9,
        fp);

    serve::TraceConfig tcfg;
    tcfg.requestsPerTick = 0.04;
    tcfg.numRequests = 128;
    tcfg.seed = deriveSeed(5, 3);
    tcfg.tenants = serve::scaledTenantMix(6).tenants;
    tcfg.samplePoolSize = pool.size();
    const auto trace = serve::generatePoissonTrace(tcfg);

    cluster::ClusterConfig cfg;
    cfg.shards = 4;
    cfg.replicas = 3;
    cfg.epochRequests = 64;
    cfg.shardQueueCapacity = 16;
    cfg.node.numThreads = kWorkloadThreads;
    cfg.node.seed = deriveSeed(5, 4);
    cfg.failover.downEpochs = 1;
    cfg.lossEvents = {{1, 0}};

    const auto replay = [&] {
        cluster::ServingCluster cl(ctx, net, pool, activity, planner, cfg);
        std::vector<std::uint64_t> fps;
        for (std::size_t w = 0; w * 64 < trace.size(); ++w) {
            const std::vector<serve::InferenceRequest> window(
                trace.begin() + static_cast<std::ptrdiff_t>(w * 64),
                trace.begin() + static_cast<std::ptrdiff_t>(w * 64 + 64));
            fps.push_back(cl.run(window).stats.fingerprint());
        }
        return fps;
    };
    const auto first = replay();
    const auto second = replay();
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first, second);
    EXPECT_NE(first[0], first[1]); // node 0 is lost at the second window
}

TEST(Seeds, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(deriveSeed(1, 2), deriveSeed(1, 2));
    EXPECT_NE(deriveSeed(1, 2), deriveSeed(1, 3));
    EXPECT_NE(deriveSeed(1, 2), deriveSeed(2, 2));
}

TEST(Metrics, ResultLineHasExactlyTheContractKeys)
{
    Metrics m;
    m["setup_s"] = {0.5, "s"};
    m["host_items_per_s"] = {1234.5678, "1/s"};
    const std::string line = resultLine(true, 12, 0, m);
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"host_items_per_s\": {\"value\": 1234.5678, "
              "\"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.5, "
              "\"unit\": \"s\"}}}");
}
