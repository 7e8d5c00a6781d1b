/**
 * @file
 * Perf-trajectory harness (DESIGN.md §12): per-kernel ns/op for both
 * compute backends, one MNIST FC training epoch and one served batch
 * per backend, the served batch's resilient staging alone, one warm
 * serving-cluster window, plus the fig14 AlexNet end-to-end
 * measurement phase,
 * emitted as schema-versioned JSON (--json, schema
 * "vboost-bench-perf/1") with the host it ran on (CPU model, ISA tier,
 * compiler, build type). tools/bench_compare checks a run against the
 * committed baseline bench/BENCH_perf.json and fails CI on
 * regression.
 *
 * Methodology: every sample is min-of-repeats wall time over a fixed
 * deterministic workload (no time-based calibration, so the measured
 * work is identical run to run). `fig14_e2e` times the Monte-Carlo
 * measurement phase of bench_fig14_alexnet — the fault-injection
 * sweep plus accuracy-curve sampling on the cached trained model —
 * per backend; one-time setup (model training/load, synthetic test
 * set synthesis) runs before the timed region because it is shared
 * verbatim by both backends. The derived fig14_speedup_vec_over_ref
 * entry carries the >= 5x acceptance floor as a hard min-gate. The
 * harness also cross-checks that both backends produce bitwise-equal
 * accuracy curves, so every perf run doubles as an equivalence smoke.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "accel/dataflow.hpp"
#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/fixed_point.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/context.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/dataset.hpp"
#include "dnn/tensor.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"
#include "fi/accuracy_curve.hpp"
#include "fi/experiment.hpp"
#include "fi/injector.hpp"
#include "json_writer.hpp"
#include "resilience/resilient_memory.hpp"
#include "serve/planner.hpp"
#include "serve/trace.hpp"
#include "sram/banked_memory.hpp"
#include "sram/fault_map.hpp"

namespace {

using namespace vboost;
using Clock = std::chrono::steady_clock;

/** One measured (or derived) sample of the trajectory. */
struct PerfEntry
{
    std::string kernel;
    std::string backend;
    /** "hard" entries fail bench_compare on regression; "soft" ones
     *  only warn (runner-noise-prone kernels). */
    std::string gate = "soft";
    double nsPerOp = 0.0;
    /** Work items (bits, MACs, elements...) per op, for throughput. */
    std::uint64_t itemsPerOp = 0;
    /** Derived ratios carry a value + optional hard floor instead. */
    bool derived = false;
    double value = 0.0;
    double minGate = 0.0;
};

/** Minimum wall-clock ns per op over `repeats` runs of `iters` calls. */
template <typename F>
double
minNsPerOp(int repeats, int iters, F &&fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i)
            fn();
        const auto t1 = Clock::now();
        const double ns = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        best = std::min(best, ns / iters);
    }
    return best;
}

/** Defeat dead-code elimination across timed kernels. */
volatile std::uint64_t g_sink = 0;

/** Backend-independent kernels (the raw fault-map query). */
void
scalarSuite(const bench::BenchOptions &opts, std::vector<PerfEntry> &out)
{
    const int iters = opts.smoke ? 100000 : 1000000;
    const sram::VulnerabilityMap map(1, 0);
    std::uint64_t cell = 0;
    const double ns = minNsPerOp(3, iters, [&] {
        g_sink = g_sink + static_cast<std::uint64_t>(map.isFaulty(cell++, 0.01));
    });
    out.push_back({"fault_map_query", "scalar", "soft", ns, 1});
}

/** Micro-kernel suite for one backend. */
void
microSuite(const dnn::Backend &b, const bench::BenchOptions &opts,
           std::vector<PerfEntry> &out)
{
    const std::string name(b.name());
    const int scale = opts.smoke ? 4 : 1;

    // fused_corrupt_dequant: the fault-injection hot loop (corrupt +
    // dequantize in one pass). The optimized (non-reference) copy is
    // the hard regression gate; the scalar copy stays soft — nobody
    // tunes it, and its ns/op swings with host load.
    {
        constexpr std::size_t kWords = 65536;
        const sram::VulnerabilityMap map(1, 0);
        const dnn::FaultWindow win{0, kWords * 16, 0};
        const FixedPointCodec codec(12);
        std::vector<std::int16_t> words(kWords, 0x1234);
        std::vector<std::int16_t> scratch;
        std::vector<float> decoded(kWords);
        Rng rng(3);
        const double ns = minNsPerOp(3, 4 / scale + 1, [&] {
            scratch = words;
            g_sink = g_sink + b.applyFaultMapDequant(scratch, codec,
                                             decoded.data(), map, win,
                                             {0.01, 0.5}, rng);
        });
        out.push_back({"fused_corrupt_dequant", name,
                       name == "reference" ? "soft" : "hard", ns,
                       kWords * 16});
    }

    // gemm_256: square GEMM, the conv/dense compute core.
    {
        constexpr int kN = 256;
        Rng rng(4);
        const auto a = dnn::Tensor::randn({kN, kN}, rng, 1.0);
        const auto bb = dnn::Tensor::randn({kN, kN}, rng, 1.0);
        dnn::Tensor c({kN, kN});
        const double ns = minNsPerOp(3, 8 / scale + 1, [&] {
            b.gemm(a.data(), bb.data(), c.data(), kN, kN, kN,
                   /*accumulate=*/false);
            g_sink = g_sink + static_cast<std::uint64_t>(c[0] != 0.0f);
        });
        out.push_back({"gemm_256", name, "soft", ns,
                       static_cast<std::uint64_t>(kN) * kN * kN});
    }

    // backward_gemm: one Dense backward of the MNIST FC's 256x256
    // layer at batch 64 — dW += x^T g (x post-ReLU, half exact zeros)
    // and dx = g W^T.
    {
        constexpr int kB = 64, kIn = 256, kOut = 256;
        Rng rng(7);
        auto x = dnn::Tensor::randn({kB, kIn}, rng, 1.0);
        b.relu(x.data(), x.data(), x.numel());
        const auto g = dnn::Tensor::randn({kB, kOut}, rng, 0.01);
        const auto w = dnn::Tensor::randn({kIn, kOut}, rng, 0.1);
        dnn::Tensor dw({kIn, kOut});
        dnn::Tensor dx({kB, kIn});
        std::vector<float> scratch;
        const double ns = minNsPerOp(3, 16 / scale, [&] {
            b.gemmTransA(x.data(), g.data(), dw.data(), kIn, kB, kOut,
                         /*accumulate=*/true);
            b.gemmTransB(g.data(), w.data(), dx.data(), kB, kOut, kIn,
                         /*accumulate=*/false, scratch);
            g_sink = g_sink + static_cast<std::uint64_t>(dx[0] != 0.0f);
        });
        out.push_back({"backward_gemm", name, "soft", ns,
                       2ull * kB * kIn * kOut});
    }

    // im2col_conv: one conv2-shaped image (16ch 16x16, 5x5 kernel).
    {
        const dnn::ConvGeom g{16, 24, 5, 2, 16, 16};
        Rng rng(5);
        const auto img = dnn::Tensor::randn({g.inCh, g.h, g.w}, rng, 1.0);
        const auto wts = dnn::Tensor::randn({g.outCh, g.patch()}, rng, 0.1);
        const auto bias = dnn::Tensor::randn({g.outCh}, rng, 0.1);
        std::vector<float> outbuf(
            static_cast<std::size_t>(g.outCh) * g.spatial());
        std::vector<float> cols;
        const double ns = minNsPerOp(3, 64 / scale, [&] {
            b.im2colConv(img.data(), wts.data(), bias.data(), outbuf.data(),
                         g, cols);
            g_sink = g_sink + static_cast<std::uint64_t>(outbuf[0] != 0.0f);
        });
        out.push_back({"im2col_conv", name, "soft", ns,
                       static_cast<std::uint64_t>(g.outCh) * g.patch() *
                           g.spatial()});
    }

    // maxpool_2x2: a conv1-sized activation batch.
    {
        Rng rng(6);
        const auto x = dnn::Tensor::randn({32, 16, 32, 32}, rng, 1.0);
        dnn::Tensor y({32, 16, 16, 16});
        const double ns = minNsPerOp(3, 32 / scale, [&] {
            b.maxPool2x2(x.data(), y.data(), 32, 16, 32, 32);
            g_sink = g_sink + static_cast<std::uint64_t>(y[0] != 0.0f);
        });
        out.push_back({"maxpool_2x2", name, "soft", ns, x.numel()});
    }
}

/**
 * train_epoch: one SGD epoch of the MNIST FC per backend, from the
 * same initial weights, min over repeats. The trained weights must be
 * bitwise-equal across backends (the §12 contract on the training
 * path).
 */
void
trainEpochSuite(const std::vector<const dnn::Backend *> &backends,
                const bench::BenchOptions &opts, std::vector<PerfEntry> &out)
{
    const int samples = opts.smoke ? 256 : 2048;
    const dnn::Dataset train = dnn::makeSyntheticMnist(samples, 11);
    std::vector<float> first;
    for (const dnn::Backend *b : backends) {
        if (!dnn::setActiveBackend(b->name()))
            fatal("perf harness: backend ", b->name(), " vanished");
        std::vector<float> weights;
        const double ns = minNsPerOp(opts.smoke ? 1 : 2, 1, [&] {
            Rng init(3);
            dnn::Network net = dnn::buildMnistFc(init);
            dnn::TrainConfig cfg;
            cfg.epochs = 1;
            cfg.numThreads = opts.threads;
            Rng rng(5);
            dnn::SgdTrainer(cfg).train(net, train, rng);
            weights.clear();
            for (const auto &p : net.params())
                weights.insert(weights.end(), p.value->data(),
                               p.value->data() + p.value->numel());
        });
        if (first.empty())
            first = weights;
        else if (std::memcmp(first.data(), weights.data(),
                             first.size() * sizeof(float)) != 0)
            fatal("perf harness: backends disagree on the trained MNIST "
                  "FC weights — bitwise contract violated");
        out.push_back({"train_epoch", std::string(b->name()), "soft", ns,
                       static_cast<std::uint64_t>(samples)});
    }
    dnn::setActiveBackend("auto");
}

/**
 * serve_batch: one served batch of the MNIST FC per backend, as a
 * serve::InferenceServer slot executes it: restart the closed-loop
 * weight memory's runtime state, stage the weights through it at
 * 0.44 V with the kept staging image and the slot's undo record
 * (fi::corruptNetworkResilient), then predict a batch of 3. The
 * memory's fault masks and the record carry over between batches, as
 * in a slot. Predictions must be bitwise-equal across backends.
 */
void
serveBatchSuite(const std::vector<const dnn::Backend *> &backends,
                const bench::BenchOptions &opts, std::vector<PerfEntry> &out)
{
    constexpr int kBatch = 3;
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(1, 0);
    Rng init(3);
    dnn::Network net = dnn::buildMnistFc(init);
    dnn::Network scratch = net.clone();
    const fi::StagedWeights image = fi::stageWeights(net);
    const dnn::Dataset batch = dnn::makeSyntheticMnist(kBatch, 13);
    sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech, failure);
    resilience::ResilientMemory rmem(
        mem, ctx, resilience::ResiliencePolicy::closedLoop());
    fi::StagingUndo undo;
    std::vector<int> first;
    for (const dnn::Backend *b : backends) {
        if (!dnn::setActiveBackend(b->name()))
            fatal("perf harness: backend ", b->name(), " vanished");
        std::vector<int> predictions;
        const double ns = minNsPerOp(3, opts.smoke ? 5 : 50, [&] {
            mem.resetCounters();
            rmem.resetRuntimeState();
            rmem.reseed(Rng(17));
            g_sink = g_sink + fi::corruptNetworkResilient(
                                  scratch, net, image, rmem, Volt(0.44), map,
                                  &undo);
            predictions = scratch.predict(batch.images);
        });
        if (first.empty())
            first = predictions;
        else if (predictions != first)
            fatal("perf harness: backends disagree on the served batch's "
                  "predictions — bitwise contract violated");
        out.push_back({"serve_batch", std::string(b->name()), "soft", ns,
                       static_cast<std::uint64_t>(kBatch)});
    }
    dnn::setActiveBackend("auto");
}

/**
 * stage_groups: the resilient staging layer of serve_batch alone —
 * ResilientMemory::stageGroups over the MNIST FC staging image at
 * 0.44 V, one call and one slow-codeword report per layer as
 * fi::corruptNetworkResilient stages them, on a closed-loop memory
 * reset per op as a serving slot resets it. Backend-independent.
 */
void
stageGroupsSuite(const bench::BenchOptions &opts, std::vector<PerfEntry> &out)
{
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    const sram::VulnerabilityMap map(1, 0);
    Rng init(3);
    dnn::Network net = dnn::buildMnistFc(init);
    const fi::StagedWeights image = fi::stageWeights(net);
    std::vector<resilience::SlowRead> slow;
    sram::BankedMemory mem("weight_mem", 16, ctx.design, ctx.tech, failure);
    resilience::ResilientMemory rmem(
        mem, ctx, resilience::ResiliencePolicy::closedLoop());
    const double ns = minNsPerOp(3, opts.smoke ? 5 : 50, [&] {
        mem.resetCounters();
        rmem.resetRuntimeState();
        rmem.reseed(Rng(17));
        for (const fi::StagedWeights::Layer &layer : image.layers) {
            const std::size_t first = layer.firstGroup;
            rmem.stageGroups(first, image.groups.data() + first,
                             image.checks.data() + first,
                             (layer.words + 3) / 4, Volt(0.44), map, slow);
            g_sink = g_sink + slow.size();
        }
    });
    out.push_back({"stage_groups", "scalar", "soft", ns,
                   static_cast<std::uint64_t>(image.groups.size())});
}

/**
 * cluster_window: one warm routing window of serve_cluster's shape —
 * a 4-shard, 3-replica cluster::ServingCluster serving 64 requests of
 * a 24-tenant Zipf trace on the untrained MNIST FC, planned with a
 * fixed accuracy function, node 0 lost at the timed window. Each op
 * builds a fresh cluster and serves one window untimed (staging image,
 * packed fault masks) before the timed one, so every op does the same
 * work. Runs on the default backend; the fingerprint must repeat.
 */
void
clusterWindowSuite(const bench::BenchOptions &opts,
                   std::vector<PerfEntry> &out)
{
    constexpr int kWindow = 64;
    const auto ctx = core::SimContext::standard();
    Rng init(3);
    dnn::Network net = dnn::buildMnistFc(init);
    const dnn::Dataset pool = dnn::makeSyntheticMnist(256, 19);
    const auto per_inference = accel::totalActivity(
        accel::DanaFcModel().networkActivity({784, 256, 256, 256, 32}));
    serve::InferenceFootprint footprint;
    footprint.weightAccesses = per_inference.weightAccesses;
    footprint.inputAccesses = per_inference.inputAccesses;
    footprint.psumAccesses = per_inference.psumAccesses;
    footprint.computeOps = per_inference.macs;
    constexpr double kFaultFree = 0.9;
    const serve::OperatingPointPlanner planner(
        ctx, 16,
        [](Volt vddv) {
            return kFaultFree *
                   std::clamp((vddv.value() - 0.30) / 0.28, 0.0, 1.0);
        },
        kFaultFree, footprint);

    serve::TraceConfig trace_cfg;
    trace_cfg.requestsPerTick = 40000.0 / 1e6;
    trace_cfg.numRequests = 2 * kWindow;
    trace_cfg.tenants = serve::scaledTenantMix(24).tenants;
    trace_cfg.samplePoolSize = pool.size();
    const auto trace = serve::generatePoissonTrace(trace_cfg);
    const std::vector<serve::InferenceRequest> warm(
        trace.begin(), trace.begin() + kWindow);
    const std::vector<serve::InferenceRequest> timed(
        trace.begin() + kWindow, trace.end());

    cluster::ClusterConfig cfg;
    cfg.shards = 4;
    cfg.replicas = 3;
    cfg.epochRequests = kWindow;
    cfg.shardQueueCapacity = kWindow / 4;
    cfg.node.numThreads = opts.threads;
    cfg.node.queueCapacity = kWindow;
    cfg.node.batcher.maxWaitTicks = 4000;
    cfg.failover.downEpochs = 1;
    cfg.lossEvents = {{1, 0}};

    double best = std::numeric_limits<double>::infinity();
    std::uint64_t fingerprint = 0;
    for (int r = 0; r < (opts.smoke ? 2 : 10); ++r) {
        cluster::ServingCluster cl(ctx, net, pool, per_inference, planner,
                                   cfg);
        cl.run(warm);
        const auto t0 = Clock::now();
        const cluster::ClusterResult result = cl.run(timed);
        const auto t1 = Clock::now();
        best = std::min(
            best, static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          t1 - t0)
                          .count()));
        if (r == 0)
            fingerprint = result.stats.fingerprint();
        else if (result.stats.fingerprint() != fingerprint)
            fatal("perf harness: cluster window fingerprint changed "
                  "between repeats — nondeterminism");
    }
    out.push_back({"cluster_window", "auto", "soft", best,
                   static_cast<std::uint64_t>(kWindow)});
}

/** Where the numbers were measured: bench_compare flags a baseline
 *  recorded on a different host. */
struct HostInfo
{
    std::string cpu = "unknown";
    std::string isa = "scalar";
    std::string compiler = "unknown";
    std::string buildType = VBOOST_BUILD_TYPE;
};

HostInfo
hostInfo()
{
    HostInfo h;
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        const std::string s(brand);
        const auto b = s.find_first_not_of(' ');
        if (b != std::string::npos)
            h.cpu = s.substr(b, s.find_last_not_of(' ') - b + 1);
    }
    // The vectorized backend registers only on AVX2 builds and CPUs;
    // its AVX-512 GEMM tier needs that translation unit and the CPU.
    if (dnn::findBackend("vectorized") != nullptr) {
        __builtin_cpu_init();
        h.isa = VBOOST_AVX512_TU && __builtin_cpu_supports("avx512f")
                    ? "avx2+avx512f"
                    : "avx2";
    }
#endif
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#endif
    return h;
}

/** One round of the fig14 measurement phase under one backend:
 *  returns wall nanoseconds and appends the sampled accuracies plus
 *  the fault-free accuracy to `digest` for the cross-backend bitwise
 *  check. */
double
fig14Round(dnn::Network &net, const dnn::Dataset &test,
           const fi::ExperimentConfig &fcfg, int points,
           const dnn::Backend &b, std::vector<double> &digest)
{
    if (!dnn::setActiveBackend(b.name()))
        fatal("perf harness: backend ", b.name(), " vanished");
    const auto t0 = Clock::now();
    fi::FaultInjectionRunner runner(net, test, fcfg);
    const auto curve = fi::AccuracyCurve::sample(
        runner, fi::InjectionSpec::allWeights(), 1e-5, 0.3, points);
    const auto t1 = Clock::now();
    digest = curve.accuracies();
    digest.push_back(curve.faultFree());
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::BenchOptions::parse(argc, argv);
    setQuiet(!opts.paper);

    std::vector<PerfEntry> entries;
    std::vector<const dnn::Backend *> backends;
    for (auto name : dnn::availableBackends())
        backends.push_back(dnn::findBackend(name));

    scalarSuite(opts, entries);
    for (const dnn::Backend *b : backends)
        microSuite(*b, opts, entries);
    trainEpochSuite(backends, opts, entries);
    serveBatchSuite(backends, opts, entries);
    stageGroupsSuite(opts, entries);
    clusterWindowSuite(opts, entries);

    // fig14 end-to-end measurement phase: train/load once (untimed),
    // then run the full Monte-Carlo sweep per backend. Repeats
    // interleave the backends in time (ref, vec, ref, vec, ...) so a
    // transient host-load spike inflates both legs of the speedup
    // ratio instead of just one; each backend keeps its min.
    auto net = bench::trainedAlexNet(opts);
    const auto test = bench::cifarTestSet(opts);
    fi::ExperimentConfig fcfg;
    fcfg.numMaps = opts.maps(4);
    fcfg.maxTestSamples = opts.samples(200);
    fcfg.numThreads = opts.threads;
    const int points = opts.paper ? 12 : 8;
    const int repeats = opts.smoke ? 1 : 2;
    std::vector<double> best_ns(
        backends.size(), std::numeric_limits<double>::infinity());
    std::vector<std::vector<double>> digests(backends.size());
    for (int r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < backends.size(); ++i) {
            std::vector<double> digest;
            const double ns =
                fig14Round(net, test, fcfg, points, *backends[i], digest);
            best_ns[i] = std::min(best_ns[i], ns);
            if (digests[i].empty())
                digests[i] = digest;
            else if (digests[i] != digest)
                fatal("perf harness: fig14 accuracy curve changed "
                      "between repeats — nondeterminism");
        }
    }
    dnn::setActiveBackend("auto");
    for (std::size_t i = 1; i < digests.size(); ++i)
        if (digests[i] != digests[0])
            fatal("perf harness: backends disagree on the fig14 "
                  "accuracy curve — bitwise contract violated");
    double ref_ns = 0.0, vec_ns = 0.0;
    for (std::size_t i = 0; i < backends.size(); ++i) {
        entries.push_back(
            {"fig14_e2e", std::string(backends[i]->name()), "soft",
             best_ns[i],
             static_cast<std::uint64_t>(fcfg.maxTestSamples) *
                 static_cast<std::uint64_t>(points) *
                 static_cast<std::uint64_t>(fcfg.numMaps)});
        if (entries.back().backend == "reference")
            ref_ns = best_ns[i];
        else if (entries.back().backend == "vectorized")
            vec_ns = best_ns[i];
    }

    if (ref_ns > 0.0 && vec_ns > 0.0) {
        PerfEntry d;
        d.kernel = "fig14_speedup_vec_over_ref";
        d.backend = "derived";
        d.gate = "hard";
        d.derived = true;
        d.value = ref_ns / vec_ns;
        d.minGate = 5.0;
        entries.push_back(d);
    }

    Table t({"kernel", "backend", "ns/op", "items/op", "gate"});
    for (const auto &e : entries) {
        if (e.derived) {
            t.addRow({e.kernel, e.backend, Table::num(e.value, 2),
                      ">= " + Table::num(e.minGate, 1), e.gate});
            continue;
        }
        t.addRow({e.kernel, e.backend, Table::num(e.nsPerOp, 1),
                  std::to_string(e.itemsPerOp), e.gate});
    }
    bench::emit("Perf trajectory (min-of-repeats, threads=" +
                    std::to_string(opts.threads) + ")",
                t, opts);

    if (!opts.jsonPath.empty()) {
        std::ofstream os(opts.jsonPath);
        if (!os)
            fatal("cannot write ", opts.jsonPath);
        const HostInfo host = hostInfo();
        bench::JsonWriter j(os);
        j.beginObject()
            .field("schema", "vboost-bench-perf/1")
            .field("bench", "perf_micro")
            .field("threads", static_cast<std::int64_t>(opts.threads))
            .field("smoke", opts.smoke)
            .beginObjectField("host")
            .field("cpu", host.cpu)
            .field("isa", host.isa)
            .field("compiler", host.compiler)
            .field("build_type", host.buildType)
            .endObject()
            .beginArrayField("entries");
        for (const auto &e : entries) {
            j.beginObject()
                .field("kernel", e.kernel)
                .field("backend", e.backend)
                .field("threads", static_cast<std::int64_t>(opts.threads))
                .field("gate", e.gate);
            if (e.derived) {
                j.field("value", e.value).field("min_gate", e.minGate);
            } else {
                j.field("ns_per_op", e.nsPerOp)
                    .field("items_per_op",
                           static_cast<std::uint64_t>(e.itemsPerOp));
            }
            j.endObject();
        }
        j.endArray().endObject();
    }
    return 0;
}
