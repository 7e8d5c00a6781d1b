#include "probes.hpp"

#include <algorithm>
#include <cstring>

#include "accel/perf_model.hpp"
#include "circuit/booster.hpp"
#include "cluster/hash_ring.hpp"
#include "core/context.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/quantize.hpp"
#include "dnn/zoo.hpp"
#include "fi/experiment.hpp"
#include "fi/fault_training.hpp"
#include "fi/injector.hpp"
#include "recovery/map_aware_trainer.hpp"
#include "recovery/recovery.hpp"
#include "resilience/resilient_memory.hpp"
#include "serve/planner.hpp"
#include "sram/banked_memory.hpp"
#include "sram/ecc.hpp"
#include "sram/failure_model.hpp"
#include "sram/packed_fault_map.hpp"

namespace vboost::perfbench {

namespace {

/** Run `body` `reps` times, each under one span named `name`; returns
 *  the per-repetition seconds. */
template <typename F>
std::vector<double>
timed(SpanRecorder &rec, const std::string &name, int reps, F &&body)
{
    std::vector<double> out;
    for (int r = 0; r < reps; ++r) {
        const int span = rec.begin(name);
        body();
        rec.end(span);
        out.push_back(rec.spans()[static_cast<std::size_t>(span)].seconds());
    }
    return out;
}

/** Keeps probe results observable so the compiler cannot drop the
 *  measured calls. */
volatile std::uint64_t g_sink = 0;

/** The workload model's weights as staged int16 words (layer order),
 *  capped at `cap` words. */
std::vector<std::int16_t>
weightWords(dnn::Network &net, std::size_t cap, FixedPointCodec &codec)
{
    std::vector<std::int16_t> words;
    bool first = true;
    for (const auto &p : net.weightParams()) {
        const dnn::QuantizedTensor q = dnn::quantize(*p.value);
        if (first)
            codec = q.codec;
        first = false;
        for (std::int16_t w : q.words) {
            if (words.size() == cap)
                return words;
            words.push_back(w);
        }
    }
    return words;
}

std::uint64_t
weightCount(dnn::Network &net)
{
    std::uint64_t n = 0;
    for (const auto &p : net.weightParams())
        n += p.value->numel();
    return n;
}

void
put(Metrics &out, const std::string &name, double value,
    const std::string &unit)
{
    out[name] = {value, unit};
}

} // namespace

const std::vector<std::pair<std::string, std::string>> &
perLayerMetricUnits()
{
    static const std::vector<std::pair<std::string, std::string>> list{
        {"fi.mc_point_s", "s"},
        {"fi.stage_ms", "ms"},
        {"fi.stage_resilient_ms", "ms"},
        {"fi.fault_train_epoch_s", "s"},
        {"dnn.forward_ms", "ms"},
        {"dnn.backward_ms", "ms"},
        {"dnn.backend.gemm_gflops", "GFLOP/s"},
        {"dnn.backend.fault_dequant_ns_per_kbit", "ns/kbit"},
        {"sram.pack_ms", "ms"},
        {"sram.ecc_encode_ns", "ns"},
        {"sram.ecc_decode_ns", "ns"},
        {"sram.fault_query_ns", "ns"},
        {"resilience.read_ns_per_word", "ns"},
        {"resilience.clean_read_ratio", "ratio"},
        {"resilience.retries_per_kread", "1/kread"},
        {"circuit.boost_eval_ns", "ns"},
        {"serve.planner_us", "us"},
        {"serve.mean_batch_size", "count"},
        {"accel.perf_eval_us", "us"},
        {"cluster.route_us", "us"},
        {"cluster.spill_ratio", "ratio"},
        {"cluster.failover_ratio", "ratio"},
        {"cluster.shed_ratio", "ratio"},
        {"recovery.matic_epoch_s", "s"},
        {"recovery.chip_eval_ms", "ms"},
        {"recovery.flips_per_batch", "count"},
        {"obs.trace_overhead_pct", "%"},
    };
    return list;
}

void
runProbes(const ProbeInputs &in, SpanRecorder &rec, Metrics &out)
{
    const auto ctx = core::SimContext::standard();
    const sram::FailureRateModel failure(ctx.failure);
    dnn::Network &model = *in.model;
    const dnn::Dataset &data = *in.data;
    const fi::MemoryLayout layout;
    const sram::VulnerabilityMap map(in.seed, 0);
    const auto wants = [&](const char *span) {
        return in.measured.count(span) == 0;
    };
    const std::size_t probe_n = std::min<std::size_t>(64, data.size());
    const dnn::Dataset probe_set = data.slice(0, probe_n);

    // ---- fi --------------------------------------------------------
    if (wants("fi.mc_point")) {
        fi::ExperimentConfig cfg;
        cfg.numMaps = 2;
        cfg.maxTestSamples = probe_n;
        cfg.numThreads = kWorkloadThreads;
        cfg.seed = in.seed;
        fi::FaultInjectionRunner runner(model, probe_set, cfg);
        const auto s = timed(rec, "fi.mc_point", 3, [&] {
            g_sink = g_sink +
                     static_cast<std::uint64_t>(
                         runner.run(in.failProb,
                                    fi::InjectionSpec::allWeights())
                             .meanBitFlips);
        });
        put(out, "fi.mc_point_s", median(s), "s");
    }
    {
        dnn::Network scratch = model.clone();
        Rng rng(in.seed);
        const auto s = timed(rec, "fi.stage", 5, [&] {
            g_sink = g_sink + fi::corruptNetwork(
                                  scratch, model, map, in.failProb,
                                  fi::InjectionSpec::allWeights(), layout,
                                  rng);
        });
        put(out, "fi.stage_ms", median(s) * 1e3, "ms");
    }
    {
        const int banks = static_cast<int>(layout.weightRegionBits /
                                           sram::SramBank::kBits);
        dnn::Network scratch = model.clone();
        std::vector<double> s;
        for (const auto &[vdd, level] : in.stageVdds) {
            sram::BankedMemory mem("weight_mem", banks, ctx.design, ctx.tech,
                                   failure);
            auto policy = resilience::ResiliencePolicy::closedLoop();
            policy.startLevel = level;
            resilience::ResilientMemory rmem(mem, ctx, policy);
            rmem.reseed(Rng(in.seed).split(4000));
            const auto t = timed(rec, "fi.stage_resilient", 1, [&] {
                g_sink = g_sink + fi::corruptNetworkResilient(
                                      scratch, model, rmem, vdd, map);
            });
            s.insert(s.end(), t.begin(), t.end());
        }
        put(out, "fi.stage_resilient_ms", median(s) * 1e3, "ms");
    }
    if (wants("fi.fault_train")) {
        fi::FaultTrainConfig cfg;
        cfg.base.epochs = 1;
        cfg.warmupEpochs = 0;
        cfg.failProb = in.failProb;
        cfg.seed = in.seed;
        dnn::Network net = model.clone();
        dnn::Network scratch = model.clone();
        fi::FaultAwareTrainer trainer(cfg);
        Rng rng(in.seed);
        const auto s = timed(rec, "fi.fault_train", 1, [&] {
            trainer.train(net, scratch, probe_set, rng);
        });
        put(out, "fi.fault_train_epoch_s", median(s), "s");
    }

    // ---- dnn -------------------------------------------------------
    {
        const std::size_t batch = std::min<std::size_t>(
            static_cast<std::size_t>(in.forwardBatch), data.size());
        const dnn::Dataset b = data.slice(0, batch);
        const auto s = timed(rec, "dnn.forward", 10, [&] {
            g_sink = g_sink + static_cast<std::uint64_t>(
                                  model.forward(b.images).numel());
        });
        put(out, "dnn.forward_ms", median(s) * 1e3, "ms");
    }
    {
        dnn::Network net = model.clone();
        const dnn::SoftmaxCrossEntropy loss;
        std::vector<double> s;
        for (int r = 0; r < 3; ++r) {
            net.zeroGrads();
            const dnn::Tensor logits = net.forward(probe_set.images, true);
            dnn::Tensor grad;
            loss.lossAndGrad(logits, probe_set.labels, grad);
            const auto t = timed(rec, "dnn.backward", 1,
                                 [&] { net.backward(grad); });
            s.push_back(t.front());
        }
        put(out, "dnn.backward_ms", median(s) * 1e3, "ms");
    }
    {
        const dnn::Backend &backend = dnn::activeBackend();
        double flops = 0.0;
        std::vector<std::vector<float>> a, b, c;
        for (const GemmShape &g : in.gemmShapes) {
            a.emplace_back(static_cast<std::size_t>(g.m) * g.k, 0.5f);
            b.emplace_back(static_cast<std::size_t>(g.k) * g.n, 0.25f);
            c.emplace_back(static_cast<std::size_t>(g.m) * g.n, 0.0f);
            flops += 2.0 * g.m * g.k * g.n;
        }
        const auto s = timed(rec, "dnn.backend.gemm", 5, [&] {
            for (std::size_t i = 0; i < in.gemmShapes.size(); ++i) {
                const GemmShape &g = in.gemmShapes[i];
                backend.gemm(a[i].data(), b[i].data(), c[i].data(), g.m, g.k,
                             g.n, false);
            }
        });
        put(out, "dnn.backend.gemm_gflops", flops / median(s) / 1e9,
            "GFLOP/s");

        FixedPointCodec codec(8);
        const std::vector<std::int16_t> words =
            weightWords(model, std::size_t{1} << 18, codec);
        std::vector<float> deq(words.size());
        const dnn::FaultWindow win{0, layout.weightRegionBits, 0};
        std::vector<double> d;
        for (int r = 0; r < 5; ++r) {
            std::vector<std::int16_t> staged = words;
            Rng rng = Rng(in.seed).split(static_cast<std::uint64_t>(r));
            const auto t = timed(rec, "dnn.backend.fault_dequant", 1, [&] {
                g_sink = g_sink + backend.applyFaultMapDequant(
                                      staged, codec, deq.data(), map, win,
                                      {in.failProb, 0.5}, rng);
            });
            d.push_back(t.front());
        }
        put(out, "dnn.backend.fault_dequant_ns_per_kbit",
            median(d) * 1e9 / (static_cast<double>(words.size()) * 16e-3),
            "ns/kbit");
    }

    // ---- sram ------------------------------------------------------
    {
        const std::uint64_t bits = weightCount(model) * 16;
        const auto s = timed(rec, "sram.pack", 5, [&] {
            const sram::PackedFaultMap packed(map, 0, layout.weightRegionBits,
                                              0, bits, in.failProb);
            g_sink = g_sink + packed.words().size();
        });
        put(out, "sram.pack_ms", median(s) * 1e3, "ms");
    }
    {
        FixedPointCodec codec(8);
        const std::vector<std::int16_t> w16 =
            weightWords(model, std::size_t{1} << 18, codec);
        std::vector<std::uint64_t> words(w16.size() / 4);
        std::memcpy(words.data(), w16.data(), words.size() * 8);
        std::vector<std::uint8_t> checks(words.size());
        const double n = static_cast<double>(words.size());
        const auto enc = timed(rec, "sram.ecc_encode", 5, [&] {
            for (std::size_t i = 0; i < words.size(); ++i)
                checks[i] = sram::SecdedCodec::encode(words[i]);
        });
        put(out, "sram.ecc_encode_ns", median(enc) * 1e9 / n, "ns");
        const auto dec = timed(rec, "sram.ecc_decode", 5, [&] {
            std::uint64_t acc = 0;
            for (std::size_t i = 0; i < words.size(); ++i) {
                // Every 16th word carries a single-bit error to correct.
                const std::uint64_t flip = (i % 16 == 0) ? 1ull << (i % 64) : 0;
                acc += sram::SecdedCodec::decode(words[i] ^ flip, checks[i])
                           .data;
            }
            g_sink = g_sink + acc;
        });
        put(out, "sram.ecc_decode_ns", median(dec) * 1e9 / n, "ns");

        const std::uint64_t cells = 1u << 20;
        const auto q = timed(rec, "sram.fault_query", 5, [&] {
            std::uint64_t faulty = 0;
            for (std::uint64_t c = 0; c < cells; ++c)
                faulty += map.isFaulty(c, in.failProb) ? 1 : 0;
            g_sink = g_sink + faulty;
        });
        put(out, "sram.fault_query_ns",
            median(q) * 1e9 / static_cast<double>(cells), "ns");
    }

    // ---- resilience ------------------------------------------------
    {
        const auto [vdd, level] = in.stageVdds.front();
        const int banks = static_cast<int>(layout.weightRegionBits /
                                           sram::SramBank::kBits);
        sram::BankedMemory mem("weight_mem", banks, ctx.design, ctx.tech,
                               failure);
        auto policy = resilience::ResiliencePolicy::closedLoop();
        policy.startLevel = level;
        resilience::ResilientMemory rmem(mem, ctx, policy);
        rmem.reseed(Rng(in.seed).split(4000));
        FixedPointCodec codec(8);
        const std::vector<std::int16_t> values = weightWords(
            model, static_cast<std::size_t>(mem.words()) * 4, codec);
        rmem.writeWords16(0, values, vdd);
        const auto count = static_cast<std::uint32_t>(values.size());
        const auto s = timed(rec, "resilience.read", 3, [&] {
            g_sink = g_sink + rmem.readWords16(0, count, vdd, map).size();
        });
        const resilience::ResilienceStats st = rmem.snapshot();
        put(out, "resilience.read_ns_per_word",
            median(s) * 1e9 / (static_cast<double>(count) / 4.0), "ns");
        const double reads = static_cast<double>(std::max<std::uint64_t>(
            st.reads, 1));
        put(out, "resilience.clean_read_ratio",
            static_cast<double>(st.cleanReads) / reads, "ratio");
        put(out, "resilience.retries_per_kread",
            static_cast<double>(st.retries) * 1e3 / reads, "1/kread");
    }

    // ---- circuit, accel, serve, cluster ----------------------------
    {
        const circuit::BoosterBank bank(
            ctx.design, ctx.tech.macroArrayCap + ctx.tech.fixedParasiticCap,
            ctx.tech);
        const int calls_per_rep = 64 * (bank.levels() + 1);
        const auto s = timed(rec, "circuit.boost_eval", 5, [&] {
            double acc = 0.0;
            for (int i = 0; i < 64; ++i) {
                const Volt vdd(0.30 + 0.005 * i);
                for (int level = 0; level <= bank.levels(); ++level) {
                    acc += bank.boostedVoltage(vdd, level).value() +
                           bank.boostEventEnergy(vdd, level).value();
                }
            }
            g_sink = g_sink + static_cast<std::uint64_t>(acc);
        });
        put(out, "circuit.boost_eval_ns", median(s) * 1e9 / calls_per_rep,
            "ns");
    }
    {
        const accel::PerformanceModel perf(ctx, 16);
        const std::vector<Volt> grid{Volt(0.34), Volt(0.38), Volt(0.42),
                                     Volt(0.46), Volt(0.50)};
        const auto s = timed(rec, "accel.perf_eval", 5, [&] {
            double acc = 0.0;
            for (Volt v : grid) {
                for (int level = 0; level <= 4; ++level) {
                    acc += perf.evaluate(in.activity, v, level,
                                         accel::SupplyMode::Boosted)
                               .totalEnergy.value();
                }
            }
            g_sink = g_sink + static_cast<std::uint64_t>(acc);
        });
        put(out, "accel.perf_eval_us",
            median(s) * 1e6 / static_cast<double>(grid.size() * 5), "us");
    }
    {
        serve::InferenceFootprint fp;
        fp.weightAccesses = in.activity.weightAccesses;
        fp.inputAccesses = in.activity.inputAccesses;
        fp.psumAccesses = in.activity.psumAccesses;
        fp.computeOps = in.activity.macs;
        serve::OperatingPointPlanner planner(ctx, 16, in.accuracyAt,
                                             in.faultFreeAccuracy, fp);
        std::vector<std::string> tenants;
        for (int t = 0; t < 24; ++t)
            tenants.push_back("tenant-" + std::to_string(t));
        const auto s = timed(rec, "serve.planner", 5, [&] {
            double acc = 0.0;
            for (int r = 0; r < 16; ++r) {
                for (std::size_t t = 0; t < tenants.size(); ++t) {
                    const auto slo = static_cast<serve::SloClass>(
                        t % serve::kNumSloClasses);
                    acc += planner.planFor(tenants[t], slo).vdd.value();
                }
            }
            g_sink = g_sink + static_cast<std::uint64_t>(acc);
        });
        put(out, "serve.planner_us",
            median(s) * 1e6 / static_cast<double>(16 * tenants.size()),
            "us");

        cluster::HashRing ring;
        for (int n = 0; n < 4; ++n)
            ring.addNode("node-" + std::to_string(n));
        const auto r = timed(rec, "cluster.route", 5, [&] {
            std::size_t acc = 0;
            for (int k = 0; k < 16; ++k) {
                for (const std::string &t : tenants)
                    acc += ring.replicasFor(t, 3).size();
            }
            g_sink = g_sink + acc;
        });
        put(out, "cluster.route_us",
            median(r) * 1e6 / static_cast<double>(16 * tenants.size()),
            "us");
    }

    // ---- recovery --------------------------------------------------
    if (wants("recovery.matic_train")) {
        recovery::MapAwareConfig cfg;
        cfg.train.base.epochs = 1;
        cfg.train.warmupEpochs = 0;
        cfg.train.failProb = in.failProb;
        cfg.curriculumEpochs = 0;
        cfg.chipSeed = in.seed;
        dnn::Network net = model.clone();
        dnn::Network scratch = model.clone();
        recovery::MapAwareTrainer trainer(cfg);
        Rng rng(in.seed);
        recovery::MapAwareStats stats;
        const auto s = timed(rec, "recovery.matic_train", 1, [&] {
            stats = trainer.train(net, scratch, probe_set, rng);
        });
        put(out, "recovery.matic_epoch_s", median(s), "s");
        put(out, "recovery.flips_per_batch",
            static_cast<double>(stats.bitFlips) /
                static_cast<double>(std::max<std::uint64_t>(stats.batches, 1)),
            "count");
    }
    if (wants("recovery.chip_eval")) {
        recovery::ChipEvalConfig cfg;
        cfg.numReads = 2;
        cfg.maxTestSamples = probe_n;
        cfg.numThreads = kWorkloadThreads;
        recovery::ChipEvaluator eval(model, probe_set, map, cfg);
        const auto s = timed(rec, "recovery.chip_eval", 3, [&] {
            g_sink = g_sink + eval.evaluate(in.failProb).digest;
        });
        put(out, "recovery.chip_eval_ms", median(s) * 1e3, "ms");
    }
}

} // namespace vboost::perfbench
