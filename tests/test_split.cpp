/**
 * @file
 * Split training (DESIGN.md §12, "Split training"): every op a training
 * batch splits by output — the three GEMMs, the ReLU, quantization and
 * the fault-map pack — computes the bits of the serial op at any
 * participant count, and every trainer on dnn::runSgd produces the
 * same digests at 1, 2, 3 and 8 threads. The vectorized fault walks
 * leave the generator where the reference loop does.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/dataset.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "dnn/quantize.hpp"
#include "dnn/split.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"
#include "fi/fault_training.hpp"
#include "recovery/input_transform.hpp"
#include "recovery/map_aware_trainer.hpp"
#include "recovery/recovery.hpp"
#include "sram/fault_map.hpp"
#include "sram/packed_fault_map.hpp"
#include "testenv.hpp"

namespace vboost::dnn {
namespace {

/** Bitwise equality for float buffers (NaN-safe, -0.0 != +0.0). */
::testing::AssertionResult
bitsEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "bit mismatch at [" << i << "]: " << a[i] << " vs "
                   << b[i];
    }
    return ::testing::AssertionSuccess();
}

/** Normal values with zeros of both signs mixed in; `nan_every` > 0
 *  also plants a NaN every that many elements. */
std::vector<float>
mixed(std::size_t n, Rng &rng, std::size_t nan_every = 0)
{
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.uniformInt(6)) {
        case 0: v[i] = 0.0f; break;
        case 1: v[i] = -0.0f; break;
        default: v[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
        if (nan_every > 0 && i % nan_every == nan_every - 1)
            v[i] = std::numeric_limits<float>::quiet_NaN();
    }
    return v;
}

/** The backends under test: the reference and, where available, the
 *  vectorized one. */
std::vector<const Backend *>
backends()
{
    std::vector<const Backend *> out{&referenceBackend()};
    if (const Backend *v = findBackend("vectorized"))
        out.push_back(v);
    return out;
}

// Shapes whose m, k and n are multiples of no tile (plus one wide
// enough for several 32-column panels and the AVX-512 B packing).
const int kShapes[][3] = {{1, 1, 1},    {3, 7, 5},     {13, 29, 67},
                          {17, 31, 33}, {64, 61, 129}, {19, 300, 517},
                          {5, 3, 1000}};

TEST(SplitGemm, ForwardPanelsMatchReference)
{
    Rng rng(41);
    const Backend &ref = referenceBackend();
    for (const auto &s : kShapes) {
        const int m = s[0], k = s[1], n = s[2];
        const auto a = mixed(static_cast<std::size_t>(m) * k, rng);
        const auto b = mixed(static_cast<std::size_t>(k) * n, rng);
        // C starts out as garbage: the forward GEMM overwrites it.
        const auto c0 = mixed(static_cast<std::size_t>(m) * n, rng);
        const auto bias = mixed(static_cast<std::size_t>(n), rng);
        std::vector<float> want = c0;
        ref.gemm(a.data(), b.data(), want.data(), m, k, n, false);
        std::vector<float> want_bias = want;
        for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j)
                want_bias[static_cast<std::size_t>(i) * n + j] +=
                    bias[static_cast<std::size_t>(j)];
        for (const Backend *be : backends()) {
            for (unsigned parts = 1; parts <= 8; ++parts) {
                std::vector<float> got = c0;
                gemmSplit(*be, parts, a.data(), b.data(), got.data(), m, k,
                          n);
                EXPECT_TRUE(bitsEqual(got, want))
                    << be->name() << " " << m << "x" << k << "x" << n
                    << " parts=" << parts;
                got = c0;
                gemmSplit(*be, parts, a.data(), b.data(), got.data(), m, k,
                          n, bias.data());
                EXPECT_TRUE(bitsEqual(got, want_bias))
                    << be->name() << " bias parts=" << parts;
            }
        }
    }
}

TEST(SplitGemm, TransARowTilesMatchReferenceWithZerosAndNaN)
{
    // A carries +0.0, -0.0 (the per-cell zero skip matters when C holds
    // -0.0) and NaN (not zero, so never skipped).
    Rng rng(42);
    const Backend &ref = referenceBackend();
    for (const auto &s : kShapes) {
        const int m = s[0], k = s[1], n = s[2];
        const auto a = mixed(static_cast<std::size_t>(k) * m, rng, 97);
        const auto b = mixed(static_cast<std::size_t>(k) * n, rng);
        const auto c0 = mixed(static_cast<std::size_t>(m) * n, rng);
        for (bool accumulate : {false, true}) {
            std::vector<float> want = c0;
            ref.gemmTransA(a.data(), b.data(), want.data(), m, k, n,
                           accumulate);
            for (const Backend *be : backends()) {
                for (unsigned parts = 1; parts <= 8; ++parts) {
                    std::vector<float> got = c0;
                    gemmTransASplit(*be, parts, a.data(), b.data(),
                                    got.data(), m, k, n, accumulate);
                    EXPECT_TRUE(bitsEqual(got, want))
                        << be->name() << " " << m << "x" << k << "x" << n
                        << " parts=" << parts;
                }
            }
        }
    }
}

TEST(SplitGemm, TransBPanelsMatchReference)
{
    Rng rng(43);
    const Backend &ref = referenceBackend();
    for (const auto &s : kShapes) {
        const int m = s[0], k = s[1], n = s[2];
        const auto a = mixed(static_cast<std::size_t>(m) * k, rng);
        const auto b = mixed(static_cast<std::size_t>(n) * k, rng);
        const auto c0 = mixed(static_cast<std::size_t>(m) * n, rng);
        for (bool accumulate : {false, true}) {
            std::vector<float> want = c0, unused;
            ref.gemmTransB(a.data(), b.data(), want.data(), m, k, n,
                           accumulate, unused);
            for (const Backend *be : backends()) {
                for (unsigned parts = 1; parts <= 8; ++parts) {
                    std::vector<float> got = c0;
                    std::vector<std::vector<float>> scratch;
                    gemmTransBSplit(*be, parts, a.data(), b.data(),
                                    got.data(), m, k, n, accumulate,
                                    scratch);
                    EXPECT_TRUE(bitsEqual(got, want))
                        << be->name() << " " << m << "x" << k << "x" << n
                        << " parts=" << parts;
                }
            }
        }
    }
}

TEST(SplitScope, PartsFollowTheInnermostScopeAndTheWorkFloor)
{
    EXPECT_EQ(splitParticipants(), 1u);
    EXPECT_EQ(splitParts(std::size_t{1} << 30, 1), 1u); // no scope
    {
        const SplitScope outer(4);
        EXPECT_EQ(splitParts(100, 10), 4u);
        EXPECT_EQ(splitParts(100, 50), 2u); // each part gets >= 50
        EXPECT_EQ(splitParts(100, 1000), 1u);
        {
            const SplitScope inner(2);
            EXPECT_EQ(splitParticipants(), 2u);
        }
        EXPECT_EQ(splitParticipants(), 4u);
    }
    EXPECT_EQ(splitParticipants(), 1u);
    // Ranges tile [0, n) with grain-aligned inner bounds.
    for (unsigned parts = 1; parts <= 8; ++parts) {
        std::size_t next = 0;
        for (unsigned p = 0; p < parts; ++p) {
            const auto [b, e] = partRange(1000, parts, p, 32);
            EXPECT_EQ(b, next);
            if (e != 1000) {
                EXPECT_EQ(e % 32, 0u);
            }
            next = e;
        }
        EXPECT_EQ(next, 1000u);
    }
}

TEST(SplitOps, ReluAndQuantizeMatchSerial)
{
    // Large enough that a 4-participant scope really splits.
    const std::size_t n = std::size_t{1} << 18;
    Rng rng(44);
    Tensor x = Tensor::uninitialized({64, static_cast<int>(n / 64)});
    const auto vals = mixed(n, rng, 1001);
    std::copy(vals.begin(), vals.end(), x.data());
    Tensor g = Tensor::uninitialized(x.shape());
    const auto gv = mixed(n, rng);
    std::copy(gv.begin(), gv.end(), g.data());

    const auto run = [&](unsigned participants) {
        const SplitScope scope(participants);
        Relu relu("r");
        const Tensor y = relu.forward(x, /*train=*/true);
        const Tensor dx = relu.backward(g);
        const QuantizedTensor q = quantize(y);
        std::vector<float> out(y.data(), y.data() + n);
        out.insert(out.end(), dx.data(), dx.data() + n);
        for (std::int16_t w : q.words)
            out.push_back(static_cast<float>(w));
        out.push_back(q.codec.resolution());
        return out;
    };
    const auto serial = run(1);
    for (unsigned p : {2u, 3u, 4u, 8u})
        EXPECT_TRUE(bitsEqual(run(p), serial)) << "participants=" << p;
}

TEST(SplitOps, FaultMapPackMatchesSerialPack)
{
    // Iid and clustered maps, a walk starting mid-region that wraps,
    // one longer than the region (copied revisits) and a short one.
    const sram::VulnerabilityMap maps[] = {
        sram::VulnerabilityMap(21, 1),
        sram::VulnerabilityMap(21, 1, sram::MapModel::Clustered,
                               sram::ClusterParams{})};
    const struct
    {
        std::uint64_t region, start, bits;
    } walks[] = {{100003, 777, 100003}, {5000, 4990, 23000}, {1000, 3, 70}};
    for (const auto &map : maps) {
        for (const auto &w : walks) {
            const sram::PackedFaultMap serial(map, 64, w.region, w.start,
                                              w.bits, 0.05);
            for (unsigned parts = 2; parts <= 8; ++parts) {
                const sram::PackedFaultMap split(map, 64, w.region, w.start,
                                                 w.bits, 0.05, parts);
                EXPECT_EQ(split.words(), serial.words())
                    << "region=" << w.region << " parts=" << parts;
            }
        }
    }
}

// -------------------------------------------------------- fault walks

TEST(FaultWalkRngPosition, RegionImageAndWindowMatchReference)
{
    const Backend *vec = findBackend("vectorized");
    if (vec == nullptr)
        GTEST_SKIP() << "vectorized backend unavailable on this host";
    const Backend &ref = referenceBackend();
    const FixedPointCodec codec(12);
    const sram::VulnerabilityMap map(23, 4);
    Rng fill(45);
    std::vector<std::int16_t> words(
        testenv::tsanScaled<std::size_t>(150001, 70001));
    for (auto &w : words)
        w = static_cast<std::int16_t>(fill.uniformInt(65536) - 32768);

    // Walks the first `nwords` words over `image` from `start` with both
    // backends: the same flips, words, decodes and generator position.
    const auto check = [&](const sram::PackedFaultMap &image,
                           std::uint64_t start, std::size_t nwords,
                           const std::string &label) {
        std::vector<std::int16_t> w0(words.begin(), words.begin() + nwords);
        std::vector<std::int16_t> w1 = w0;
        std::vector<float> o0(nwords), o1(nwords);
        Rng r0(46), r1(46);
        const auto f0 = ref.applyRegionImageDequant(w0, codec, o0.data(),
                                                    image, start, 0.5, r0);
        const auto f1 = vec->applyRegionImageDequant(w1, codec, o1.data(),
                                                     image, start, 0.5, r1);
        EXPECT_EQ(f0, f1) << label;
        EXPECT_EQ(w0, w1) << label;
        EXPECT_TRUE(bitsEqual(o0, o1)) << label;
        EXPECT_EQ(r0.next(), r1.next()) << label;
    };

    // The region is smaller than the window, so every walk wraps
    // (twice from the starts in the last packed word). 0.0049 is the
    // sparse MATIC rate.
    const std::uint64_t region = 1000003;
    for (double fail : {0.0049, 0.24, 0.5, 1.0}) {
        const sram::PackedFaultMap image(map, 0, region, 0, region, fail);
        for (std::uint64_t start : {std::uint64_t{0}, region - 40,
                                    region - 1})
            check(image, start, words.size(),
                  "fail=" + std::to_string(fail) +
                      " start=" + std::to_string(start));

        // The window kernel over the same cells.
        const std::size_t short_words = 4099;
        std::vector<std::int16_t> w0(words.begin(),
                                     words.begin() + short_words);
        std::vector<std::int16_t> w1 = w0;
        std::vector<float> o0(short_words), o1(short_words);
        Rng r0(47), r1(47);
        const FaultWindow win{0, 5003, 4990};
        EXPECT_EQ(ref.applyFaultMapDequant(w0, codec, o0.data(), map, win,
                                           {fail, 0.5}, r0),
                  vec->applyFaultMapDequant(w1, codec, o1.data(), map, win,
                                            {fail, 0.5}, r1));
        EXPECT_EQ(w0, w1);
        EXPECT_TRUE(bitsEqual(o0, o1));
        EXPECT_EQ(r0.next(), r1.next()) << "window fail=" << fail;
    }

    // An image packed shorter than its region, walked up to 5 bits
    // before its end.
    const sram::PackedFaultMap short_image(map, 0, 50021, 0, 30011, 0.24);
    check(short_image, 6, 1875, "short image");
    // An all-clear image draws nothing.
    const sram::PackedFaultMap clear(map, 0, region, 0, region, 0.0);
    check(clear, 12345, 4099, "all clear");
    // Regions under 64 cells, wrapped hundreds of times.
    for (std::uint64_t small : {std::uint64_t{1}, std::uint64_t{37}}) {
        const sram::PackedFaultMap tiny(map, 9, small, 0, small, 0.6);
        for (std::uint64_t start : {std::uint64_t{0}, small - 1})
            check(tiny, start, 1001,
                  "region=" + std::to_string(small) +
                      " start=" + std::to_string(start));
    }
    // A region of whole summary words, from inside its last packed word.
    const sram::PackedFaultMap whole(map, 0, 8192, 0, 8192, 0.05);
    for (std::uint64_t start : {std::uint64_t{8189}, std::uint64_t{8128}})
        check(whole, start, 3001, "whole start=" + std::to_string(start));
}

// ------------------------------------------------- trainer invariance

using Digests = std::pair<std::uint64_t, std::uint64_t>;

std::uint64_t
epochsDigest(const std::vector<EpochStats> &epochs)
{
    std::uint64_t h = recovery::kFnvOffset;
    for (const auto &e : epochs) {
        h = recovery::fnvMixDouble(h, e.meanLoss);
        h = recovery::fnvMixDouble(h, e.trainAccuracy);
    }
    return h;
}

Network
mnistFc(std::uint64_t seed)
{
    Rng rng(seed);
    return buildMnistFc(rng);
}

TEST(SplitTraining, TrainersAreThreadCountInvariant)
{
    // The full MNIST FC, so the GEMMs, the update and the fault-map
    // packs all split at more than one participant.
    const auto train = makeSyntheticMnist(
        testenv::tsanScaled<std::size_t>(320, 128), 48);

    const auto sgd = [&](int threads) {
        TrainConfig cfg;
        cfg.epochs = 1;
        cfg.numThreads = threads;
        auto net = mnistFc(1);
        Rng rng(7);
        const auto stats = SgdTrainer(cfg).train(net, train, rng);
        return Digests(epochsDigest(stats), recovery::weightsDigest(net));
    };
    const auto fault_aware = [&](int threads) {
        fi::FaultTrainConfig cfg;
        cfg.base.epochs = 1;
        cfg.base.numThreads = threads;
        cfg.warmupEpochs = 0;
        cfg.failProb = 0.02;
        auto net = mnistFc(1);
        auto scratch = mnistFc(2);
        Rng rng(7);
        const auto stats =
            fi::FaultAwareTrainer(cfg).train(net, scratch, train, rng);
        return Digests(epochsDigest(stats), recovery::weightsDigest(net));
    };
    const auto matic = [&](int threads) {
        recovery::MapAwareConfig cfg;
        cfg.train.base.epochs = 1;
        cfg.train.base.numThreads = threads;
        cfg.train.warmupEpochs = 0;
        cfg.train.failProb = 0.02;
        cfg.curriculumEpochs = 0;
        cfg.refreshInterval = 2;
        auto net = mnistFc(1);
        auto scratch = mnistFc(2);
        Rng rng(7);
        const auto stats =
            recovery::MapAwareTrainer(cfg).train(net, scratch, train, rng);
        return Digests(stats.digest(), recovery::weightsDigest(net));
    };
    const auto fuse = [&](int threads) {
        recovery::TransformTrainConfig cfg;
        cfg.base.epochs = 1;
        cfg.base.numThreads = threads;
        cfg.failProb = 0.02;
        recovery::InputTransform tf;
        auto base = mnistFc(1);
        auto scratch = mnistFc(2);
        Rng rng(5);
        const auto stats = recovery::TransformTrainer(cfg).train(
            tf, base, scratch, train, rng);
        return Digests(stats.digest(),
                       recovery::weightsDigest(tf.network()));
    };

    const struct
    {
        const char *name;
        std::function<Digests(int)> run;
    } trainers[] = {{"sgd", sgd},
                    {"fault-aware", fault_aware},
                    {"matic", matic},
                    {"neuralfuse", fuse}};
    for (const auto &t : trainers) {
        const Digests serial = t.run(1);
        for (int threads : {2, 3, 8})
            EXPECT_EQ(t.run(threads), serial)
                << t.name << " at " << threads << " threads";
    }
}

TEST(SplitTraining, NegativeThreadCountIsRejected)
{
    TrainConfig cfg;
    cfg.numThreads = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.numThreads = 0;
    EXPECT_NO_THROW(cfg.validate());
}

} // namespace
} // namespace vboost::dnn
