/**
 * @file
 * Tests for the bench model cache: entries are named by everything
 * that shapes the weights, and a damaged entry is retrained instead of
 * silently reused.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dnn/zoo.hpp"

namespace vboost::bench {
namespace {

TEST(BenchModelCache, PaperAlexNetHasItsOwnEntry)
{
    BenchOptions fast;
    BenchOptions paper;
    paper.paper = true;
    // AlexNet trains on 3000 images under --paper and 1500 otherwise.
    EXPECT_NE(alexNetRecipe(fast).cachePath("c"),
              alexNetRecipe(paper).cachePath("c"));
    // The FC-DNN's training does not depend on --paper.
    EXPECT_EQ(mnistFcRecipe(fast).cachePath("c"),
              mnistFcRecipe(paper).cachePath("c"));
    EXPECT_NE(mnistFcRecipe(fast).cachePath("c"),
              alexNetRecipe(fast).cachePath("c"));
}

TEST(BenchModelCache, EveryRecipeFieldChangesTheKey)
{
    const ModelRecipe base = mnistFcRecipe(BenchOptions{});
    std::vector<ModelRecipe> variants(7, base);
    variants[0].initSeed += 1;
    variants[1].train.epochs += 1;
    variants[2].train.learningRate *= 2.0;
    variants[3].trainSize += 1;
    variants[4].dataSeed += 1;
    variants[5].shuffleSeed += 1;
    variants[6].clip = 0.25f;
    for (const ModelRecipe &v : variants)
        EXPECT_NE(v.cachePath("c"), base.cachePath("c")) << v.keyText();
}

TEST(BenchModelCache, KeyCoversTrainingSourcesButNotThreadCount)
{
    // Trained bits do not depend on the participant count, so every
    // --threads value shares one cache entry.
    BenchOptions one, eight;
    one.threads = 1;
    eight.threads = 8;
    EXPECT_EQ(mnistFcRecipe(one).train.numThreads, 1);
    EXPECT_EQ(mnistFcRecipe(one).cachePath("c"),
              mnistFcRecipe(eight).cachePath("c"));
    // The key names the digest of the training code it was built by.
    EXPECT_NE(mnistFcRecipe(one).keyText().find(";dnn_src="),
              std::string::npos);
}

TEST(BenchModelCache, DamagedOrForeignEntriesAreRejected)
{
    const ModelRecipe recipe = mnistFcRecipe(BenchOptions{});
    const std::string path =
        ::testing::TempDir() + "vboost_bench_model_cache.bin";
    Rng rng(3);
    dnn::Network net = dnn::buildMnistFc(rng);
    storeCachedModel(recipe, path, net);

    dnn::Network loaded = dnn::buildMnistFc(rng);
    ASSERT_TRUE(loadCachedModel(recipe, path, loaded));
    EXPECT_EQ((*loaded.params()[0].value)[0], (*net.params()[0].value)[0]);

    ModelRecipe other = recipe;
    other.trainSize += 1;
    EXPECT_FALSE(loadCachedModel(other, path, loaded));

    const auto size = std::filesystem::file_size(path);
    {
        // One flipped payload byte fails the checksum.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekg(static_cast<std::streamoff>(size - 1));
        const char last = static_cast<char>(f.get());
        f.seekp(static_cast<std::streamoff>(size - 1));
        f.put(static_cast<char>(last ^ 0x5a));
    }
    EXPECT_FALSE(loadCachedModel(recipe, path, loaded));

    std::filesystem::resize_file(path, size - 1);
    EXPECT_FALSE(loadCachedModel(recipe, path, loaded));

    EXPECT_FALSE(
        loadCachedModel(recipe, path + ".missing", loaded));
    std::filesystem::remove(path);
}

TEST(BenchModelCache, ConcurrentStoresOfOneEntryAllLand)
{
    // Two benches training the same model into one cache store the
    // same entry at once; each store writes its own temp file, so
    // every rename finds its source and none is left behind.
    const ModelRecipe recipe = mnistFcRecipe(BenchOptions{});
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "vboost_bench_concurrent_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "mnist_fc.bin").string();
    Rng rng(4);
    dnn::Network net = dnn::buildMnistFc(rng);
    std::atomic<int> stored{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 2; ++t)
        writers.emplace_back([&] {
            dnn::Network own = net.clone();
            for (int i = 0; i < 10; ++i) {
                storeCachedModel(recipe, path, own);
                ++stored;
            }
        });
    for (std::thread &w : writers)
        w.join();
    EXPECT_EQ(stored.load(), 20);

    dnn::Network loaded = dnn::buildMnistFc(rng);
    ASSERT_TRUE(loadCachedModel(recipe, path, loaded));
    EXPECT_EQ((*loaded.params()[0].value)[0], (*net.params()[0].value)[0]);
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(entry.path().filename().string().find(".tmp"),
                  std::string::npos)
            << entry.path();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace vboost::bench
