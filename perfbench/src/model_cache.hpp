/**
 * @file
 * The benchmark's own trained-model cache. Each entry is keyed by
 * everything that shapes the weights — architecture, initialization
 * seed, training configuration, training-set generator, size and seed,
 * and the deployment clip — and carries a checksum of its parameter
 * image, so a stale or damaged file is retrained instead of silently
 * reused. The cache is warmed in its own process before any timed run:
 * a timed run only loads, and fails when an entry is missing.
 */

#ifndef VBOOST_PERFBENCH_MODEL_CACHE_HPP
#define VBOOST_PERFBENCH_MODEL_CACHE_HPP

#include <cstdint>
#include <string>

#include "dnn/network.hpp"
#include "dnn/trainer.hpp"

namespace vboost::perfbench {

/** Everything that determines a cached model's weights. */
struct ModelSpec
{
    /** "mnist_fc" or "alexnet_cifar" (dnn/zoo.hpp). */
    std::string arch;
    std::uint64_t initSeed = 7;
    dnn::TrainConfig train;
    std::uint64_t shuffleSeed = 2024;
    /** Synthetic training-set size and generator seed. */
    int trainSize = 0;
    std::uint64_t dataSeed = 1;
    /** Post-training parameter clip for int16 deployment. */
    float clip = 0.5f;

    /** Canonical text of every field (the cache key before hashing). */
    std::string keyText() const;
    /** File name of the entry: <arch>-<key hash>.bin. */
    std::string fileName() const;
};

/** The paper's FC-DNN trained on 4000 synthetic MNIST images. */
ModelSpec mnistFcSpec();
/** The 5-conv AlexNet-for-CIFAR trained on 1500 synthetic images. */
ModelSpec alexNetSpec();

/** The untrained architecture of `spec` (initialized from initSeed). */
dnn::Network buildModel(const ModelSpec &spec);

/** Load a cached model; FatalError when the entry is missing, keyed
 *  differently or fails its checksum. */
dnn::Network loadCachedModel(const ModelSpec &spec, const std::string &dir);

/** Make sure a valid entry exists, training and writing it when not.
 *  @return true when the model had to be trained. */
bool warmModel(const ModelSpec &spec, const std::string &dir);

} // namespace vboost::perfbench

#endif // VBOOST_PERFBENCH_MODEL_CACHE_HPP
