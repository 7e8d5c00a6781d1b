/**
 * @file
 * Shared infrastructure for the figure/table benches: command-line
 * options (--paper scales the Monte-Carlo effort up to the paper's
 * settings, --csv dumps machine-readable output), cached trained
 * models (train once, reuse across benches via a keyed, checksummed
 * parameter file in ./bench_cache), and the standard voltage grids of
 * the evaluation.
 */

#ifndef VBOOST_BENCH_BENCH_UTIL_HPP
#define VBOOST_BENCH_BENCH_UTIL_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "dnn/dataset.hpp"
#include "dnn/network.hpp"
#include "dnn/trainer.hpp"

namespace vboost::bench {

/** Parsed bench options. */
struct BenchOptions
{
    /** Paper-scale Monte Carlo (100 maps, full test sets). */
    bool paper = false;
    /** CI smoke mode: shrink Monte-Carlo effort to seconds
     *  (--smoke or VBOOST_BENCH_SMOKE=1). */
    bool smoke = false;
    /** Worker threads of the Monte-Carlo engines and of training
     *  (TrainConfig::numThreads). The default 0 means all hardware
     *  threads; an explicit `--threads 0` is rejected at parse time
     *  (positive counts only). Results do not depend on it. */
    int threads = 0;
    /** Optional CSV output path ("-" = stdout after the table). */
    std::string csvPath;
    /** Cache directory for trained model parameters. */
    std::string cacheDir = "bench_cache";
    /** Resilience policy selector: "open", "closed" or "both". */
    std::string policy = "both";
    /** Closed-loop retry budget (extra attempts per access). */
    int retryBudget = 3;
    /** Spare rows available for quarantine. */
    int spares = 8;
    /** Optional JSON output path for machine-readable results. */
    std::string jsonPath;
    /** Fault-map spatial model: "iid" or "clustered" (MoRS-lite
     *  row/column defect clustering, DESIGN.md §13). */
    std::string mapModel = "iid";
    /** Compute backend selection ("auto", "reference", "vectorized");
     *  validated and applied (dnn::setActiveBackend) at parse time. */
    std::string backend = "auto";
    /** Optional metrics-registry JSON output path (DESIGN.md §11). */
    std::string metricsOutPath;
    /** Optional Chrome trace_event JSON output path (§11). */
    std::string traceOutPath;
    /** Cluster shard-count override for the cluster benches (0 = use
     *  the bench's built-in sweep; positive = single shard count). */
    int shards = 0;
    /** Cluster replica-group size: the primary plus two successor
     *  spill/failover targets (>= 1; must not exceed --shards when
     *  both are given — enforced at parse time). */
    int replicas = 3;

    /** Parse argv; recognizes --paper, --smoke, --threads <n>,
     *  --csv <path>, --cache <dir>, --policy <open|closed|both>,
     *  --retry-budget <n>, --spares <n>, --json <path>,
     *  --map-model <iid|clustered>,
     *  --backend <auto|reference|vectorized> (rejected at parse time
     *  when unknown or unavailable on this machine),
     *  --metrics-out <path>, --trace-out <path>,
     *  --shards <n>, --replicas <n> (validated at parse time like
     *  --backend);
     *  VBOOST_BENCH_SMOKE=1 in the environment also enables smoke
     *  mode. Unknown options and missing values print the usage to
     *  stderr and exit with status 2. */
    static BenchOptions parse(int argc, char **argv);

    /** The usage text parse() prints on --help and on errors. */
    static void printUsage(std::ostream &os);

    /** Monte-Carlo fault maps to run (paper: 100, smoke: <= 2). */
    int maps(int fast_default = 10) const
    {
        if (smoke)
            return fast_default < 2 ? fast_default : 2;
        return paper ? 100 : fast_default;
    }

    /** Test samples to evaluate (paper: 5000 for MNIST,
     *  smoke: <= 64). */
    std::size_t samples(std::size_t fast_default = 400) const
    {
        if (smoke)
            return fast_default < 64 ? fast_default : 64;
        return paper ? 5000 : fast_default;
    }
};

/** Print a titled table, and CSV when requested. */
void emit(const std::string &title, const Table &table,
          const BenchOptions &opts);

/**
 * Everything that shapes a cached bench model's weights. The cache
 * file is named by a digest of all of it plus a configure-time digest
 * of the src/dnn sources, so runs whose models differ (a --paper
 * AlexNet trains on twice the images, or the training code changed)
 * never share a file. train.numThreads is left out: trained bits do
 * not depend on it.
 */
struct ModelRecipe
{
    /** "mnist_fc" or "alexnet_cifar" (dnn/zoo.hpp). */
    std::string arch;
    std::uint64_t initSeed = 7;
    dnn::TrainConfig train;
    /** Synthetic training-set size and generator seed. */
    int trainSize = 0;
    std::uint64_t dataSeed = 1;
    std::uint64_t shuffleSeed = 2024;
    /** Post-training parameter clip for int16 deployment. */
    float clip = 0.5f;

    /** Canonical text of every field (the key before hashing). */
    std::string keyText() const;
    /** The entry's file under `dir`: <arch>-<FNV-1a of keyText>.bin. */
    std::string cachePath(const std::string &dir) const;
};

/** Recipe of trainedMnistFc (training runs on --threads
 *  participants; nothing else depends on the options today). */
ModelRecipe mnistFcRecipe(const BenchOptions &opts);
/** Recipe of trainedAlexNet (--paper trains on 3000 images at
 *  learning rate 0.01, else on 1500 at 0.05). */
ModelRecipe alexNetRecipe(const BenchOptions &opts);

/**
 * Load the cache entry at `path` into `net` (built from the recipe's
 * architecture). Returns false — the caller retrains — when the file
 * is missing, keyed for another recipe, truncated, or fails its FNV-1a
 * checksum.
 */
bool loadCachedModel(const ModelRecipe &recipe, const std::string &path,
                     dnn::Network &net);

/** Write `net` as `recipe`'s cache entry at `path` (header with key,
 *  checksum and size, then the parameter image). */
void storeCachedModel(const ModelRecipe &recipe, const std::string &path,
                      dnn::Network &net);

/**
 * The paper's FC-DNN (784-256-256-256-32) trained on synthetic MNIST
 * and clipped for deployment; cached under opts.cacheDir.
 */
dnn::Network trainedMnistFc(const BenchOptions &opts);

/** Held-out synthetic MNIST test set. */
dnn::Dataset mnistTestSet(const BenchOptions &opts);

/** The 5-conv AlexNet-for-CIFAR, trained and clipped; cached. */
dnn::Network trainedAlexNet(const BenchOptions &opts);

/** Held-out synthetic CIFAR test set. */
dnn::Dataset cifarTestSet(const BenchOptions &opts);

/** VLV supply grid 0.34-0.50 V (the paper's Figs. 13-15 x-axis). */
std::vector<Volt> vlvGrid();

/** Wide grid 0.34-0.60 V for the BER/accuracy curves (Figs. 1, 2, 7). */
std::vector<Volt> wideGrid();

/** High-voltage grid 0.5-0.8 V (Figs. 8 right, 9). */
std::vector<Volt> highGrid();

} // namespace vboost::bench

#endif // VBOOST_BENCH_BENCH_UTIL_HPP
