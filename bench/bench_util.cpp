#include "bench_util.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/quantize.hpp"
#include "dnn/serialize.hpp"
#include "dnn/trainer.hpp"
#include "dnn/zoo.hpp"

namespace vboost::bench {

void
BenchOptions::printUsage(std::ostream &os)
{
    os << "usage: bench [options]\n"
          "  --paper             paper-scale Monte Carlo (100 maps, "
          "full test sets)\n"
          "  --smoke             CI smoke mode (also "
          "VBOOST_BENCH_SMOKE=1)\n"
          "  --threads <n>       worker threads of the Monte Carlo and "
          "of training (n >= 1; omit for all cores)\n"
          "  --csv <path|->      append CSV output ('-' = stdout)\n"
          "  --cache <dir>       trained-model cache directory\n"
          "  --policy <p>        resilience policy: open, closed or "
          "both\n"
          "  --retry-budget <n>  closed-loop retry budget (extra "
          "attempts per access)\n"
          "  --spares <n>        spare rows available for quarantine\n"
          "  --json <path>       write machine-readable results as "
          "JSON\n"
          "  --map-model <m>     fault-map spatial model: iid or "
          "clustered\n"
          "  --backend <name>    compute backend: auto, reference or "
          "vectorized\n"
          "                      (rejected at parse time when "
          "unavailable on this CPU)\n"
          "  --metrics-out <path> write the observability metrics "
          "registry as JSON\n"
          "  --trace-out <path>  write a Chrome trace_event JSON "
          "(chrome://tracing)\n"
          "  --shards <n>        cluster benches: run one shard count "
          "instead of the sweep (n >= 1)\n"
          "  --replicas <n>      cluster benches: replica-group size "
          "(n >= 1, <= --shards when given)\n"
          "  --help              show this help\n";
}

namespace {

/** Reject a bad command line: diagnostic + usage on stderr, exit 2. */
[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "error: " << message << '\n';
    BenchOptions::printUsage(std::cerr);
    std::exit(2);
}

/** The value of option argv[i], or a usage error when it is absent. */
const char *
optionValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usageError(std::string("option ") + argv[i] +
                   " requires a value");
    return argv[++i];
}

/** Parse a non-negative integer option value. */
int
countValue(int argc, char **argv, int &i)
{
    const char *flag = argv[i];
    const char *text = optionValue(argc, argv, i);
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 0)
        usageError(std::string(flag) + " expects a non-negative " +
                   "integer, got '" + text + "'");
    return static_cast<int>(v);
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    bool replicas_given = false;
    if (const char *env = std::getenv("VBOOST_BENCH_SMOKE"))
        opts.smoke = std::strcmp(env, "0") != 0 && *env != '\0';
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--paper") == 0) {
            opts.paper = true;
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            opts.smoke = true;
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            opts.threads = countValue(argc, argv, i);
            if (opts.threads == 0)
                usageError("--threads expects a positive integer "
                           "(omit the option to use all hardware "
                           "threads)");
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opts.csvPath = optionValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--cache") == 0) {
            opts.cacheDir = optionValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--policy") == 0) {
            opts.policy = optionValue(argc, argv, i);
            if (opts.policy != "open" && opts.policy != "closed" &&
                opts.policy != "both")
                usageError("--policy expects open, closed or both, "
                           "got '" + opts.policy + "'");
        } else if (std::strcmp(argv[i], "--retry-budget") == 0) {
            opts.retryBudget = countValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--spares") == 0) {
            opts.spares = countValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            opts.jsonPath = optionValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--map-model") == 0) {
            opts.mapModel = optionValue(argc, argv, i);
            if (opts.mapModel != "iid" && opts.mapModel != "clustered")
                usageError("--map-model expects iid or clustered, "
                           "got '" + opts.mapModel + "'");
        } else if (std::strcmp(argv[i], "--backend") == 0) {
            opts.backend = optionValue(argc, argv, i);
            // Reject an unknown or unbuilt/unsupported backend here,
            // with the usage-dump discipline, rather than silently
            // falling back to the reference kernels mid-run.
            if (dnn::findBackend(opts.backend) == nullptr) {
                std::string names;
                for (auto name : dnn::availableBackends())
                    names += std::string(names.empty() ? "" : ", ") +
                             std::string(name);
                usageError("--backend '" + opts.backend +
                           "' is unknown or unavailable on this "
                           "machine (available: auto, " + names + ")");
            }
            dnn::setActiveBackend(opts.backend);
        } else if (std::strcmp(argv[i], "--metrics-out") == 0) {
            opts.metricsOutPath = optionValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--trace-out") == 0) {
            opts.traceOutPath = optionValue(argc, argv, i);
        } else if (std::strcmp(argv[i], "--shards") == 0) {
            opts.shards = countValue(argc, argv, i);
            if (opts.shards == 0)
                usageError("--shards expects a positive integer "
                           "(omit the option to run the built-in "
                           "sweep)");
        } else if (std::strcmp(argv[i], "--replicas") == 0) {
            opts.replicas = countValue(argc, argv, i);
            replicas_given = true;
            if (opts.replicas == 0)
                usageError("--replicas expects a positive integer");
        } else if (std::strcmp(argv[i], "--help") == 0) {
            printUsage(std::cout);
            std::exit(0);
        } else {
            usageError(std::string("unknown option '") + argv[i] + "'");
        }
    }
    // Cross-option constraint, checked after the full command line so
    // the flags compose in either order. Only an explicit --replicas
    // conflicts: the benches cap the default at the shard count.
    if (replicas_given && opts.shards > 0 && opts.replicas > opts.shards)
        usageError("--replicas (" + std::to_string(opts.replicas) +
                   ") cannot exceed --shards (" +
                   std::to_string(opts.shards) + ")");
    return opts;
}

void
emit(const std::string &title, const Table &table, const BenchOptions &opts)
{
    std::cout << "\n== " << title << " ==\n";
    table.print(std::cout);
    if (opts.csvPath == "-") {
        table.printCsv(std::cout);
    } else if (!opts.csvPath.empty()) {
        std::ofstream out(opts.csvPath, std::ios::app);
        out << "# " << title << '\n';
        table.printCsv(out);
    }
}

namespace {

constexpr const char *kCacheMagic = "vboost-bench-model/1";

std::string
hex(std::uint64_t v)
{
    char buf[17] = {};
    std::to_chars(buf, buf + 16, v, 16);
    return buf;
}

/** Shortest text that reads back as exactly `v`. */
std::string
exact(double v)
{
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, end);
}

/** FNV-1a over the bytes of `bytes`. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = fnv::kTruncatedBasis;
    fnv::mixBytes(h, bytes);
    return h;
}

dnn::Network
buildModel(const ModelRecipe &recipe)
{
    Rng rng(recipe.initSeed);
    if (recipe.arch == "alexnet_cifar")
        return dnn::buildAlexNetCifar(rng);
    return dnn::buildMnistFc(rng);
}

/** Train (or load) a model and clip it for int16 deployment. The
 *  training set is built only on a cache miss. */
dnn::Network
cachedModel(const BenchOptions &opts, const ModelRecipe &recipe)
{
    std::filesystem::create_directories(opts.cacheDir);
    const std::string path = recipe.cachePath(opts.cacheDir);
    dnn::Network net = buildModel(recipe);
    if (loadCachedModel(recipe, path, net))
        return net;
    inform("training ", recipe.arch, " (cached at ", path, ")");
    net = buildModel(recipe);
    dnn::SgdTrainer trainer(recipe.train);
    Rng rng(recipe.shuffleSeed);
    const dnn::Dataset train_set =
        recipe.arch == "alexnet_cifar"
            ? dnn::makeSyntheticCifar(recipe.trainSize, recipe.dataSeed)
            : dnn::makeSyntheticMnist(recipe.trainSize, recipe.dataSeed);
    trainer.train(net, train_set, rng);
    dnn::clipParameters(net, recipe.clip);
    storeCachedModel(recipe, path, net);
    return net;
}

} // namespace

std::string
ModelRecipe::keyText() const
{
    std::ostringstream os;
    os << "arch=" << arch << ";init=" << initSeed
       << ";epochs=" << train.epochs << ";batch=" << train.batchSize
       << ";lr=" << exact(train.learningRate)
       << ";momentum=" << exact(train.momentum)
       << ";decay=" << exact(train.lrDecay) << ";shuffle=" << shuffleSeed
       << ";train_size=" << trainSize << ";data_seed=" << dataSeed
       << ";clip=" << exact(clip)
       << ";dnn_src=" << VBOOST_DNN_SOURCE_DIGEST;
    return os.str();
}

std::string
ModelRecipe::cachePath(const std::string &dir) const
{
    return dir + "/" + arch + "-" + hex(fnv1a(keyText())) + ".bin";
}

ModelRecipe
mnistFcRecipe(const BenchOptions &opts)
{
    ModelRecipe r;
    r.arch = "mnist_fc";
    r.train.epochs = 6;
    r.train.numThreads = opts.threads;
    r.trainSize = 4000;
    return r;
}

ModelRecipe
alexNetRecipe(const BenchOptions &opts)
{
    ModelRecipe r;
    r.arch = "alexnet_cifar";
    r.train.epochs = 3;
    r.train.numThreads = opts.threads;
    // The 3000-image run takes twice the steps: at 0.05 (or 0.03) it
    // diverges to chance in its second epoch, at 0.01 it fits (1.000
    // on the 5000 paper test images).
    r.train.learningRate = opts.paper ? 0.01 : 0.05;
    r.trainSize = opts.paper ? 3000 : 1500;
    return r;
}

bool
loadCachedModel(const ModelRecipe &recipe, const std::string &path,
                dnn::Network &net)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string magic, key, sum;
    std::size_t size = 0;
    in >> magic >> key >> sum >> size;
    in.get(); // the header's newline
    if (!in || magic != kCacheMagic || key != hex(fnv1a(recipe.keyText())))
        return false;
    std::string payload(size, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in.gcount()) != size ||
        sum != hex(fnv1a(payload)))
        return false;
    std::istringstream image(payload);
    try {
        dnn::loadParameters(net, image);
    } catch (const FatalError &) {
        return false; // the architecture changed under the same key
    }
    return true;
}

void
storeCachedModel(const ModelRecipe &recipe, const std::string &path,
                 dnn::Network &net)
{
    std::ostringstream image;
    dnn::saveParameters(net, image);
    const std::string payload = image.str();
    // Write aside and rename, so a reader never sees half a file. The
    // temp name is unique per call: processes and threads training the
    // same model into one cache each rename their own complete file.
    static std::atomic<std::uint64_t> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(serial++);
    std::ofstream out(tmp, std::ios::binary);
    out << kCacheMagic << ' ' << hex(fnv1a(recipe.keyText())) << ' '
        << hex(fnv1a(payload)) << ' ' << payload.size() << '\n';
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.close();
    std::error_code ec;
    if (out)
        std::filesystem::rename(tmp, path, ec);
    if (!out || ec) {
        std::filesystem::remove(tmp, ec);
        fatal("cannot write model cache entry ", path);
    }
}

dnn::Network
trainedMnistFc(const BenchOptions &opts)
{
    return cachedModel(opts, mnistFcRecipe(opts));
}

dnn::Dataset
mnistTestSet(const BenchOptions &opts)
{
    return dnn::makeSyntheticMnist(
        static_cast<int>(opts.samples(1000)), 2);
}

dnn::Network
trainedAlexNet(const BenchOptions &opts)
{
    return cachedModel(opts, alexNetRecipe(opts));
}

dnn::Dataset
cifarTestSet(const BenchOptions &opts)
{
    return dnn::makeSyntheticCifar(
        static_cast<int>(opts.samples(300)), 2);
}

std::vector<Volt>
vlvGrid()
{
    return {0.34_V, 0.38_V, 0.42_V, 0.46_V, 0.50_V};
}

std::vector<Volt>
wideGrid()
{
    return {0.34_V, 0.36_V, 0.38_V, 0.40_V, 0.42_V, 0.44_V,
            0.46_V, 0.48_V, 0.50_V, 0.55_V, 0.60_V};
}

std::vector<Volt>
highGrid()
{
    return {0.50_V, 0.55_V, 0.60_V, 0.65_V, 0.70_V, 0.75_V, 0.80_V};
}

} // namespace vboost::bench
