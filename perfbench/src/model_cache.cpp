#include "model_cache.hpp"

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>

#include "common/logging.hpp"
#include "dnn/dataset.hpp"
#include "dnn/quantize.hpp"
#include "dnn/serialize.hpp"
#include "dnn/zoo.hpp"
#include "harness.hpp"

namespace vboost::perfbench {

namespace {

constexpr const char *kMagic = "vboost-perfbench-model/1";

std::string
hex(std::uint64_t v)
{
    char buf[17] = {};
    std::to_chars(buf, buf + 16, v, 16);
    return buf;
}

/** FNV-1a over the bytes of `bytes`. */
std::uint64_t
bytesDigest(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a offset basis
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

dnn::Dataset
trainingSet(const ModelSpec &spec)
{
    if (spec.arch == "alexnet_cifar")
        return dnn::makeSyntheticCifar(spec.trainSize, spec.dataSeed);
    return dnn::makeSyntheticMnist(spec.trainSize, spec.dataSeed);
}

/** The stored parameter image when `path` holds a valid entry for
 *  `spec`, else nullopt (with the reason in `why`). */
std::optional<std::string>
readEntry(const ModelSpec &spec, const std::string &path, std::string &why)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        why = "missing";
        return std::nullopt;
    }
    std::string magic, key, sum;
    std::size_t size = 0;
    in >> magic >> key >> sum >> size;
    in.get(); // the header's newline
    if (!in || magic != kMagic) {
        why = "not a cache entry";
        return std::nullopt;
    }
    if (key != hex(bytesDigest(spec.keyText()))) {
        why = "keyed for a different model";
        return std::nullopt;
    }
    std::string payload(size, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in.gcount()) != size ||
        sum != hex(bytesDigest(payload))) {
        why = "checksum mismatch";
        return std::nullopt;
    }
    return payload;
}

} // namespace

std::string
ModelSpec::keyText() const
{
    std::ostringstream os;
    os << "arch=" << arch << ";init=" << initSeed
       << ";epochs=" << train.epochs << ";batch=" << train.batchSize
       << ";lr=" << jsonNumber(train.learningRate)
       << ";momentum=" << jsonNumber(train.momentum)
       << ";decay=" << jsonNumber(train.lrDecay)
       << ";shuffle=" << shuffleSeed << ";train_size=" << trainSize
       << ";data_seed=" << dataSeed << ";clip=" << jsonNumber(clip);
    return os.str();
}

std::string
ModelSpec::fileName() const
{
    return arch + "-" + hex(bytesDigest(keyText())) + ".bin";
}

ModelSpec
mnistFcSpec()
{
    ModelSpec s;
    s.arch = "mnist_fc";
    s.train.epochs = 6;
    s.trainSize = 4000;
    return s;
}

ModelSpec
alexNetSpec()
{
    ModelSpec s;
    s.arch = "alexnet_cifar";
    s.train.epochs = 3;
    s.train.learningRate = 0.05;
    s.trainSize = 1500;
    return s;
}

dnn::Network
buildModel(const ModelSpec &spec)
{
    Rng rng(spec.initSeed);
    if (spec.arch == "mnist_fc")
        return dnn::buildMnistFc(rng);
    if (spec.arch == "alexnet_cifar")
        return dnn::buildAlexNetCifar(rng);
    fatal("unknown model architecture '", spec.arch, "'");
}

dnn::Network
loadCachedModel(const ModelSpec &spec, const std::string &dir)
{
    const std::string path = dir + "/" + spec.fileName();
    std::string why;
    const auto payload = readEntry(spec, path, why);
    if (!payload)
        fatal("model cache entry ", path, ": ", why,
              " (warm the cache first: vboost_perfbench warm)");
    dnn::Network net = buildModel(spec);
    std::istringstream in(*payload);
    dnn::loadParameters(net, in);
    return net;
}

bool
warmModel(const ModelSpec &spec, const std::string &dir)
{
    const std::string path = dir + "/" + spec.fileName();
    std::string why;
    if (readEntry(spec, path, why))
        return false;
    inform("training ", spec.arch, " for the model cache (", why, ")");
    dnn::Network net = buildModel(spec);
    dnn::SgdTrainer trainer(spec.train);
    Rng rng(spec.shuffleSeed);
    trainer.train(net, trainingSet(spec), rng);
    dnn::clipParameters(net, spec.clip);

    std::ostringstream image;
    dnn::saveParameters(net, image);
    const std::string payload = image.str();
    std::filesystem::create_directories(dir);
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        out << kMagic << ' ' << hex(bytesDigest(spec.keyText())) << ' '
            << hex(bytesDigest(payload)) << ' ' << payload.size() << '\n';
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        if (!out)
            fatal("cannot write model cache entry ", tmp);
    }
    std::filesystem::rename(tmp, path);
    return true;
}

} // namespace vboost::perfbench
