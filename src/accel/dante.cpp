#include "accel/dante.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "dnn/layers.hpp"
#include "dnn/quantize.hpp"

namespace vboost::accel {

Hertz
DanteConfig::frequencyAt(Volt v) const
{
    if (v < vMin || v > vMax)
        fatal("DanteConfig: supply ", v.value(), " V outside [",
              vMin.value(), ", ", vMax.value(), "] V");
    const Volt knee{0.5};
    if (v <= knee)
        return freqLow;
    // Linear interpolation between the 0.5 V and 0.8 V anchors.
    const double t = (v.value() - knee.value()) /
                     (vMax.value() - knee.value());
    return Hertz(freqLow.value() +
                 t * (freqHigh.value() - freqLow.value()));
}

DanteChip::DanteChip(DanteConfig cfg, circuit::TechnologyParams tech,
                     sram::FailureRateParams failure)
    : cfg_(cfg), tech_(tech), energy_(tech), failureModel_(failure),
      weightMem_("weight_mem", cfg.weightBanks,
                 circuit::BoosterDesign::uniform(
                     cfg.boostLevels, 64, Farad(40.0e-12 / cfg.boostLevels)),
                 tech, failureModel_, 0),
      inputMem_("input_mem", cfg.inputBanks,
                circuit::BoosterDesign::uniform(
                    cfg.boostLevels, 64, Farad(40.0e-12 / cfg.boostLevels)),
                tech, failureModel_,
                static_cast<std::uint64_t>(cfg.weightBanks) *
                    sram::SramBank::kBits)
{
}

void
DanteChip::setBoostConfig(int bank, std::uint32_t bits)
{
    weightMem_.setBoostConfig(bank, bits);
    ++counters_.setBoostConfigInstrs;
}

void
DanteChip::setWeightBoostLevel(int level)
{
    const std::uint32_t bits =
        level == 0 ? 0u : ((1u << level) - 1u);
    for (int b = 0; b < weightMem_.banks(); ++b)
        setBoostConfig(b, bits);
}

void
DanteChip::setInputBoostLevel(int level)
{
    for (int b = 0; b < inputMem_.banks(); ++b) {
        inputMem_.setBoostLevel(b, level);
        ++counters_.setBoostConfigInstrs;
    }
}

namespace {

/**
 * Stage a buffer of int16 words through a banked memory chunk by
 * chunk: write, read back through the faulty path, and return the
 * corrupted copy. Chunks reuse the memory from element 0, exactly as
 * an accelerator staging a layer larger than its local SRAM would.
 */
std::vector<std::int16_t>
stageThroughMemory(sram::BankedMemory &mem,
                   const std::vector<std::int16_t> &words, Volt vdd,
                   const sram::VulnerabilityMap &map, Rng &rng)
{
    const std::uint32_t capacity = mem.words() * 4; // int16 elements
    std::vector<std::int16_t> out;
    out.reserve(words.size());
    std::size_t pos = 0;
    while (pos < words.size()) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::size_t>(capacity, words.size() - pos));
        std::vector<std::int16_t> chunk(words.begin() +
                                            static_cast<long>(pos),
                                        words.begin() +
                                            static_cast<long>(pos + n));
        mem.writeWords16(0, chunk, vdd);
        auto read_back = mem.readWords16(0, n, vdd, map, rng);
        out.insert(out.end(), read_back.begin(), read_back.end());
        pos += n;
    }
    return out;
}

} // namespace

dnn::Tensor
DanteChip::runInference(dnn::Network &net, dnn::Network &scratch,
                        const dnn::Tensor &x, Volt vdd,
                        const std::vector<int> &weight_levels,
                        int input_boost_level,
                        const sram::VulnerabilityMap &map, Rng &rng)
{
    if (net.size() != scratch.size())
        fatal("DanteChip::runInference: net/scratch structure mismatch");
    scratch.copyParamsFrom(net);

    // Count weight layers and validate the level vector.
    std::size_t num_weight_layers = 0;
    for (std::size_t i = 0; i < net.size(); ++i) {
        if (!net.layer(i).params().empty())
            ++num_weight_layers;
    }
    if (weight_levels.size() != num_weight_layers)
        fatal("DanteChip::runInference: expected ", num_weight_layers,
              " boost levels, got ", weight_levels.size());

    setInputBoostLevel(input_boost_level);

    auto roundtrip_acts = [&](const dnn::Tensor &acts) {
        auto q = dnn::quantize(acts);
        q.words = stageThroughMemory(inputMem_, q.words, vdd, map, rng);
        return dnn::dequantize(q);
    };

    dnn::Tensor a = roundtrip_acts(x);
    const auto batch = static_cast<std::uint64_t>(x.dim(0));

    std::size_t weight_idx = 0;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
        dnn::Layer &layer = scratch.layer(i);
        auto params = layer.params();
        if (!params.empty()) {
            // Activations produced since the previous trainable layer
            // live in the input memory; they round-trip it (faultily)
            // as this layer fetches its operands. The very first
            // trainable layer consumes the already-staged input batch.
            if (weight_idx > 0) {
                counters_.activations += a.numel();
                a = roundtrip_acts(a);
            }
            // Stage this layer's weights through the boosted memory.
            setWeightBoostLevel(weight_levels[weight_idx]);
            for (auto &p : params) {
                if (!p.isWeight)
                    continue; // biases are PE-resident registers
                auto q = dnn::quantize(*p.value);
                q.words =
                    stageThroughMemory(weightMem_, q.words, vdd, map,
                                       rng);
                *p.value = dnn::dequantize(q);
            }
            ++weight_idx;
        }

        const dnn::Tensor out = layer.forward(a, /*train=*/false);

        // MAC accounting for the trainable layers.
        std::uint64_t macs = 0;
        if (auto *d = dynamic_cast<dnn::Dense *>(&layer)) {
            macs = batch * static_cast<std::uint64_t>(d->inFeatures()) *
                   static_cast<std::uint64_t>(d->outFeatures());
        } else if (auto *c = dynamic_cast<dnn::Conv2d *>(&layer)) {
            macs = batch *
                   static_cast<std::uint64_t>(c->weight().numel()) *
                   static_cast<std::uint64_t>(out.dim(2)) *
                   static_cast<std::uint64_t>(out.dim(3));
        }
        if (macs > 0) {
            counters_.macOps += macs;
            counters_.peEnergy +=
                energy_.peOpEnergy(vdd) * static_cast<double>(macs);
        }
        a = out;
    }
    return a;
}

void
DanteChip::resetCounters()
{
    counters_.reset();
    weightMem_.resetCounters();
    inputMem_.resetCounters();
}

Joule
DanteChip::dynamicEnergy() const
{
    const auto w = weightMem_.totalCounters();
    const auto i = inputMem_.totalCounters();
    return w.accessEnergy + w.boostEnergy + i.accessEnergy +
           i.boostEnergy + counters_.peEnergy;
}

Watt
DanteChip::leakagePower(Volt vdd) const
{
    return weightMem_.leakagePower(vdd) + inputMem_.leakagePower(vdd) +
           energy_.peLeakage(vdd);
}

Area
DanteChip::boosterArea() const
{
    return weightMem_.boosterArea() + inputMem_.boosterArea();
}

} // namespace vboost::accel
