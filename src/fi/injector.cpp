#include "fi/injector.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <optional>
#include <span>
#include <utility>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "dnn/quantize.hpp"
#include "dnn/split.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::fi {

namespace {

/** Weight bits `src` stages through the weight region. */
std::uint64_t
stagedWeightBits(dnn::Network &src)
{
    std::uint64_t bits = 0;
    for (const auto &p : src.weightParams())
        bits += p.value->numel() * 16ull;
    return bits;
}

/**
 * Stage every weight layer of `src` into `dst` in one fused backend
 * pass per layer (DESIGN.md §12): quantize, corrupt, dequantize. Bits
 * of layer l live at ((cursor + k) mod weightRegionBits) in the cell
 * space — staged tiles wrap around the physical memory — and are
 * corrupted at fail probability `prob_of(l)` (0: the pure quantization
 * round trip untargeted layers take). The faults come from the region
 * image `image_of(l)` when it is not nullptr, else the layer's window
 * is packed on its own. Every dst weight tensor is overwritten, so
 * callers copy only the other parameters into dst beforehand.
 */
template <typename ProbOf, typename ImageOf>
std::uint64_t
stageWeightLayers(dnn::Network &dst, dnn::Network &src,
                  const sram::VulnerabilityMap &map,
                  const MemoryLayout &layout, double flip_prob, Rng &rng,
                  ProbOf prob_of, ImageOf image_of)
{
    auto src_weights = src.weightParams();
    auto dst_weights = dst.weightParams();
    const dnn::Backend &backend = dnn::activeBackend();
    std::uint64_t flipped = 0;
    std::uint64_t bit_cursor = 0;
    for (std::size_t l = 0; l < src_weights.size(); ++l) {
        auto q = dnn::quantize(*src_weights[l].value);
        // Decode straight into dst's tensor (copyParamsFrom checked
        // the shapes): no per-batch allocation of a fresh layer.
        float *decoded = dst_weights[l].value->data();
        if (const sram::PackedFaultMap *image = image_of(l)) {
            flipped += backend.applyRegionImageDequant(
                q.words, q.codec, decoded, *image, bit_cursor, flip_prob,
                rng);
        } else {
            flipped += backend.applyFaultMapDequant(
                q.words, q.codec, decoded, map,
                {0, layout.weightRegionBits, bit_cursor},
                {prob_of(l), flip_prob}, rng);
        }
        bit_cursor += q.words.size() * 16ull;
    }
    return flipped;
}

/** The last serial stageWeights() handed out. */
// vblint: allow(VB004, process-wide image identity counter; atomic and never feeds model results)
std::atomic<std::uint64_t> g_lastStagingSerial{0};

/** Cells a split region-image pack gives each part at least. */
constexpr std::size_t kMinPackCellsPerPart = std::size_t{1} << 18;

/** The region image of the first `cells` weight-region cells, packed
 *  by packed-word ranges when a training batch splits (DESIGN.md
 *  §12, "Split training"). */
sram::PackedFaultMap
packRegion(const sram::VulnerabilityMap &map, double fail_prob,
           const MemoryLayout &layout, std::uint64_t cells)
{
    return sram::PackedFaultMap(
        map, 0, layout.weightRegionBits, 0, cells, fail_prob,
        dnn::splitParts(static_cast<std::size_t>(cells),
                        kMinPackCellsPerPart));
}

} // namespace

WeightRegionImage::Key
WeightRegionImage::keyOf(dnn::Network &src,
                         const sram::VulnerabilityMap &map, double fail_prob,
                         const MemoryLayout &layout)
{
    return {map.key(), fail_prob, layout.weightRegionBits,
            std::min(stagedWeightBits(src), layout.weightRegionBits)};
}

void
WeightRegionImage::update(dnn::Network &src,
                          const sram::VulnerabilityMap &map,
                          double fail_prob, const MemoryLayout &layout)
{
    if (fail_prob <= 0.0)
        return;
    const Key key = keyOf(src, map, fail_prob, layout);
    if (packed_ && key == key_)
        return;
    packed_.emplace(packRegion(map, fail_prob, layout, key.cells));
    key_ = key;
    ++packs_;
}

const sram::PackedFaultMap &
WeightRegionImage::packed(dnn::Network &src,
                          const sram::VulnerabilityMap &map,
                          double fail_prob, const MemoryLayout &layout) const
{
    if (!packed_ || !(keyOf(src, map, fail_prob, layout) == key_))
        fatal("WeightRegionImage: image is not current for this call "
              "(update() it first)");
    return *packed_;
}

std::uint64_t
corruptNetwork(dnn::Network &dst, dnn::Network &src,
               const sram::VulnerabilityMap &map, double fail_prob,
               const InjectionSpec &spec, const MemoryLayout &layout,
               Rng &rng)
{
    WeightRegionImage image;
    if (spec.injectWeights && spec.onlyLayer < 0)
        image.update(src, map, fail_prob, layout);
    return corruptNetwork(dst, src, map, fail_prob, spec, layout, rng,
                          image);
}

std::uint64_t
corruptNetwork(dnn::Network &dst, dnn::Network &src,
               const sram::VulnerabilityMap &map, double fail_prob,
               const InjectionSpec &spec, const MemoryLayout &layout,
               Rng &rng, const WeightRegionImage &image)
{
    // Staging overwrites every weight tensor: copy only the rest.
    dst.copyParamsFrom(src, /*weights=*/false);

    const std::size_t layers = src.weightParams().size();
    if (layers != dst.weightParams().size())
        fatal("corruptNetwork: network structure mismatch");
    if (spec.onlyLayer >= static_cast<int>(layers))
        fatal("corruptNetwork: layer index ", spec.onlyLayer,
              " out of range (", layers, " weight layers)");

    // Every layer round-trips quantization at every rate (the
    // accelerator computes on int16 storage); only targeted layers at
    // fail_prob > 0 get faults. A single targeted layer packs just its
    // own window.
    const bool faulty = spec.injectWeights && fail_prob > 0.0;
    const sram::PackedFaultMap *packed =
        faulty && spec.onlyLayer < 0
            ? &image.packed(src, map, fail_prob, layout)
            : nullptr;
    return stageWeightLayers(
        dst, src, map, layout, spec.flipProb, rng,
        [&](std::size_t l) {
            return faulty && (spec.onlyLayer < 0 ||
                              spec.onlyLayer == static_cast<int>(l))
                       ? fail_prob
                       : 0.0;
        },
        [&](std::size_t) { return packed; });
}

std::uint64_t
corruptNetworkPerLayer(dnn::Network &dst, dnn::Network &src,
                       const sram::VulnerabilityMap &map,
                       const std::vector<double> &fail_prob_by_layer,
                       double flip_prob, const MemoryLayout &layout,
                       Rng &rng)
{
    dst.copyParamsFrom(src, /*weights=*/false);
    const std::size_t layers = src.weightParams().size();
    if (fail_prob_by_layer.size() != layers)
        fatal("corruptNetworkPerLayer: expected ", layers,
              " per-layer probabilities, got ", fail_prob_by_layer.size());

    // One region image per distinct fail probability.
    const std::uint64_t cells =
        std::min(stagedWeightBits(src), layout.weightRegionBits);
    std::vector<std::pair<double, sram::PackedFaultMap>> images;
    return stageWeightLayers(
        dst, src, map, layout, flip_prob, rng,
        [&](std::size_t l) { return fail_prob_by_layer[l]; },
        [&](std::size_t l) -> const sram::PackedFaultMap * {
            const double p = fail_prob_by_layer[l];
            if (p <= 0.0)
                return nullptr;
            for (const auto &[prob, image] : images) {
                if (prob == p)
                    return &image;
            }
            images.emplace_back(p, packRegion(map, p, layout, cells));
            return &images.back().second;
        });
}

std::uint64_t
corruptNetworkEcc(dnn::Network &dst, dnn::Network &src,
                  const sram::VulnerabilityMap &map, double fail_prob,
                  double flip_prob, const MemoryLayout &layout, Rng &rng,
                  sram::EccStats *stats)
{
    // Every weight tensor is overwritten below: copy only the rest.
    dst.copyParamsFrom(src, /*weights=*/false);
    auto dst_weights = dst.weightParams();
    const StagedWeights image = stageWeights(src);

    // Group i stages 64 data cells (the tail group of a layer padded)
    // from weight-region bit 64i and 8 check cells from parity-region
    // bit 8i; both walks wrap their regions, which are packed once per
    // call.
    const std::uint64_t groups = image.groups.size();
    std::optional<sram::PackedFaultMap> data_image;
    std::optional<sram::PackedFaultMap> check_image;
    if (fail_prob > 0.0) {
        data_image.emplace(packRegion(
            map, fail_prob, layout,
            std::min(groups * 64, layout.weightRegionBits)));
        check_image.emplace(
            map, layout.parityRegionBase(), layout.parityRegionBits(), 0,
            std::min(groups * 8, layout.parityRegionBits()), fail_prob);
    }

    std::uint64_t flipped = 0;
    for (std::size_t l = 0; l < image.layers.size(); ++l) {
        const StagedWeights::Layer &layer = image.layers[l];
        dnn::Tensor &out = *dst_weights[l].value;
        out = layer.clean;
        for (std::size_t g = 0; 4 * g < layer.words; ++g) {
            const std::size_t i = layer.firstGroup + g;
            std::uint64_t word = image.groups[i];
            std::uint8_t check = image.checks[i];
            // One resilient read of the codeword: data cells, then
            // check cells, drawn even at flip_prob 0.
            if (data_image) {
                const sram::WordMask mask{
                    data_image->maskWrapped(64 * i % layout.weightRegionBits,
                                            64),
                    static_cast<std::uint8_t>(check_image->maskWrapped(
                        8 * i % layout.parityRegionBits(), 8))};
                flipped += static_cast<std::uint64_t>(
                    sram::flipMasked(word, check, mask, flip_prob, rng));
            }
            const auto decoded = sram::SecdedCodec::decode(word, check);
            if (stats)
                stats->record(decoded.outcome);
            if (decoded.data == image.groups[i])
                continue;
            for (std::size_t k = 0; k < 4 && 4 * g + k < layer.words; ++k)
                out[4 * g + k] = layer.codec.decode(static_cast<std::int16_t>(
                    static_cast<std::uint16_t>(decoded.data >> (16 * k))));
        }
    }
    return flipped;
}

StagedWeights
stageWeights(dnn::Network &src)
{
    StagedWeights image;
    const auto weights = src.weightParams();
    std::size_t total_groups = 0;
    for (const auto &p : weights)
        total_groups += (p.value->numel() + 3) / 4;
    image.groups.reserve(total_groups);
    image.checks.reserve(total_groups);
    for (const auto &p : weights) {
        const dnn::QuantizedTensor q = dnn::quantize(*p.value);
        const std::vector<std::int16_t> &words = q.words;
        image.layers.push_back({q.codec, words.size(), image.groups.size(),
                                dnn::dequantize(q)});
        for (std::size_t g = 0; g < words.size(); g += 4) {
            std::uint64_t group = 0;
            for (std::size_t k = 0; k < 4 && g + k < words.size(); ++k)
                group |= static_cast<std::uint64_t>(
                             static_cast<std::uint16_t>(words[g + k]))
                         << (16 * k);
            image.groups.push_back(group);
            image.checks.push_back(sram::SecdedCodec::encode(group));
        }
    }
    image.serial = ++g_lastStagingSerial;
    return image;
}

bool
StagedWeightsCache::current(dnn::Network &src) const
{
    if (builds_ == 0)
        return false;
    const auto weights = src.weightParams();
    if (weights.size() != snapshot_.size())
        return false;
    for (std::size_t l = 0; l < weights.size(); ++l) {
        const dnn::Tensor &w = *weights[l].value;
        const dnn::Tensor &kept = snapshot_[l];
        if (w.shape() != kept.shape())
            return false;
        if (w.numel() != 0 &&
            std::memcmp(w.data(), kept.data(), w.numel() * sizeof(float)) != 0)
            return false;
    }
    return true;
}

const StagedWeights &
StagedWeightsCache::update(dnn::Network &src)
{
    if (current(src))
        return image_;
    snapshot_.clear();
    image_ = stageWeights(src);
    for (const auto &p : src.weightParams())
        snapshot_.push_back(*p.value);
    ++builds_;
    return image_;
}

const StagedWeights &
StagedWeightsCache::image() const
{
    if (builds_ == 0)
        panic("StagedWeightsCache::image: no image before update()");
    return image_;
}

void
StagedWeightsCache::reserveSlots(std::size_t n)
{
    if (slots_.size() < n)
        slots_.resize(n);
}

StagingSlot &
StagedWeightsCache::slot(std::size_t s, const dnn::Network &src)
{
    StagingSlot &slot = slots_.at(s);
    if (!slot.net)
        slot.net = std::make_unique<dnn::Network>(src.clone());
    return slot;
}

std::size_t
StagedWeightsCache::slotNetworks() const
{
    return static_cast<std::size_t>(
        std::count_if(slots_.begin(), slots_.end(),
                      [](const StagingSlot &s) { return s.net != nullptr; }));
}

std::uint64_t
corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                        const StagedWeights &image,
                        resilience::ResilientMemory &rmem, Volt vdd,
                        const sram::VulnerabilityMap &map, StagingUndo *undo)
{
    // Every weight tensor is overwritten below: copy only the rest.
    dst.copyParamsFrom(src, false);
    auto dst_weights = dst.weightParams();
    if (image.layers.size() != dst_weights.size())
        fatal("corruptNetworkResilient: network structure mismatch");

    // Return dst's weights to the clean tensors: restore the groups
    // the last staging of this image fixed up, else copy them whole.
    if (undo && undo->image != 0 && undo->image == image.serial) {
        std::size_t l = 0;
        for (const std::size_t i : undo->groups) {
            while (i >= image.layers[l].firstGroup +
                            (image.layers[l].words + 3) / 4)
                ++l;
            const StagedWeights::Layer &layer = image.layers[l];
            const std::size_t e = 4 * (i - layer.firstGroup);
            std::copy_n(layer.clean.data() + e,
                        std::min<std::size_t>(4, layer.words - e),
                        dst_weights[l].value->data() + e);
        }
    } else {
        for (std::size_t l = 0; l < image.layers.size(); ++l)
            *dst_weights[l].value = image.layers[l].clean;
    }
    if (undo) {
        undo->image = 0; // not valid again until this staging completes
        undo->groups.clear();
    }

    // Only the codewords stageGroups reports can read back other than
    // as staged.
    std::vector<resilience::SlowRead> slow;
    std::uint64_t residual = 0;
    std::uint64_t group_cursor = 0; // 64-bit words staged so far
    for (std::size_t l = 0; l < image.layers.size(); ++l) {
        const StagedWeights::Layer &layer = image.layers[l];
        float *out = dst_weights[l].value->data();
        const std::size_t first = layer.firstGroup;
        const std::size_t groups = (layer.words + 3) / 4;
        rmem.stageGroups(group_cursor, image.groups.data() + first,
                         image.checks.data() + first, groups, vdd, map,
                         slow);
        group_cursor += groups;
        for (const resilience::SlowRead &r : slow) {
            const std::uint64_t group = image.groups[first + r.index];
            if (r.data == group)
                continue;
            residual +=
                static_cast<std::uint64_t>(std::popcount(group ^ r.data));
            for (std::size_t k = 0; k < 4 && 4 * r.index + k < layer.words;
                 ++k)
                out[4 * r.index + k] = layer.codec.decode(
                    static_cast<std::int16_t>(
                        static_cast<std::uint16_t>(r.data >> (16 * k))));
            if (undo)
                undo->groups.push_back(first + r.index);
        }
    }
    if (undo)
        undo->image = image.serial;
    return residual;
}

std::uint64_t
corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                        resilience::ResilientMemory &rmem, Volt vdd,
                        const sram::VulnerabilityMap &map)
{
    return corruptNetworkResilient(dst, src, stageWeights(src), rmem, vdd,
                                   map);
}

dnn::Tensor
corruptInputs(const dnn::Tensor &images, const sram::VulnerabilityMap &map,
              double fail_prob, double flip_prob,
              const MemoryLayout &layout, Rng &rng)
{
    auto q = dnn::quantize(images);
    if (fail_prob <= 0.0)
        return dnn::dequantize(q);
    // Each image is staged through the same physical input memory:
    // image i's bits start where a fresh staging would place them
    // (offset 0 of the region), so all images read one region image.
    const int batch = images.dim(0);
    const std::size_t per_image =
        images.numel() / static_cast<std::size_t>(batch);
    const sram::PackedFaultMap region(
        map, layout.inputRegionBase(), layout.inputRegionBits, 0,
        std::min<std::uint64_t>(per_image * 16ull, layout.inputRegionBits),
        fail_prob);
    const dnn::Backend &backend = dnn::activeBackend();
    dnn::Tensor out = dnn::Tensor::uninitialized(images.shape());
    for (int i = 0; i < batch; ++i) {
        const std::size_t first = per_image * static_cast<std::size_t>(i);
        backend.applyRegionImageDequant(
            std::span<std::int16_t>(q.words.data() + first, per_image),
            q.codec, out.data() + first, region, 0, flip_prob, rng);
    }
    return out;
}

} // namespace vboost::fi
