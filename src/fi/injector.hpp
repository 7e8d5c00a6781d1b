/**
 * @file
 * Fault injection into a trained network's int16 storage image: the
 * C++ counterpart of the paper's TensorFlow fault-injection framework
 * (Sec. 2 and Sec. 5.1). Weights (all layers, or one selected layer)
 * and/or input images are quantized to their SRAM storage words,
 * corrupted under a vulnerability map at the bit failure probability
 * of the operating voltage, and dequantized for inference.
 *
 * Cell layout mirrors the accelerator: weight bits map into the weight
 * memory's cell region modulo its capacity (layers are staged through
 * the same physical SRAM), and input bits map into the input memory's
 * disjoint cell region, so every Monte-Carlo map corrupts exactly the
 * cells a real staged execution would exercise.
 */

#ifndef VBOOST_FI_INJECTOR_HPP
#define VBOOST_FI_INJECTOR_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dnn/network.hpp"
#include "dnn/quantize.hpp"
#include "resilience/resilient_memory.hpp"
#include "sram/ecc.hpp"
#include "sram/fault_map.hpp"
#include "sram/packed_fault_map.hpp"

namespace vboost::fi {

/** What to inject faults into. */
struct InjectionSpec
{
    /** Corrupt weight tensors. */
    bool injectWeights = true;
    /** Restrict weight corruption to this weight-layer index
     *  (-1 = all layers). Index k is the k-th weight tensor. */
    int onlyLayer = -1;
    /** Corrupt the input images. */
    bool injectInputs = false;
    /** Per-read flip probability of a faulty cell (paper: 0.5). */
    double flipProb = 0.5;

    /** Named presets matching the paper's Fig. 2 curves. */
    static InjectionSpec allWeights() { return {}; }
    static InjectionSpec singleLayer(int layer)
    { return {true, layer, false, 0.5}; }
    static InjectionSpec inputsOnly()
    { return {false, -1, true, 0.5}; }
};

/** Physical cell regions the logical data maps onto. */
struct MemoryLayout
{
    /** Weight memory capacity in bits (128 KB for Dante). */
    std::uint64_t weightRegionBits = 128ull * 1024 * 8;
    /** Input memory capacity in bits (16 KB for Dante). */
    std::uint64_t inputRegionBits = 16ull * 1024 * 8;

    /** First cell of the input region (after the weight region). */
    std::uint64_t inputRegionBase() const { return weightRegionBits; }

    /** First cell of the ECC check-bit region (used only by the ECC
     *  ablation; sized at 1/8 of the weight region per SECDED). */
    std::uint64_t parityRegionBase() const
    { return weightRegionBits + inputRegionBits; }

    /** ECC check-bit region size in bits. */
    std::uint64_t parityRegionBits() const
    { return weightRegionBits / 8; }
};

/**
 * The packed fault bits of the weight region (DESIGN.md §12): every
 * cell a network's staged weights visit, hashed once under one map at
 * one fail probability. Layers are staged back to back through the
 * region and wrap modulo its size, so the image covers cells
 * [0, min(staged weight bits, weightRegionBits)) and each layer's
 * window reads it with wrap.
 *
 * Owners that corrupt repeatedly under one frozen map keep an image
 * across calls (recovery::MapAwareTrainer across batches,
 * recovery::ChipEvaluator across the reads of one evaluation).
 */
class WeightRegionImage
{
  public:
    /**
     * Make the image current for `src`'s staged weights under `map` at
     * `fail_prob`. Repacks only when the map's stream key, spatial
     * model or cluster parameters, the fail probability, the region
     * size or the staged bit count changed since the last pack. A
     * fail_prob <= 0 packs nothing (no injection reads the image).
     * Not thread-safe: update before handing the image to readers.
     */
    void update(dnn::Network &src, const sram::VulnerabilityMap &map,
                double fail_prob, const MemoryLayout &layout);

    /** The packed bits for these arguments; fatal unless update()
     *  last made the image current for exactly them. */
    const sram::PackedFaultMap &packed(dnn::Network &src,
                                       const sram::VulnerabilityMap &map,
                                       double fail_prob,
                                       const MemoryLayout &layout) const;

    /** Times update() has packed (diagnostics and tests). */
    std::uint64_t packs() const { return packs_; }

  private:
    struct Key
    {
        sram::MapKey map;
        double failProb = 0.0;
        std::uint64_t regionBits = 0;
        std::uint64_t cells = 0;
        bool operator==(const Key &) const = default;
    };
    static Key keyOf(dnn::Network &src, const sram::VulnerabilityMap &map,
                     double fail_prob, const MemoryLayout &layout);

    Key key_;
    std::optional<sram::PackedFaultMap> packed_;
    std::uint64_t packs_ = 0;
};

/**
 * Produce a corrupted copy of `src`'s parameters in `dst` (both must
 * be structurally identical; build `dst` with the same zoo function).
 * Biases are copied verbatim. Every weight layer takes the int16
 * round trip at every rate and for every spec, like the per-layer,
 * ECC and resilient variants; faults are drawn only on targeted
 * layers at fail_prob > 0, so they are the only difference from the
 * fault-free int16 image (and at fail_prob <= 0, or without weight
 * injection, `rng` is not drawn from). All-weights injection at
 * fail_prob > 0 packs one WeightRegionImage for the call.
 *
 * @return number of bit flips applied.
 */
std::uint64_t corruptNetwork(dnn::Network &dst, dnn::Network &src,
                             const sram::VulnerabilityMap &map,
                             double fail_prob, const InjectionSpec &spec,
                             const MemoryLayout &layout, Rng &rng);

/**
 * corruptNetwork reading the faults from `image`, which must be
 * current (WeightRegionImage::update) for the same src, map,
 * fail_prob and layout when all weights are injected at
 * fail_prob > 0; fatal otherwise. A single-layer spec packs that
 * layer's window instead, and a zero rate stages without faults;
 * both ignore the image. Const on the image, so many threads may
 * share one.
 */
std::uint64_t corruptNetwork(dnn::Network &dst, dnn::Network &src,
                             const sram::VulnerabilityMap &map,
                             double fail_prob, const InjectionSpec &spec,
                             const MemoryLayout &layout, Rng &rng,
                             const WeightRegionImage &image);

/**
 * Per-layer variant of corruptNetwork: weight layer k is corrupted at
 * fail_prob_by_layer[k]. This models the paper's differential boost
 * configurations (Table 2, Boost_diff1/Boost_diff2), where each
 * layer's weight accesses happen at a different boosted voltage and
 * therefore a different bit failure probability.
 *
 * @return number of bit flips applied.
 */
std::uint64_t corruptNetworkPerLayer(
    dnn::Network &dst, dnn::Network &src,
    const sram::VulnerabilityMap &map,
    const std::vector<double> &fail_prob_by_layer, double flip_prob,
    const MemoryLayout &layout, Rng &rng);

/**
 * SECDED-protected variant of corruptNetwork (all-weights target):
 * every 64-bit group of weight storage is protected by Hamming(72,64)
 * check bits that live in their own (equally faulty) cell region.
 * Single-bit errors per codeword are corrected; double errors are
 * detected but passed through; triple+ errors may miscorrect. This is
 * the conventional low-voltage mitigation the ECC ablation bench
 * compares against boosting.
 *
 * @param stats optional decode statistics output.
 * @return number of raw bit flips applied (before correction).
 */
std::uint64_t corruptNetworkEcc(dnn::Network &dst, dnn::Network &src,
                                const sram::VulnerabilityMap &map,
                                double fail_prob, double flip_prob,
                                const MemoryLayout &layout, Rng &rng,
                                sram::EccStats *stats = nullptr);

/**
 * The weight image resilient staging writes: every weight layer of a
 * network quantized to int16 words, packed four to a 64-bit group
 * (the tail group zero-padded, like a real padded row) with the
 * group's SECDED check byte, plus the clean dequantized tensor of each
 * layer. It depends only on the weights, so one image serves every
 * staging of the same weights (a Monte-Carlo point, every run of a
 * serving cluster while its weights hold; see StagedWeightsCache).
 */
struct StagedWeights
{
    struct Layer
    {
        /** The layer's int16 storage codec. */
        FixedPointCodec codec;
        /** int16 words the layer occupies. */
        std::size_t words = 0;
        /** Index of the layer's first group in `groups`. */
        std::size_t firstGroup = 0;
        /** The dequantized weights when no read goes wrong. */
        dnn::Tensor clean;
    };

    std::vector<Layer> layers;
    /** 64-bit groups of all layers, in staging order. */
    std::vector<std::uint64_t> groups;
    /** sram::SecdedCodec::encode of each group. */
    std::vector<std::uint8_t> checks;
    /** Which build this is: stageWeights() gives every image it builds
     *  a new nonzero serial, so a StagingUndo recorded against one
     *  image never applies to a rebuilt one. */
    std::uint64_t serial = 0;
};

/** Build the staging image of `src`'s current weights. */
StagedWeights stageWeights(dnn::Network &src);

/**
 * What a staging left in its destination network: the groups whose
 * weight elements differ from the image's clean tensors. A serving
 * slot keeps one next to its network, so the next staging restores
 * just those elements instead of copying every clean tensor.
 */
struct StagingUndo
{
    /** StagedWeights::serial of the image staged last (0: none, and
     *  the next staging copies every clean tensor). */
    std::uint64_t image = 0;
    /** Indices into StagedWeights::groups, ascending. */
    std::vector<std::size_t> groups;
};

/** One execution slot's staging target: a clone of the served network
 *  and the undo record of its last staging. */
struct StagingSlot
{
    std::unique_ptr<dnn::Network> net;
    StagingUndo undo;
};

/**
 * A network's staging image kept across calls, and the pool of
 * execution slots that stage it (DESIGN.md §8, "Staging-image
 * lifetime"). The key of the image is the weights themselves: a copy
 * of every weight tensor (shape and bits) taken at the last build,
 * compared with memcmp on each update(). Biases are not in the image.
 * update() and reserveSlots() are serial: call them on one thread,
 * then hand the image to readers. Each slot serves one thread at a
 * time; which server's batch it stages next does not matter, because
 * its undo record is keyed by the image.
 */
class StagedWeightsCache
{
  public:
    /** The staging image of `src`'s current weights: the kept one when
     *  every weight tensor equals the snapshot, else a new build. */
    const StagedWeights &update(dnn::Network &src);

    /** The image the last update() returned (panics before the
     *  first). */
    const StagedWeights &image() const;

    /** Times update() has built the image (diagnostics and tests). */
    std::uint64_t builds() const { return builds_; }

    /** Make slots [0, n) addressable (serial, before a parallel
     *  region). */
    void reserveSlots(std::size_t n);

    /** Slot `s` (< reserveSlots), its network cloned from `src` on
     *  first use. */
    StagingSlot &slot(std::size_t s, const dnn::Network &src);

    /** Slot networks cloned so far (diagnostics and tests). */
    std::size_t slotNetworks() const;

  private:
    /** Whether the kept image was built from `src`'s current weights. */
    bool current(dnn::Network &src) const;

    StagedWeights image_;
    /** The weight tensors image_ was built from. */
    std::vector<dnn::Tensor> snapshot_;
    std::uint64_t builds_ = 0;
    std::vector<StagingSlot> slots_;
};

/**
 * Closed-loop variant of corruptNetworkEcc: the weight image is staged
 * through a ResilientMemory — each codeword written, then read back
 * through the full resilient pipeline (ECC decode, bounded retry with
 * boost escalation, standing-level raises, row sparing) at supply
 * `vdd`. The decoded data feeds inference; retry / escalation /
 * quarantine counters and energy accumulate inside `rmem` (snapshot()
 * after the call). Layers wrap through the memory modulo its capacity,
 * mirroring the staged execution of the other injectors.
 *
 * `image` must be stageWeights(src) for src's current weights: `dst`
 * receives src's biases and, for each weight tensor, the image's clean
 * tensor, re-dequantized only at the codewords
 * ResilientMemory::stageGroups reports whose read-back differs.
 *
 * With `undo`, dst's weights must be as the staging that filled `undo`
 * left them: when it was against this image, only its groups are
 * restored from the clean tensors instead of copying them whole. The
 * call then records its own fix-ups in `undo`. Either way dst ends
 * bitwise the same.
 *
 * @return residual flipped bits (after correction and retries) —
 *         the corruption that actually reaches inference.
 */
std::uint64_t corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                                      const StagedWeights &image,
                                      resilience::ResilientMemory &rmem,
                                      Volt vdd,
                                      const sram::VulnerabilityMap &map,
                                      StagingUndo *undo = nullptr);

/** corruptNetworkResilient with a staging image built for this call. */
std::uint64_t corruptNetworkResilient(dnn::Network &dst, dnn::Network &src,
                                      resilience::ResilientMemory &rmem,
                                      Volt vdd,
                                      const sram::VulnerabilityMap &map);

/**
 * Corrupt a batch of input images through the input-memory cell
 * region. Every image is staged through the same physical SRAM, so
 * image bits map modulo the input region size.
 *
 * @return corrupted copy of the batch.
 */
dnn::Tensor corruptInputs(const dnn::Tensor &images,
                          const sram::VulnerabilityMap &map,
                          double fail_prob, double flip_prob,
                          const MemoryLayout &layout, Rng &rng);

} // namespace vboost::fi

#endif // VBOOST_FI_INJECTOR_HPP
