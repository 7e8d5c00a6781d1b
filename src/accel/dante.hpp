/**
 * @file
 * *Dante*: the paper's DNN accelerator chip with voltage-boosted SRAMs
 * (Sec. 4, Table 1, Fig. 10). 144 KB of on-chip SRAM built from 36
 * 4 KB macros — a 128 KB weight memory (16 banks) and a 16 KB input
 * memory (2 banks) — each bank with its own booster column and Boost
 * Input Control block. The accelerator programs per-bank boost levels
 * with a set_boost_config instruction and runs inference by staging
 * each layer's int16 weights through the faulty weight memory.
 */

#ifndef VBOOST_ACCEL_DANTE_HPP
#define VBOOST_ACCEL_DANTE_HPP

#include <cstdint>
#include <vector>

#include "circuit/energy_model.hpp"
#include "dnn/network.hpp"
#include "sram/banked_memory.hpp"

namespace vboost::accel {

/** Chip configuration (paper Table 1). */
struct DanteConfig
{
    /** 64 Kbit banks in the 128 KB weight memory. */
    int weightBanks = 16;
    /** 64 Kbit banks in the 16 KB input memory. */
    int inputBanks = 2;
    /** Programmable boost levels per bank. */
    int boostLevels = 4;
    /** Target frequency at nominal voltage (0.8 V). */
    Hertz freqHigh{330e6};
    /** Target frequency at and below 0.5 V. */
    Hertz freqLow{50e6};
    /** Minimum target supply. */
    Volt vMin{0.34};
    /** Maximum target supply. */
    Volt vMax{0.8};
    /** Chip dimensions: 2.05 mm x 1.13 mm. */
    Area chipArea{2.05e3 * 1.13e3};

    /** The taped-out configuration of Table 1. */
    static DanteConfig fromTable1() { return DanteConfig{}; }

    /** Total on-chip SRAM macros (36 for Table 1). */
    int totalMacros() const { return 2 * (weightBanks + inputBanks); }

    /** Weight memory capacity in bytes. */
    std::uint64_t weightBytes() const
    { return static_cast<std::uint64_t>(weightBanks) * 8192; }

    /** Input memory capacity in bytes. */
    std::uint64_t inputBytes() const
    { return static_cast<std::uint64_t>(inputBanks) * 8192; }

    /** Operating frequency at supply v (Table 1: 330 MHz at 0.8 V,
     *  50 MHz at and below 0.5 V; linear in between). */
    Hertz frequencyAt(Volt v) const;
};

/** Execution counters for one chip run. */
struct ChipCounters
{
    std::uint64_t macOps = 0;
    std::uint64_t activations = 0;
    std::uint64_t setBoostConfigInstrs = 0;
    /** Dynamic energy spent in the PEs. */
    Joule peEnergy{0.0};

    void reset() { *this = ChipCounters{}; }
};

/**
 * Behavioural + energy model of the Dante chip. Owns the two boosted
 * banked memories and a PE-array energy account; runs inference
 * end-to-end through the faulty SRAM read path.
 */
class DanteChip
{
  public:
    DanteChip(DanteConfig cfg, circuit::TechnologyParams tech,
              sram::FailureRateParams failure);

    /** The 128 KB weight memory. */
    sram::BankedMemory &weightMemory() { return weightMem_; }
    const sram::BankedMemory &weightMemory() const { return weightMem_; }

    /** The 16 KB input memory. */
    sram::BankedMemory &inputMemory() { return inputMem_; }
    const sram::BankedMemory &inputMemory() const { return inputMem_; }

    /**
     * set_boost_config: program one weight-memory bank's configuration
     * bits. Counts one instruction (paper Sec. 3.2.1).
     */
    void setBoostConfig(int bank, std::uint32_t bits);

    /** set_boost_config applied to every weight-memory bank. */
    void setWeightBoostLevel(int level);

    /** set_boost_config applied to every input-memory bank. */
    void setInputBoostLevel(int level);

    /**
     * Run one batch of inference through the chip: works for any
     * layer stack (Dense, Conv2d, MaxPool2d, Relu, Flatten). Every
     * weight tensor is quantized to int16 and staged tile-by-tile
     * through the faulty weight memory at its layer's boost level
     * (paper Sec. 4: accesses within a layer are boosted uniformly);
     * the input batch and the activations between trainable layers
     * round-trip the input memory; stateless layers and biases stay
     * in the PEs.
     *
     * @param net trained float network (read-only).
     * @param scratch structurally identical network that receives the
     *        corrupted weights (e.g. net.clone()).
     * @param x input batch (shape per the network's first layer).
     * @param vdd chip supply voltage.
     * @param weight_levels boost level per *weight layer* (Dense or
     *        Conv2d), in layer order.
     * @param input_boost_level boost level for the input memory.
     * @param map vulnerability map.
     * @param rng per-read flip randomness.
     * @return logits computed with corrupted operands.
     */
    dnn::Tensor runInference(dnn::Network &net, dnn::Network &scratch,
                             const dnn::Tensor &x, Volt vdd,
                             const std::vector<int> &weight_levels,
                             int input_boost_level,
                             const sram::VulnerabilityMap &map, Rng &rng);

    /** Execution counters (PE side). */
    const ChipCounters &counters() const { return counters_; }

    /** Reset chip + memory counters. */
    void resetCounters();

    /** Total dynamic energy so far: memories + boosters + PEs. */
    Joule dynamicEnergy() const;

    /** Total chip leakage power at supply v (memories idle at v,
     *  boosters, PE/control logic). */
    Watt leakagePower(Volt vdd) const;

    /** Total booster + BIC silicon area on the chip. */
    Area boosterArea() const;

    const DanteConfig &config() const { return cfg_; }

  private:
    DanteConfig cfg_;
    circuit::TechnologyParams tech_;
    circuit::EnergyModel energy_;
    sram::FailureRateModel failureModel_;
    sram::BankedMemory weightMem_;
    sram::BankedMemory inputMem_;
    ChipCounters counters_;
};

} // namespace vboost::accel

#endif // VBOOST_ACCEL_DANTE_HPP
