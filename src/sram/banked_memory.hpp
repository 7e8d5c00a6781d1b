/**
 * @file
 * A banked on-chip memory assembled from boost-enabled 64 Kbit banks,
 * with flat word addressing, per-bank boost configuration (the spatial
 * programmability of paper Sec. 3.2.1) and aggregate energy/leakage
 * accounting. Dante's 128 KB weight memory is a 16-bank instance and
 * its 16 KB input memory a 2-bank instance (Table 1).
 */

#ifndef VBOOST_SRAM_BANKED_MEMORY_HPP
#define VBOOST_SRAM_BANKED_MEMORY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sram/sram_bank.hpp"

namespace vboost::sram {

/** Flat-addressed banked memory of boost-enabled SRAM banks. */
class BankedMemory
{
  public:
    /**
     * @param name identifier used in diagnostics ("weight_mem").
     * @param num_banks number of 64 Kbit banks (>= 1).
     * @param design per-bank booster design.
     * @param tech technology constants.
     * @param failure failure-rate calibration.
     * @param cell_base_offset first global cell index of this memory
     *        (keeps independent memories in disjoint cell ranges of
     *        the vulnerability map).
     */
    BankedMemory(std::string name, int num_banks,
                 const circuit::BoosterDesign &design,
                 const circuit::TechnologyParams &tech,
                 const FailureRateModel &failure,
                 std::uint64_t cell_base_offset = 0);

    /** Total 64-bit words. */
    std::uint32_t words() const;

    /** Total capacity in bytes. */
    std::uint64_t bytes() const { return words() * 8ull; }

    /** Number of banks. */
    int banks() const { return static_cast<int>(banks_.size()); }

    /** Bank holding flat word address `addr`. */
    int bankOf(std::uint32_t addr) const;

    /** Program one bank's boost configuration bits. */
    void setBoostConfig(int bank, std::uint32_t bits);

    /** Program one bank's boost level. */
    void setBoostLevel(int bank, int level);

    /** Program every bank to the same boost level. */
    void setAllBoostLevels(int level);

    /** Boost level of a bank. */
    int boostLevel(int bank) const;

    /** Write a 64-bit word at flat address `addr`. */
    void write(std::uint32_t addr, std::uint64_t data, Volt vdd);

    /** Read a word through the faulty read path. */
    std::uint64_t read(std::uint32_t addr, Volt vdd,
                       const VulnerabilityMap &map, Rng &rng);

    /**
     * SramBank::readRaw at flat address `addr`: charges the access and
     * returns the stored word with its fault mask. Word a's check
     * cells are check_region + 8a.
     */
    SramBank::RawRead readRaw(std::uint32_t addr, Volt vdd,
                              const VulnerabilityMap &map,
                              std::uint64_t check_region);

    /**
     * SramBank::accessPoint of bank `bank`, its check cells addressed
     * as readRaw() addresses them (word a's at check_region + 8a).
     */
    const SramBank::OperatingPoint &
    accessPoint(int bank, Volt vdd, const VulnerabilityMap &map,
                std::uint64_t check_region);

    /** Fault-free debug read. */
    std::uint64_t peek(std::uint32_t addr) const;

    /**
     * Write a contiguous buffer of 16-bit values starting at 16-bit
     * element offset `elem16` (4 elements per 64-bit word).
     */
    void writeWords16(std::uint32_t elem16,
                      const std::vector<std::int16_t> &values, Volt vdd);

    /** Read `count` 16-bit values from element offset `elem16`. */
    std::vector<std::int16_t> readWords16(std::uint32_t elem16,
                                          std::uint32_t count, Volt vdd,
                                          const VulnerabilityMap &map,
                                          Rng &rng);

    /** Total leakage power (all banks idle at vdd + boosters). */
    Watt leakagePower(Volt vdd) const;

    /** Total booster + BIC area added to this memory. */
    Area boosterArea() const;

    /** Per-bank access/energy counters. */
    const BankCounters &bankCounters(int bank) const;

    /** Aggregated counters across all banks. */
    BankCounters totalCounters() const;

    /** Reset all counters. */
    void resetCounters();

    /** Set the faulty-read flip probability on every bank. */
    void setFlipProb(double p);

    /** Mutable access to a bank (tests, advanced callers). */
    SramBank &bank(int i);
    const SramBank &bank(int i) const;

    /** Name of this memory. */
    const std::string &name() const { return name_; }

    /** First global cell index of this memory. */
    std::uint64_t cellBase() const { return cellBase_; }

    /** Global cell index of flat word address `addr`, bit 0. */
    std::uint64_t cellIndex(std::uint32_t addr) const;

  private:
    /** Check cell base of bank b's word 0 within check_region. */
    static std::uint64_t
    bankCheckBase(int b, std::uint64_t check_region)
    {
        return check_region +
               static_cast<std::uint64_t>(b) * SramBank::kWords * 8;
    }

    std::string name_;
    std::uint64_t cellBase_;
    std::vector<SramBank> banks_;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_BANKED_MEMORY_HPP
