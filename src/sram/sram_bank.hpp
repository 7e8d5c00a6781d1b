/**
 * @file
 * One boost-enabled SRAM bank: 64 Kbit (two 4 KB macros) with its own
 * booster-cell column, Boost Input Control block and configuration
 * register (paper Sec. 4: "The MIM capacitor-based programmable boost
 * circuit ... boosts each SRAM bank of size 64Kbit (2 macros) to a
 * different supply voltage using its corresponding configuration
 * bits"). Every read/write at chip supply Vdd is performed with the
 * array rail boosted to Vddv(level); the failure probability applied on
 * the read path is F(Vddv).
 */

#ifndef VBOOST_SRAM_SRAM_BANK_HPP
#define VBOOST_SRAM_SRAM_BANK_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/bic.hpp"
#include "circuit/booster.hpp"
#include "circuit/energy_model.hpp"
#include "sram/failure_model.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::sram {

/** Access/energy/error accounting for one bank. */
struct BankCounters
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t boostEvents = 0;
    Joule accessEnergy{0.0};
    Joule boostEnergy{0.0};

    void reset() { *this = BankCounters{}; }
};

/** A 64 Kbit boost-enabled SRAM bank. */
class SramBank
{
  public:
    /** Macros per bank. */
    static constexpr int kMacros = 2;
    /** Words per macro (512 x 64 bit = 4 KB). */
    static constexpr std::uint32_t kMacroWords = 512;
    /** Bits per word. */
    static constexpr std::uint32_t kWordBits = 64;
    /** 64-bit words per bank; words [512m, 512m + 512) are macro m's. */
    static constexpr std::uint32_t kWords = kMacros * kMacroWords;
    /** Bitcells per bank. */
    static constexpr std::uint64_t kBits =
        static_cast<std::uint64_t>(kWords) * kWordBits;

    /**
     * @param bank_id position of the bank in its memory (determines the
     *        global cell range of its macros).
     * @param design booster column design (one column per bank).
     * @param tech technology constants.
     * @param failure failure-rate calibration.
     * @param num_banks_in_memory total banks sharing the output mux
     *        (sets the per-access mux energy).
     */
    SramBank(int bank_id, const circuit::BoosterDesign &design,
             const circuit::TechnologyParams &tech,
             const FailureRateModel &failure, int num_banks_in_memory);

    /** Program the boost configuration bits (set_boost_config). */
    void setBoostConfig(std::uint32_t bits);

    /** Program a boost level directly (enable the first `level` cells). */
    void setBoostLevel(int level);

    /** Currently enabled boost level. */
    int boostLevel() const { return bic_.enabledLevel(); }

    /** Number of programmable boost levels. */
    int levels() const { return booster_.levels(); }

    /** Boosted array voltage for an access at chip supply vdd. */
    Volt effectiveVoltage(Volt vdd) const;

    /** Bit failure probability for an access at chip supply vdd. */
    double failProbAt(Volt vdd) const;

    /**
     * Write a 64-bit word. Consumes access energy at the boosted
     * voltage and a boost event if boosting is enabled. Writes are
     * modeled as reliable; low-voltage failures manifest on the read
     * path (paper Sec. 5.1).
     */
    void write(std::uint32_t addr, std::uint64_t data, Volt vdd);

    /** Read a word through the faulty read path at chip supply vdd:
     *  each bit whose cell is faulty at the access's fail probability
     *  flips with flipProb() (flipMasked() over the word's mask). */
    std::uint64_t read(std::uint32_t addr, Volt vdd,
                       const VulnerabilityMap &map, Rng &rng);

    /** A read whose faults the caller manifests with flipMasked(). */
    struct RawRead
    {
        /** The stored word. */
        std::uint64_t data = 0;
        /** Faulty cells of the word (and of its check cells). */
        WordMask mask;
        /** Per-read flip probability of a faulty cell. */
        double flipProb = 0.0;
    };

    /**
     * Charge one read access at chip supply vdd and the current boost
     * level, exactly as read() does, and return the stored word with
     * the fault mask of its cells at that level's fail probability.
     * Word a's check cells are check_base + 8a (kNoCheckCells: none).
     * The masks come from accessPoint().
     */
    RawRead readRaw(std::uint32_t addr, Volt vdd,
                    const VulnerabilityMap &map,
                    std::uint64_t check_base =
                        WordFaultMasks::kNoCheckCells);

    /** What an access at (vdd, level) costs and risks, and which cells
     *  fail there: computed once per pair, the masks once per map. */
    struct OperatingPoint
    {
        double vdd = 0.0;
        int level = 0;
        /** Boosted array voltage Vddv(vdd, level). */
        Volt vddv{0.0};
        Joule accessEnergy{0.0};
        Joule boostEnergy{0.0};
        /** F(vddv). */
        double failProb = 0.0;
        /** The masks of all words at failProb for the map and check
         *  base the bank's tables are packed for; null until the
         *  point's first faulty access. Immutable, so a copy of the
         *  point keeps reading them after the memo drops them. */
        std::shared_ptr<const WordFaultMasks> masks;
    };

    /**
     * The memo entry of an access at chip supply vdd and boost level
     * `level`: costs, Vddv and failProb; masks only if an access
     * already packed them. Valid until the bank's next call.
     */
    const OperatingPoint &
    operatingPoint(Volt vdd, int level)
    {
        return memoEntry(vdd, level);
    }

    /**
     * The memo entry of an access at chip supply vdd and the current
     * boost level, with its masks packed for `map` and word a's check
     * cells at check_base + 8a if failProb > 0. The bank keeps one map
     * and check base at a time: a call with another drops every
     * point's masks first. Valid until the bank's next call.
     */
    const OperatingPoint &accessPoint(Volt vdd, const VulnerabilityMap &map,
                                      std::uint64_t check_base);

    /**
     * For each i < n in order, write(addr + i, data[i], vdd) followed
     * by readRaw(addr + i, vdd, ...) of a word without faulty cells,
     * every access charged at p (which must be current: same vdd, the
     * bank still at p.level). The counters end with the same values
     * and the Joule sums with the same bits, without the per-access
     * lookups: each sum's 2n adds of one value take repeatedAdd()'s
     * closed form.
     */
    void stageClean(std::uint32_t addr, const std::uint64_t *data,
                    std::uint32_t n, const OperatingPoint &p);

    /**
     * write(addr, data, vdd) followed by readRaw(addr, vdd, ...), both
     * charged at p, which must be current as for stageClean() and
     * carry the masks readRaw() would take (p is a copy of the
     * accessPoint() entry of the same vdd, map and check base): the
     * same charges in the same order, the mask from p.masks.
     */
    RawRead writeReadRaw(std::uint32_t addr, std::uint64_t data,
                         const OperatingPoint &p);

    /** Times the bank has packed a mask table (diagnostics and
     *  tests). */
    std::uint64_t maskPacks() const { return maskPacks_; }

    /** Fault-free debug read (no energy, no faults). */
    std::uint64_t peek(std::uint32_t addr) const;

    /** Leakage power of this bank (macros idle at vdd + booster). */
    Watt leakagePower(Volt vdd) const;

    /** Booster column + BIC silicon area for this bank. */
    Area boosterArea() const { return booster_.area(); }

    /** Access/energy counters. */
    const BankCounters &counters() const { return counters_; }

    /** Reset counters. */
    void resetCounters() { counters_.reset(); }

    /** Global cell index of bit 0 of word `addr`: the bank's cells
     *  start at bank_id * kBits, kWordBits per word. */
    std::uint64_t cellIndex(std::uint32_t addr) const;

    /** Per-read flip probability used on faulty cells. */
    double flipProb() const { return flipProb_; }

    /** Override the faulty-cell read flip probability (default 0.5). */
    void setFlipProb(double p);

  private:
    /** Memo bound: a serving chip sees a handful of (vdd, level)
     *  pairs; a sweep past it starts the memo over. */
    static constexpr std::size_t kMaxOperatingPoints = 64;

    /** Fatal unless addr < kWords. */
    static void checkAddr(std::uint32_t addr);
    /** Charge one access at memo entry p (p.level is the current
     *  level): write() and readRaw() go through here; stageClean()
     *  adds the same values for a span of accesses. */
    void chargeAccess(const OperatingPoint &p);
    /** The read half of readRaw() at point p, addr already checked. */
    RawRead readAt(std::uint32_t addr, const OperatingPoint &p);
    OperatingPoint &memoEntry(Volt vdd, int level);

    int bankId_;
    circuit::BoosterBank booster_;
    circuit::BoostInputControl bic_;
    circuit::EnergyModel energy_;
    FailureRateModel failure_;
    int numBanksInMemory_;
    double flipProb_ = 0.5;
    std::vector<std::uint64_t> words_;
    BankCounters counters_;
    std::vector<OperatingPoint> points_;
    /** Map and check base of every point's masks. */
    MapKey masksMap_;
    std::uint64_t masksCheckBase_ = WordFaultMasks::kNoCheckCells;
    std::uint64_t maskPacks_ = 0;
};

} // namespace vboost::sram

#endif // VBOOST_SRAM_SRAM_BANK_HPP
