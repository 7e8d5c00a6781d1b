/**
 * @file
 * Closed-loop resilient SRAM access pipeline (DESIGN.md §8): a wrapper
 * that turns a boost-enabled BankedMemory into a self-protecting store.
 * Every 64-bit word is written with Hamming(72,64) SECDED check bits
 * (stored in their own, equally faulty, cell region); every read runs
 * through ECC decode and is classified clean / corrected /
 * detected-uncorrectable. Under the closed-loop policy a detection
 * triggers a bounded retry loop with per-attempt boost escalation —
 * each retry is a real bank access that pays access + boost energy and
 * an access-time latency penalty — while a per-bank EWMA error monitor
 * raises standing boost levels (re-deciding through the canary
 * controller) and persistent offender rows are quarantined into a
 * small spare-row remap table. When spares run out the pipeline
 * degrades gracefully to report-and-continue.
 *
 * Determinism: the flip randomness of access k, attempt a is drawn
 * from `base.split(k * kMaxAttempts + a)` — a pure function of the
 * per-map base stream and per-access counters, never of thread
 * scheduling (the same discipline as the Monte-Carlo engine, §7).
 */

#ifndef VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP
#define VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/latency.hpp"
#include "core/canary.hpp"
#include "core/context.hpp"
#include "obs/metrics.hpp"
#include "resilience/monitor.hpp"
#include "resilience/policy.hpp"
#include "resilience/spare_table.hpp"
#include "sram/banked_memory.hpp"
#include "sram/ecc.hpp"

namespace vboost::resilience {

/** Counters of everything the resilience pipeline did and cost. */
struct ResilienceStats
{
    std::uint64_t reads = 0;
    std::uint64_t cleanReads = 0;
    std::uint64_t correctedReads = 0;
    /** Reads that needed at least one retry. */
    std::uint64_t retriedReads = 0;
    /** Total extra read attempts issued. */
    std::uint64_t retries = 0;
    /** Retries issued at a level above the bank's standing level. */
    std::uint64_t escalations = 0;
    /** Standing boost-level raises applied by the monitor. */
    std::uint64_t standingRaises = 0;
    /** Rows quarantined into spares. */
    std::uint64_t quarantines = 0;
    /** Reads served from a spare row. */
    std::uint64_t spareReads = 0;
    /** Quarantine requests dropped because spares ran out. */
    std::uint64_t spareExhausted = 0;
    /** Reads that exhausted the retry budget and returned detected-
     *  uncorrectable data (graceful degradation). */
    std::uint64_t uncorrected = 0;

    /** Energy of the retry attempts (also charged in the bank
     *  counters; tracked here to attribute the cost of resilience). */
    Joule retryEnergy{0.0};
    /** Energy of spare-row accesses (NOT in the bank counters). */
    Joule spareEnergy{0.0};
    /** Access-time latency added by retry attempts. */
    Second retryLatency{0.0};

    /** Digest of the spare-row table (see SpareRowTable::digest). */
    std::uint64_t spareTableDigest = 0;

    /** Combine another accumulator (map-order Monte-Carlo reduction;
     *  digests chain order-sensitively). */
    void merge(const ResilienceStats &other);
};

/** What one resilient read observed and returned. */
struct ReadOutcome
{
    /** Data handed to the consumer (corrected when possible). */
    std::uint64_t data = 0;
    /** Final ECC classification after retries. */
    sram::EccOutcome outcome = sram::EccOutcome::Clean;
    /** Attempts made (1 = first try sufficed). */
    int attempts = 1;
    /** Boost level of the final attempt. */
    int level = 0;
    /** Whether the read was served from a spare row. */
    bool fromSpare = false;
    /** Retry budget exhausted; `data` is the uncorrected word. */
    bool gaveUp = false;
};

/** A codeword ResilientMemory::stageGroups sent through the per-word
 *  pipeline, and the data its read returned. */
struct SlowRead
{
    /** Position of the codeword in the call's run (k of groups[k]). */
    std::size_t index = 0;
    /** ReadOutcome::data of the codeword's readWord(). */
    std::uint64_t data = 0;
};

/** ECC-protected, self-escalating, row-sparing memory wrapper. */
class ResilientMemory
{
  public:
    /**
     * @param mem underlying banked memory (must outlive the wrapper;
     *        its current boost levels are overwritten with
     *        policy.startLevel). Retries and spare reads are charged
     *        at its banks' operating points.
     * @param ctx study configuration the memory was built from (tech
     *        for retry latency; the canary controller's setup).
     * @param policy reaction policy (validated against mem's levels).
     */
    ResilientMemory(sram::BankedMemory &mem, const core::SimContext &ctx,
                    ResiliencePolicy policy);

    /**
     * Rebase the per-access randomness on a fresh stream (one per
     * Monte-Carlo map) and reset the access counter.
     */
    void reseed(const Rng &base);

    /** Write a word: data to the array, check bits to the side store.
     *  A quarantined row's spare image is kept coherent. */
    void writeWord(std::uint32_t addr, std::uint64_t data, Volt vdd);

    /** writeWord with the check byte precomputed by the caller (a
     *  staging image encodes each word once); `check` must be
     *  sram::SecdedCodec::encode(data). */
    void writeEncoded(std::uint32_t addr, std::uint64_t data,
                      std::uint8_t check, Volt vdd);

    /** Read a word through the full resilient pipeline. */
    ReadOutcome readWord(std::uint32_t addr, Volt vdd,
                         const sram::VulnerabilityMap &map);

    /**
     * Stage a run of codewords and read them back: codeword k (data
     * groups[k], check byte checks[k], which must be
     * sram::SecdedCodec::encode(groups[k])) is written to address
     * (cursor + k) mod words() and read back through the pipeline.
     * Bitwise the same as writeEncoded() then readWord() per codeword,
     * in order: every counter, energy sum, EWMA, spare and flip stream.
     * The walk stages clean spans in bulk: runs of codewords in one
     * bank whose rows have no spare and whose cells are all fault-free
     * at the bank's standing level; such a codeword reads back exactly
     * as staged. Every other codeword goes through writeEncoded() +
     * readWord(), its write and first read attempt charged at the
     * walk's hoisted operating point when its row is unspared and its
     * bank at its standing level, and `slow` is overwritten with one
     * entry per such codeword, in ascending index order (DESIGN.md §8,
     * "Bulk staging pass").
     */
    void stageGroups(std::uint64_t cursor, const std::uint64_t *groups,
                     const std::uint8_t *checks, std::size_t n, Volt vdd,
                     const sram::VulnerabilityMap &map,
                     std::vector<SlowRead> &slow);

    /** Stage a buffer of int16 values (4 per word), as the accelerator
     *  writes a weight tile. Partial edge words read-modify-write. */
    void writeWords16(std::uint32_t elem16,
                      const std::vector<std::int16_t> &values, Volt vdd);

    /** Read `count` int16 values back through the resilient pipeline. */
    std::vector<std::int16_t> readWords16(std::uint32_t elem16,
                                          std::uint32_t count, Volt vdd,
                                          const sram::VulnerabilityMap &map);

    /** Standing boost level of a bank (raises move it up). */
    int standingLevel(int bank) const;

    /** Counter snapshot with the spare-table digest filled in. */
    ResilienceStats snapshot() const;

    /** Reset counters, monitors, spares and standing levels (fresh
     *  Monte-Carlo map over the same memory). The banks' operating
     *  points stay; a read under another map repacks their masks. */
    void resetRuntimeState();

    /** resetRuntimeState with a new standing start level (validated
     *  like the policy's): a serving slot reuses one wrapper across
     *  batches planned at different levels. The banks' operating
     *  points, masks included, are pure functions of (vdd, level) and
     *  the map, so they carry over. */
    void resetRuntimeState(int start_level);

    /** The wrapped memory (bank counters hold the access energy). */
    sram::BankedMemory &memory() { return mem_; }
    const sram::BankedMemory &memory() const { return mem_; }

    const ResiliencePolicy &policy() const { return policy_; }
    const SpareRowTable &spares() const { return spares_; }
    const BankErrorMonitor &monitor() const { return monitor_; }

    /** Total SRAM energy including resilience: bank access + boost
     *  energy plus spare-row access energy. */
    Joule totalAccessEnergy() const;

    /**
     * Publish the pipeline's current state into a metrics registry
     * (DESIGN.md §11): retry/escalation/quarantine counters, retry and
     * spare energy sums, per-bank standing-level gauges and a per-bank
     * boost-energy histogram. `labels` is merged into every metric so
     * callers can scope the export (e.g. {{"mem","weight"}}). Call on
     * a serial path; values come from the deterministic counters, so
     * the export is thread-count invariant (§7).
     */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const obs::Labels &labels = {}) const;

  private:
    /** One read attempt; primary rows go through the real bank read
     *  path, spare rows manifest faults on the spare cell region.
     *  Faulty codewords draw their flips from base_.split(stream). */
    sram::EccDecodeResult attemptRead(std::uint32_t addr, int spare_slot,
                                      int level, Volt vdd,
                                      const sram::VulnerabilityMap &map,
                                      std::uint64_t stream);

    /** Manifest a read's faults on a codeword: draw its flips from
     *  base_.split(stream) and decode it, or return it clean without a
     *  draw if the mask is empty. */
    sram::EccDecodeResult decodeMasked(std::uint64_t data,
                                       std::uint8_t check,
                                       const sram::WordMask &mask,
                                       double flip,
                                       std::uint64_t stream) const;

    /** readWord(); with `first`, attempt 0 is that primary-row read,
     *  already charged at the standing level of an unspared row. */
    ReadOutcome finishRead(std::uint32_t addr, Volt vdd,
                           const sram::VulnerabilityMap &map,
                           const sram::SramBank::RawRead *first);

    /** Raise a bank's standing level (canary-floored). */
    void raiseStandingLevel(int bank, Volt vdd,
                            const sram::VulnerabilityMap &map);

    /** Record a row error; quarantine past the threshold. */
    void recordRowError(std::uint32_t addr, int spare_slot);

    sram::BankedMemory &mem_;
    ResiliencePolicy policy_;
    circuit::LatencyModel latency_;
    core::CanaryController canary_;
    int maxLevel_;

    /** Check-bit side store, one byte per word: always the encoding
     *  of the stored word (writes go through writeEncoded). */
    std::vector<std::uint8_t> check_;
    /** Standing boost level per bank (mirrors mem_'s BIC state). */
    std::vector<int> standing_;
    /** First cell of the check-bit region in the global cell space. */
    std::uint64_t parityBase_;
    /** First cell of the spare-row region. */
    std::uint64_t spareBase_;

    BankErrorMonitor monitor_;
    SpareRowTable spares_;
    /** Uncorrectable-event count per offending row. Ordered map by
     *  design (VB002 hygiene): today only keyed lookups touch it, but
     *  any future iteration (debug dumps, digests) must not inherit
     *  hash-table order. The table is tiny (offender rows only), so
     *  the tree overhead is noise. */
    std::map<std::uint32_t, int> rowErrors_;

    Rng base_;
    std::uint64_t accessCounter_ = 0;
    ResilienceStats stats_;
};

} // namespace vboost::resilience

#endif // VBOOST_RESILIENCE_RESILIENT_MEMORY_HPP
