#include "resilience/resilient_memory.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "sram/packed_fault_map.hpp"
#include "sram/word_fault_masks.hpp"

namespace vboost::resilience {

namespace {

/**
 * Cell-space layout: data cells occupy each memory's own region
 * starting at its cellBase(); the regions below are disjoint from all
 * data regions (which end far below 2^38) and from the canary region
 * at 2^40 (core/canary.cpp). Offsetting by cellBase() keeps multiple
 * wrapped memories disjoint from each other too.
 */
constexpr std::uint64_t kParityRegionBase = 1ull << 38;
constexpr std::uint64_t kSpareRegionBase = 1ull << 39;

/** Codeword bits one spare row occupies (64 data + 8 check). */
constexpr std::uint64_t kSpareRowBits = 72;

/** First word in [from, to) with a faulty cell at point p, or `to`. */
std::uint32_t
firstFlagged(const sram::SramBank::OperatingPoint &p, std::uint32_t from,
             std::uint32_t to)
{
    if (!p.masks)
        return to;
    const std::vector<std::uint64_t> &flagged = p.masks->flagged();
    for (std::uint32_t w = from; w < to; w = (w / 64 + 1) * 64) {
        const std::uint64_t bits = flagged[w / 64] >> (w % 64);
        if (bits != 0)
            return std::min(
                to, w + static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
    return to;
}

} // namespace

void
ResilienceStats::merge(const ResilienceStats &other)
{
    reads += other.reads;
    cleanReads += other.cleanReads;
    correctedReads += other.correctedReads;
    retriedReads += other.retriedReads;
    retries += other.retries;
    escalations += other.escalations;
    standingRaises += other.standingRaises;
    quarantines += other.quarantines;
    spareReads += other.spareReads;
    spareExhausted += other.spareExhausted;
    uncorrected += other.uncorrected;
    retryEnergy += other.retryEnergy;
    spareEnergy += other.spareEnergy;
    retryLatency += other.retryLatency;
    // Order-sensitive chain: merging in map order yields a digest that
    // is a pure function of the per-map tables.
    spareTableDigest =
        (spareTableDigest * 0x100000001b3ull) ^ other.spareTableDigest;
}

ResilientMemory::ResilientMemory(sram::BankedMemory &mem,
                                 const core::SimContext &ctx,
                                 ResiliencePolicy policy)
    : mem_(mem), policy_(policy), latency_(ctx.tech),
      canary_(ctx, mem.banks()),
      maxLevel_(mem.bank(0).levels()), check_(mem.words(), 0),
      standing_(static_cast<std::size_t>(mem.banks()), policy.startLevel),
      parityBase_(kParityRegionBase + mem.cellBase()),
      spareBase_(kSpareRegionBase + mem.cellBase()),
      monitor_(mem.banks(), policy.ewmaAlpha, policy.raiseThreshold),
      spares_(policy.spareRows), base_(0)
{
    policy_.validate(maxLevel_);
    mem_.setAllBoostLevels(policy_.startLevel);
    // The side store mirrors the array from the start, so every
    // stored codeword is intact until a read manifests faults.
    for (std::uint32_t a = 0; a < mem_.words(); ++a)
        check_[a] = sram::SecdedCodec::encode(mem_.peek(a));
}

void
ResilientMemory::reseed(const Rng &base)
{
    base_ = base;
    accessCounter_ = 0;
}

void
ResilientMemory::writeWord(std::uint32_t addr, std::uint64_t data,
                           Volt vdd)
{
    writeEncoded(addr, data, sram::SecdedCodec::encode(data), vdd);
}

void
ResilientMemory::writeEncoded(std::uint32_t addr, std::uint64_t data,
                              std::uint8_t check, Volt vdd)
{
    mem_.write(addr, data, vdd);
    check_[addr] = check;
    // A quarantined row's spare image shadows the primary row; keep it
    // coherent (hardware rewrites both on a store to a spared address).
    const int slot = spares_.find(addr);
    if (slot >= 0) {
        spares_.row(slot).data = data;
        spares_.row(slot).check = check;
    }
}

sram::EccDecodeResult
ResilientMemory::attemptRead(std::uint32_t addr, int spare_slot, int level,
                             Volt vdd, const sram::VulnerabilityMap &map,
                             std::uint64_t stream)
{
    const int bank = mem_.bankOf(addr);
    std::uint64_t data = 0;
    std::uint8_t check = 0;
    sram::WordMask mask;
    double flip = 0.0;
    if (spare_slot < 0) {
        // Primary row: a real bank access (charges access + boost
        // energy in the bank counters at the attempt's level).
        if (mem_.boostLevel(bank) != level)
            mem_.setBoostLevel(bank, level);
        const sram::SramBank::RawRead r =
            mem_.readRaw(addr, vdd, map, parityBase_);
        data = r.data;
        check = check_[addr];
        mask = r.mask;
        flip = r.flipProb;
    } else {
        // Spare row: the bank's operating point at the attempt's
        // level, fresh cells in the spare region (64 data cells, then
        // 8 check cells). Its boost energy is zero at level 0.
        const sram::SramBank::OperatingPoint &p =
            mem_.bank(bank).operatingPoint(vdd, level);
        const SpareRow &row =
            spares_.row(spare_slot); // image is golden; faults manifest here
        data = row.data;
        check = row.check;
        flip = mem_.bank(bank).flipProb();
        if (p.failProb > 0.0) {
            const sram::PackedFaultMap cells(
                map,
                spareBase_ +
                    static_cast<std::uint64_t>(spare_slot) * kSpareRowBits,
                kSpareRowBits, p.failProb);
            mask.data = cells.words()[0];
            mask.check = static_cast<std::uint8_t>(cells.mask(64, 8));
        }
        stats_.spareEnergy += p.accessEnergy;
        stats_.spareEnergy += p.boostEnergy;
    }
    return decodeMasked(data, check, mask, flip, stream);
}

sram::EccDecodeResult
ResilientMemory::decodeMasked(std::uint64_t data, std::uint8_t check,
                              const sram::WordMask &mask, double flip,
                              std::uint64_t stream) const
{
    // A codeword without faulty cells reads back as stored, and the
    // stored check byte encodes the stored data, so it decodes clean:
    // no stream, no draw, no decode.
    if (mask.empty())
        return {data, sram::EccOutcome::Clean};
    Rng rng = base_.split(stream);
    sram::flipMasked(data, check, mask, flip, rng);
    return sram::SecdedCodec::decode(data, check);
}

ReadOutcome
ResilientMemory::readWord(std::uint32_t addr, Volt vdd,
                          const sram::VulnerabilityMap &map)
{
    return finishRead(addr, vdd, map, nullptr);
}

ReadOutcome
ResilientMemory::finishRead(std::uint32_t addr, Volt vdd,
                            const sram::VulnerabilityMap &map,
                            const sram::SramBank::RawRead *first)
{
    const int bank = mem_.bankOf(addr);
    const int slot = first ? -1 : spares_.find(addr);
    const std::uint64_t access = accessCounter_++;
    ++stats_.reads;
    if (slot >= 0)
        ++stats_.spareReads;

    const int budget =
        policy_.mode == AccessPolicyMode::ClosedLoop ? policy_.retryBudget
                                                     : 0;
    sram::EccDecodeResult dec;
    ReadOutcome out;
    bool first_error = false;
    int attempt = 0;
    for (;; ++attempt) {
        const int level =
            policy_.attemptLevel(standing_[static_cast<std::size_t>(bank)],
                                 attempt, maxLevel_);
        // Per-access counter-based stream: independent of thread
        // scheduling and of how much randomness other reads consumed.
        const std::uint64_t stream =
            access * ResiliencePolicy::kMaxAttempts +
            static_cast<std::uint64_t>(attempt);
        dec = attempt == 0 && first
                  ? decodeMasked(first->data, check_[addr], first->mask,
                                 first->flipProb, stream)
                  : attemptRead(addr, slot, level, vdd, map, stream);
        out.level = level;
        if (attempt == 0) {
            first_error = dec.outcome != sram::EccOutcome::Clean;
        } else {
            ++stats_.retries;
            if (level > standing_[static_cast<std::size_t>(bank)])
                ++stats_.escalations;
            // Retry accounting accumulates in attempt order, which is
            // fixed per access by the counter-derived RNG streams (§7).
            const sram::SramBank::OperatingPoint &p =
                mem_.bank(bank).operatingPoint(vdd, level);
            stats_.retryEnergy += p.accessEnergy;
            stats_.retryEnergy += p.boostEnergy;
            stats_.retryLatency += latency_.accessTime(p.vddv, vdd);
        }
        if (dec.outcome != sram::EccOutcome::DetectedUncorrectable ||
            attempt >= budget)
            break;
    }
    // Escalated attempts may have overridden the BIC; restore.
    if (mem_.boostLevel(bank) != standing_[static_cast<std::size_t>(bank)])
        mem_.setBoostLevel(bank, standing_[static_cast<std::size_t>(bank)]);

    out.data = dec.data;
    out.outcome = dec.outcome;
    out.attempts = attempt + 1;
    out.fromSpare = slot >= 0;
    if (attempt > 0)
        ++stats_.retriedReads;
    switch (dec.outcome) {
      case sram::EccOutcome::Clean:
        ++stats_.cleanReads;
        break;
      case sram::EccOutcome::Corrected:
        ++stats_.correctedReads;
        break;
      case sram::EccOutcome::DetectedUncorrectable:
        out.gaveUp = true;
        ++stats_.uncorrected;
        break;
    }

    if (policy_.mode == AccessPolicyMode::ClosedLoop) {
        // The monitor sees raw first-attempt health: retry success must
        // not mask a degrading bank.
        if (monitor_.recordAccess(bank, first_error))
            raiseStandingLevel(bank, vdd, map);
        if (out.gaveUp)
            recordRowError(addr, slot);
    }
    return out;
}

void
ResilientMemory::stageGroups(std::uint64_t cursor,
                             const std::uint64_t *groups,
                             const std::uint8_t *checks, std::size_t n,
                             Volt vdd, const sram::VulnerabilityMap &map,
                             std::vector<SlowRead> &slow)
{
    slow.clear();
    constexpr std::uint32_t kBankWords = sram::SramBank::kWords;
    const std::uint32_t words = mem_.words();
    const bool closed = policy_.mode == AccessPolicyMode::ClosedLoop;
    // Hoisted operating point of the bank the walk is in, valid while
    // the bank's BIC and standing levels are the ones it was looked up
    // at: a copy, whose shared masks a memo clear leaves readable, and
    // the call's vdd and map are fixed.
    int run_bank = -1;
    int run_bic = -1;
    int run_standing = -1;
    sram::SramBank::OperatingPoint run;
    auto addr = static_cast<std::uint32_t>(cursor % words);
    std::size_t k = 0;
    while (k < n) {
        const int bank = static_cast<int>(addr / kBankWords);
        const std::uint32_t local = addr % kBankWords;
        const int bic = mem_.boostLevel(bank);
        const int standing = standing_[static_cast<std::size_t>(bank)];
        // The write is charged at the BIC level and the first read
        // attempt at the standing level: one memo entry serves both
        // only while they agree.
        const bool hoisted = bic == standing;
        if (hoisted &&
            (bank != run_bank || bic != run_bic || standing != run_standing)) {
            run_bank = bank;
            run_bic = bic;
            run_standing = standing;
            run = mem_.accessPoint(bank, vdd, map, parityBase_);
        }
        // The clean span from addr: words with a clear bitmap bit and
        // no spare, up to the bank end (the memory wraps at one too)
        // or the last codeword.
        std::uint32_t span = 0;
        if (hoisted) {
            const auto limit = static_cast<std::uint32_t>(
                std::min<std::size_t>(n - k, kBankWords - local));
            span = firstFlagged(run, local, local + limit) - local;
            for (int slot = 0; slot < spares_.used(); ++slot) {
                const std::uint32_t spared = spares_.row(slot).addr;
                if (spared >= addr && spared - addr < span)
                    span = spared - addr;
            }
        }
        if (span == 0) {
            if (hoisted && spares_.find(addr) < 0) {
                // A faulty codeword at the standing level: its write
                // and its first read attempt are charged at the
                // hoisted point, whose table holds the read's mask.
                const sram::SramBank::RawRead raw =
                    mem_.bank(bank).writeReadRaw(local, groups[k], run);
                check_[addr] = checks[k];
                slow.push_back({k, finishRead(addr, vdd, map, &raw).data});
            } else {
                writeEncoded(addr, groups[k], checks[k], vdd);
                slow.push_back({k, readWord(addr, vdd, map).data});
            }
            ++k;
            addr = addr + 1 < words ? addr + 1 : 0;
            continue;
        }
        // What writeEncoded + readWord do for each clean codeword: a
        // single attempt at the standing level decodes clean, with no
        // stream split and no draw, and reads back the staged group.
        mem_.bank(bank).stageClean(local, groups + k, span, run);
        std::copy(checks + k, checks + k + span, check_.begin() + addr);
        accessCounter_ += span;
        stats_.reads += span;
        stats_.cleanReads += span;
        if (closed)
            monitor_.recordCleanAccesses(bank, span);
        k += span;
        addr = addr + span < words ? addr + span : 0;
    }
}

void
ResilientMemory::raiseStandingLevel(int bank, Volt vdd,
                                    const sram::VulnerabilityMap &map)
{
    const int standing = standing_[static_cast<std::size_t>(bank)];
    if (standing >= maxLevel_)
        return; // already at the top: report-and-continue
    // Re-decide through the canary controller (the margin-calibrated
    // floor), but always move at least one level up.
    int target = standing + 1;
    if (const auto canary = canary_.chooseLevel(vdd, map))
        target = std::max(target, *canary);
    target = std::min(target, maxLevel_);
    standing_[static_cast<std::size_t>(bank)] = target;
    mem_.setBoostLevel(bank, target);
    ++stats_.standingRaises;
    warnRateLimited("resilience: ", mem_.name(), " bank ", bank,
                    " standing boost level ", standing, " -> ", target,
                    " (EWMA error rate over ", policy_.raiseThreshold, ")");
}

void
ResilientMemory::recordRowError(std::uint32_t addr, int spare_slot)
{
    if (spare_slot >= 0)
        return; // already on a spare; no spare-of-spare chaining
    if (policy_.spareRows == 0)
        return;
    int &n = rowErrors_[addr];
    if (++n < policy_.quarantineThreshold)
        return;
    if (spares_.full()) {
        ++stats_.spareExhausted;
        return;
    }
    // Writes are reliable in this model, so the stored image is golden;
    // hardware would restage the row from the ECC-scrubbed source.
    spares_.remap(addr, mem_.peek(addr), check_[addr]);
    rowErrors_.erase(addr);
    ++stats_.quarantines;
    warnRateLimited("resilience: ", mem_.name(), " quarantined row ", addr,
                    " into spare ", spares_.used() - 1, " (",
                    spares_.capacity() - spares_.used(),
                    " spares left)");
}

void
ResilientMemory::writeWords16(std::uint32_t elem16,
                              const std::vector<std::int16_t> &values,
                              Volt vdd)
{
    std::uint32_t i = 0;
    while (i < values.size()) {
        const std::uint32_t addr = (elem16 + i) / 4;
        std::uint64_t word = mem_.peek(addr);
        while (i < values.size() && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            const std::uint64_t mask = 0xffffull << (16 * lane);
            const auto v = static_cast<std::uint64_t>(
                static_cast<std::uint16_t>(values[i]));
            word = (word & ~mask) | (v << (16 * lane));
            ++i;
        }
        writeWord(addr, word, vdd);
    }
}

std::vector<std::int16_t>
ResilientMemory::readWords16(std::uint32_t elem16, std::uint32_t count,
                             Volt vdd, const sram::VulnerabilityMap &map)
{
    std::vector<std::int16_t> out;
    out.reserve(count);
    std::uint32_t i = 0;
    while (i < count) {
        const std::uint32_t addr = (elem16 + i) / 4;
        const std::uint64_t word = readWord(addr, vdd, map).data;
        while (i < count && (elem16 + i) / 4 == addr) {
            const std::uint32_t lane = (elem16 + i) % 4;
            out.push_back(static_cast<std::int16_t>(
                static_cast<std::uint16_t>(word >> (16 * lane))));
            ++i;
        }
    }
    return out;
}

int
ResilientMemory::standingLevel(int bank) const
{
    if (bank < 0 || bank >= mem_.banks())
        fatal("ResilientMemory: bank ", bank, " out of range");
    return standing_[static_cast<std::size_t>(bank)];
}

ResilienceStats
ResilientMemory::snapshot() const
{
    ResilienceStats s = stats_;
    s.spareTableDigest = spares_.digest();
    return s;
}

void
ResilientMemory::resetRuntimeState()
{
    stats_ = ResilienceStats{};
    monitor_.reset();
    spares_ = SpareRowTable(policy_.spareRows);
    rowErrors_.clear();
    std::fill(standing_.begin(), standing_.end(), policy_.startLevel);
    mem_.setAllBoostLevels(policy_.startLevel);
    accessCounter_ = 0;
}

void
ResilientMemory::resetRuntimeState(int start_level)
{
    ResiliencePolicy policy = policy_;
    policy.startLevel = start_level;
    policy.validate(maxLevel_);
    policy_ = policy;
    resetRuntimeState();
}

Joule
ResilientMemory::totalAccessEnergy() const
{
    const auto c = mem_.totalCounters();
    return c.accessEnergy + c.boostEnergy + stats_.spareEnergy;
}

void
ResilientMemory::exportMetrics(obs::MetricsRegistry &reg,
                               const obs::Labels &labels) const
{
    const ResilienceStats s = snapshot();
    reg.counter("resil.reads", labels).add(s.reads);
    reg.counter("resil.reads.clean", labels).add(s.cleanReads);
    reg.counter("resil.reads.corrected", labels).add(s.correctedReads);
    reg.counter("resil.reads.retried", labels).add(s.retriedReads);
    reg.counter("resil.retry.count", labels).add(s.retries);
    reg.counter("resil.escalation.count", labels).add(s.escalations);
    reg.counter("resil.standing_raise.count", labels).add(s.standingRaises);
    reg.counter("resil.quarantine.count", labels).add(s.quarantines);
    reg.counter("resil.spare.reads", labels).add(s.spareReads);
    reg.counter("resil.spare.exhausted", labels).add(s.spareExhausted);
    reg.counter("resil.uncorrected.count", labels).add(s.uncorrected);
    reg.sum("resil.retry.energy_j", labels).add(s.retryEnergy.value());
    reg.sum("resil.spare.energy_j", labels).add(s.spareEnergy.value());
    reg.sum("resil.retry.latency_s", labels).add(s.retryLatency.value());

    // Per-bank attribution: where the boost (and thus resilience)
    // energy actually went, plus the standing level each bank settled
    // at. Femtojoule floor to microjoule ceiling covers a single boost
    // event up to a heavily escalated bank.
    obs::Histogram boost_hist = reg.histogram(
        "resil.bank.boost_energy_j", obs::exponentialBounds(1e-15, 10.0, 10),
        labels);
    for (int b = 0; b < mem_.banks(); ++b) {
        const sram::BankCounters &c = mem_.bankCounters(b);
        boost_hist.observe(c.boostEnergy.value());
        obs::Labels bank_labels = labels;
        bank_labels["bank"] = std::to_string(b);
        reg.gauge("resil.bank.standing_level", bank_labels)
            .set(static_cast<double>(standingLevel(b)));
        reg.counter("resil.bank.boost_events", bank_labels)
            .add(c.boostEvents);
    }
}

} // namespace vboost::resilience
