/**
 * @file
 * Timing-speculative datapath (DESIGN.md §13): executes ops on a
 * Razor-protected PE pipeline at an underscaled logic voltage.
 * Violations are *detected* (shadow-latch detection is assumed
 * sound), replayed at a slower issue rate under a bounded budget, and
 * watched by per-stage EWMA monitors whose crossings climb a standing
 * voltage ladder ending at the model's safe fallback rail. An op
 * whose replay budget exhausts commits a corrupted result — the only
 * way a timing error reaches inference.
 *
 * Determinism (§7): every violation decision is a counter-based hash
 * of (stream key, op, issue, stage) against a precomputed threshold —
 * the same discipline as sram::VulnerabilityMap. One op's draws are
 * independent of every other op's, the per-op layout is fixed by
 * ReplayPolicy::kMaxIssues, and the datapath evolves serially within
 * one Monte-Carlo map, so results are bitwise identical at any thread
 * count when per-map stats merge in map order.
 */

#ifndef VBOOST_TIMING_SPECULATIVE_DATAPATH_HPP
#define VBOOST_TIMING_SPECULATIVE_DATAPATH_HPP

#include <cstdint>
#include <vector>

#include "circuit/energy_model.hpp"
#include "common/fnv.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "timing/replay_policy.hpp"
#include "timing/timing_model.hpp"

namespace vboost::timing {

/** Aggregate outcome of a datapath run; mergeable in map order. */
struct TimingStats
{
    /** Ops executed (committed, clean or corrupted). */
    std::uint64_t ops = 0;
    /** Detected timing violations (one per failing issue). */
    std::uint64_t errors = 0;
    /** Replay issues performed. */
    std::uint64_t replays = 0;
    /** Ops whose replay budget exhausted: corrupted results
     *  committed into inference. */
    std::uint64_t corrupted = 0;
    /** Standing-voltage rung increments from monitor crossings. */
    std::uint64_t stepUps = 0;
    /** Crossings that landed on the safe fallback rail. */
    std::uint64_t fallbacks = 0;
    /** Extra cycles spent in replay issues. */
    std::uint64_t replayCycles = 0;
    /** Pipeline flush/refill bubble cycles after detections. */
    std::uint64_t bubbleCycles = 0;
    /** Dynamic energy of every issue (first tries + replays). */
    Joule logicEnergy{0.0};
    /** Dynamic energy of replay issues alone (the speculation tax). */
    Joule replayEnergy{0.0};
    /** FNV-1a digest over (op, issue, stage) of every detected
     *  violation, chained in map order by merge(): the replay-count
     *  digest of the thread-count-invariance contract. */
    std::uint64_t replayDigest = fnv::kOffsetBasis;

    /** Fold another run's stats in (caller fixes the order). */
    void merge(const TimingStats &other);
};

/** Razor-protected PE pipeline at one (V_logic, clock) point. */
class SpeculativeDatapath
{
  public:
    /**
     * @param tech technology constants shared with the SRAM models.
     * @param params pipeline structure / path-slack parameters.
     * @param policy replay + escalation policy.
     * @param v_logic initial standing logic voltage.
     * @param clock target clock (the speculative clock; a worst-case
     *        policy stretches its effective period above this).
     */
    SpeculativeDatapath(const circuit::TechnologyParams &tech,
                        const TimingParams &params,
                        const ReplayPolicy &policy, Volt v_logic,
                        Hertz clock);

    /** Reset runtime state (monitors, ladder position, stats) and
     *  re-key the violation hash stream — fresh Monte-Carlo map. */
    void reseed(std::uint64_t stream_key);

    /**
     * Execute one op. @return true when the committed result is
     * corrupted (budget exhausted on a violating op); the caller owns
     * the accuracy coupling for corrupted ops.
     */
    bool executeOp(std::uint64_t op);

    /** Execute ops [base_op, base_op + count); corrupted op offsets
     *  (relative to base_op) are appended to `corrupted_out`. */
    void executeOps(std::uint64_t base_op, std::uint64_t count,
                    std::vector<std::uint64_t> &corrupted_out);

    /** Current standing logic voltage (top of climbs so far). */
    Volt standingVoltage() const { return ladder_[static_cast<std::size_t>(rung_)]; }

    /** The safe fallback rail (top ladder rung). */
    Volt safeVoltage() const { return ladder_.back(); }

    /** Effective clock period: the target period, or the guardbanded
     *  worst-case period under a non-speculative policy. */
    Second effectivePeriod() const { return effectivePeriod_; }

    /** effectivePeriod() / target period: the clock stretch a
     *  worst-case design pays (1.0 when speculative). */
    double cycleStretch() const;

    /** Per-op violation probability at the current standing voltage
     *  and first-issue period. */
    double currentOpErrorProb() const;

    /** EWMA violation rate of one pipeline stage. */
    double stageEwma(int stage) const;

    /** Aggregate stats so far. */
    const TimingStats &stats() const { return stats_; }

    /** Export stats into a metrics registry under `labels`. Uses the
     *  same values as stats() so obs attribution reconciles exactly. */
    void exportMetrics(obs::MetricsRegistry &reg,
                       const obs::Labels &labels) const;

    const TimingErrorModel &model() const { return model_; }
    const ReplayPolicy &policy() const { return policy_; }

  private:
    /** Stage that violates on this issue, or -1 when all close. */
    int violatingStage(std::uint64_t op, int issue) const;

    /** Feed the monitors one issue outcome; escalate on crossing. */
    void observeIssue(int violating_stage);

    /** Recompute per-(rung, issue-kind, stage) hash thresholds. */
    void rebuildThresholds();

    TimingErrorModel model_;
    ReplayPolicy policy_;
    Volt vLogic_;
    Second targetPeriod_;
    Second effectivePeriod_;
    circuit::EnergyModel energy_;

    std::vector<Volt> ladder_; // standing rungs, ends at the safe rail
    int rung_ = 0;
    std::vector<double> ewma_; // one monitor per stage
    // thresholds_[rung][kind][stage], kind 0 = first issue at the
    // target period, kind 1 = replay issue at slowdown * period.
    std::vector<std::uint64_t> thresholds_;
    std::uint64_t streamKey_ = 0;
    TimingStats stats_;
};

} // namespace vboost::timing

#endif // VBOOST_TIMING_SPECULATIVE_DATAPATH_HPP
