/**
 * @file
 * Operating-point planner of the serving runtime (DESIGN.md §9): maps
 * an accuracy-SLO class to the cheapest (Vdd, per-data-type boost
 * level) point whose predicted accuracy still meets the class target —
 * the paper's iso-accuracy controller (Sec. 6, Fig. 15) applied per
 * request class instead of per study. Weights get the minimal level
 * meeting the accuracy target via core::TradeoffExplorer; inputs get
 * the minimal level clearing the Table-2 reliability floor (Vddv_i >
 * 0.44 V). A per-tenant feedback hook consumes the resilience
 * monitor's measured error rate and steps the tenant up a ladder of
 * increasingly conservative Vdd points when the EWMA exceeds a
 * threshold (MATIC/ThUnderVolt-style online scaling), and back down
 * when the memory proves quiet.
 */

#ifndef VBOOST_SERVE_PLANNER_HPP
#define VBOOST_SERVE_PLANNER_HPP

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/tradeoff.hpp"
#include "recovery/recovery.hpp"
#include "serve/request.hpp"
#include "timing/replay_policy.hpp"
#include "timing/timing_model.hpp"

namespace vboost::serve {

/** Per-inference memory/compute footprint used for energy planning. */
struct InferenceFootprint
{
    /** Weight-memory accesses per inference. */
    std::uint64_t weightAccesses = 0;
    /** Input-memory accesses per inference. */
    std::uint64_t inputAccesses = 0;
    /** Partial-sum accesses per inference (held at the input level). */
    std::uint64_t psumAccesses = 0;
    /** Multiply-accumulate operations per inference. */
    std::uint64_t computeOps = 0;
};

/** Planner policy knobs. */
struct PlannerConfig
{
    /** Candidate chip supply voltages, low to high. */
    std::vector<Volt> vddGrid{Volt(0.38), Volt(0.42), Volt(0.46),
                              Volt(0.50), Volt(0.55), Volt(0.60)};
    /** Fraction of fault-free accuracy each SLO class must retain
     *  (indexed by SloClass: Gold, Silver, Bronze). */
    std::array<double, kNumSloClasses> accuracyFraction{0.97, 0.92, 0.85};
    /** Table-2 footnote reliability floor for the input memory. */
    Volt inputVddvFloor{0.44};
    /** EWMA smoothing factor for the observed error rate. */
    double ewmaAlpha = 0.25;
    /** EWMA error rate above which a tenant steps to a safer Vdd. */
    double stepUpThreshold = 0.08;
    /** EWMA error rate below which a tenant steps back down. */
    double stepDownThreshold = 0.01;

    /**
     * Candidate underscaled datapath rails for 2-D (V_logic, V_sram)
     * planning, low to high. Empty = 1-D planning: logic runs at Vdd
     * with no timing speculation, exactly the legacy behavior. When
     * non-empty, each Vdd rung is jointly optimized: the cheapest
     * feasible V_logic <= Vdd (including the no-underscale fallback)
     * wins on planned energy per inference.
     */
    std::vector<Volt> vLogicGrid{};
    /** Pipeline structure of the timing-speculative datapath. */
    timing::TimingParams timingParams;
    /** Replay policy of the underscaled candidates. */
    timing::ReplayPolicy replayPolicy = timing::ReplayPolicy::razor();
    /** Target datapath clock the timing predictions are made at. */
    Hertz datapathClock{50e6};
    /** Planned per-op corrupted-commit probability above which an
     *  underscaled rail is infeasible (budget exhaustion would leak
     *  corrupted MACs into inference). */
    double maxCorruptedRate = 1e-9;

    /**
     * Recovery options the planner may select per SLO class, on top
     * of the implicit boost-only RecoveryMode::None candidate
     * (DESIGN.md §15). Each option carries its own accuracy-vs-voltage
     * curve (e.g. a sampled ChipEvaluator frontier for a MATIC
     * retrained model or a NeuralFuse transform) and its per-inference
     * energy overheads, so "lower Vdd + recovery" competes against
     * "higher boost" on planned energy. Empty = legacy boost-only
     * planning. Options must not carry RecoveryMode::None.
     */
    std::vector<recovery::PlannedRecovery> recoveryOptions{};
};

/** One fully resolved operating point for a batch. */
struct OperatingPlan
{
    /** Chip supply voltage. */
    Volt vdd{0.0};
    /** Boost level for weight-memory accesses. */
    int weightLevel = 0;
    /** Boost level for input/psum accesses. */
    int inputLevel = 0;
    /** Boosted SRAM voltage of weight accesses. */
    Volt vddvWeights{0.0};
    /** Boosted SRAM voltage of input accesses. */
    Volt vddvInputs{0.0};
    /** Absolute accuracy the SLO class demands. */
    double targetAccuracy = 0.0;
    /** Accuracy the planner's model predicts at vddvWeights. */
    double plannedAccuracy = 0.0;
    /** Planned dynamic energy per inference. */
    Joule energyPerInference{0.0};
    /** Ladder position the feedback loop applied (0 = base plan). */
    int vddStep = 0;

    /** Underscaled datapath rail (0 = logic at vdd, no speculation). */
    Volt vLogic{0.0};
    /** Planned replay issues per op at vLogic. */
    double replayRate = 0.0;
    /** Planned bubble (flush/refill + replay-slowdown) cycles per op. */
    double bubbleRate = 0.0;
    /** Planned per-op corrupted-commit probability at vLogic. */
    double corruptedRate = 0.0;
    /** Effective-period stretch (worst-case-clocked policies only). */
    double clockStretch = 1.0;

    /** Selected recovery strategy (None = boost-only). */
    recovery::RecoveryMode recoveryMode = recovery::RecoveryMode::None;
    /** The recovery path's extra MACs per inference. */
    std::uint64_t recoveryComputeOps = 0;
    /** The recovery path's extra input-memory accesses per inference. */
    std::uint64_t recoveryInputAccesses = 0;
    /** Planned per-inference energy of the recovery path (already
     *  included in energyPerInference). */
    Joule recoveryEnergy{0.0};
};

/**
 * Maps (tenant, SLO class) to an operating plan and adapts it online
 * from measured error rates. All state is deterministic: plans are
 * precomputed per class on a fixed Vdd grid, and feedback only moves a
 * per-tenant ladder index.
 */
class OperatingPointPlanner
{
  public:
    /**
     * @param ctx shared study configuration.
     * @param num_banks banks in the weight memory.
     * @param accuracy model accuracy as a function of the weight-SRAM
     *        voltage (e.g. a sampled fi::AccuracyCurve).
     * @param fault_free_accuracy accuracy ceiling the SLO fractions
     *        are taken against.
     * @param footprint per-inference activity for energy planning.
     * @param cfg policy knobs.
     */
    OperatingPointPlanner(const core::SimContext &ctx, int num_banks,
                          core::TradeoffExplorer::AccuracyFn accuracy,
                          double fault_free_accuracy,
                          InferenceFootprint footprint, PlannerConfig cfg);

    /** The planner with the default PlannerConfig. */
    OperatingPointPlanner(const core::SimContext &ctx, int num_banks,
                          core::TradeoffExplorer::AccuracyFn accuracy,
                          double fault_free_accuracy,
                          InferenceFootprint footprint);

    /**
     * The plan a batch of (tenant, slo) executes under right now. The
     * base plan per class is the cheapest feasible grid point; the
     * tenant's feedback step moves it toward higher Vdd.
     */
    const OperatingPlan &planFor(const std::string &tenant, SloClass slo);

    /**
     * The plan for one class at one specific supply voltage; nullopt
     * when no boost level meets the class target there. Exposed for
     * the planner-monotonicity acceptance test.
     */
    std::optional<OperatingPlan> planAtVdd(SloClass slo, Volt vdd) const;

    /**
     * The plan for one class at one explicit (Vdd, V_logic) joint
     * point; nullopt when the SRAM side misses the class target or the
     * rail's planned corrupted-commit rate exceeds the config bound.
     * v_logic = 0 requests the no-underscale fallback. Exposed for the
     * joint-sweep bench and the 2-D planner acceptance tests.
     */
    std::optional<OperatingPlan> planAt(SloClass slo, Volt vdd,
                                        Volt v_logic) const;

    /**
     * As planAt(slo, vdd, v_logic), but planned under one explicit
     * recovery option: feasibility uses the option's accuracy curve
     * and the energy objective pays the option's per-inference
     * overheads. Exposed for the recovery bench and the planner
     * acceptance tests.
     */
    std::optional<OperatingPlan>
    planAt(SloClass slo, Volt vdd, Volt v_logic,
           const recovery::PlannedRecovery &rec) const;

    /**
     * Feed back one batch's measured word error rate (errors / reads
     * from resilience::ResilienceStats). Updates the tenant's EWMA and
     * possibly its ladder step. Must be called serially in batch
     * order (§7 discipline).
     */
    void observeErrorRate(const std::string &tenant, double error_rate);

    /** Absolute accuracy target of a class. */
    double targetAccuracy(SloClass slo) const;

    /** Current ladder step of a tenant (0 when never seen). */
    int tenantStep(const std::string &tenant) const;

    /** Current EWMA error rate of a tenant (0 when never seen). */
    double tenantEwma(const std::string &tenant) const;

    /** Number of ladder rungs available to a class. */
    std::size_t ladderSize(SloClass slo) const;

    const PlannerConfig &config() const { return cfg_; }

  private:
    struct TenantState
    {
        double ewma = 0.0;
        int step = 0;
        bool seeded = false;
    };

    /** Shared implementation: `rec` = nullptr plans boost-only. */
    std::optional<OperatingPlan>
    planImpl(SloClass slo, Volt vdd, Volt v_logic,
             const recovery::PlannedRecovery *rec) const;

    core::TradeoffExplorer explorer_;
    core::TradeoffExplorer::AccuracyFn accuracy_;
    double faultFreeAccuracy_;
    InferenceFootprint footprint_;
    PlannerConfig cfg_;
    /** Timing-error predictor (built when vLogicGrid is non-empty). */
    std::optional<timing::TimingErrorModel> timingModel_;

    /** Feasible plans per class, ordered by ascending Vdd, starting at
     *  the cheapest-energy rung (index 0 = base plan). */
    std::array<std::vector<OperatingPlan>, kNumSloClasses> ladder_;

    std::map<std::string, TenantState> tenants_;

    int maxStep_ = 0;
};

} // namespace vboost::serve

#endif // VBOOST_SERVE_PLANNER_HPP
