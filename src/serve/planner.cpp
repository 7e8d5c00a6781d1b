#include "serve/planner.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"

namespace vboost::serve {

namespace {

/** Planned datapath perturbation at one (V_logic, period) point. */
struct PlannedTiming
{
    double replayRate = 0.0;
    double bubbleRate = 0.0;
    double corruptedRate = 0.0;
};

/**
 * Closed-form expectation of the replay chain: the first issue
 * violates with p0 = opErrorProb at the target period; replay k is
 * issued iff all k previous issues violated and itself violates with
 * p1 = opErrorProb at the slowed replay period. Bubbles charge the
 * pipeline depth per detection plus the extra slowdown cycles each
 * replay occupies beyond its PE slot.
 */
PlannedTiming
predictTiming(const timing::TimingErrorModel &model,
              const timing::ReplayPolicy &policy, Volt v, Second period)
{
    const double p0 = model.opErrorProb(v, period);
    const double p1 = model.opErrorProb(
        v, Second(period.value() * policy.replaySlowdown));
    double replay_rate = 0.0;
    double detect_rate = p0;
    double reach = p0; // P(replay k is issued)
    for (int k = 1; k <= policy.replayBudget; ++k) {
        replay_rate += reach;
        reach *= p1; // now P(replay k violates) = P(replay k+1 issued)
        detect_rate += reach;
    }
    PlannedTiming t;
    t.replayRate = replay_rate;
    t.corruptedRate = reach; // all budget + 1 issues violated
    const double slowdown_extra =
        std::ceil(policy.replaySlowdown) - 1.0;
    t.bubbleRate =
        detect_rate * static_cast<double>(model.params().numStages()) +
        replay_rate * slowdown_extra;
    return t;
}

/** The default policy, built once and copied: destroying a moved-from
 *  PlannerConfig{} temporary draws a false -Wmaybe-uninitialized for
 *  its vectors from GCC 12 at -O3. */
const PlannerConfig &
defaultPlannerConfig()
{
    static const PlannerConfig cfg;
    return cfg;
}

} // namespace

OperatingPointPlanner::OperatingPointPlanner(
    const core::SimContext &ctx, int num_banks,
    core::TradeoffExplorer::AccuracyFn accuracy, double fault_free_accuracy,
    InferenceFootprint footprint)
    : OperatingPointPlanner(ctx, num_banks, std::move(accuracy),
                            fault_free_accuracy, footprint,
                            defaultPlannerConfig())
{
}

OperatingPointPlanner::OperatingPointPlanner(
    const core::SimContext &ctx, int num_banks,
    core::TradeoffExplorer::AccuracyFn accuracy, double fault_free_accuracy,
    InferenceFootprint footprint, PlannerConfig cfg)
    : explorer_(ctx, num_banks),
      accuracy_(std::move(accuracy)),
      faultFreeAccuracy_(fault_free_accuracy),
      footprint_(footprint),
      cfg_(std::move(cfg))
{
    if (!accuracy_)
        fatal("OperatingPointPlanner: accuracy function required");
    if (cfg_.vddGrid.empty())
        fatal("OperatingPointPlanner: empty Vdd grid");
    if (!std::is_sorted(cfg_.vddGrid.begin(), cfg_.vddGrid.end()))
        fatal("OperatingPointPlanner: Vdd grid must be ascending");
    for (double fraction : cfg_.accuracyFraction) {
        if (fraction <= 0.0 || fraction > 1.0)
            fatal("OperatingPointPlanner: accuracy fraction ", fraction,
                  " outside (0, 1]");
    }
    if (!cfg_.vLogicGrid.empty()) {
        if (!std::is_sorted(cfg_.vLogicGrid.begin(),
                            cfg_.vLogicGrid.end()))
            fatal("OperatingPointPlanner: V_logic grid must be "
                  "ascending");
        if (cfg_.datapathClock.value() <= 0.0)
            fatal("OperatingPointPlanner: datapath clock must be "
                  "positive");
        if (cfg_.maxCorruptedRate < 0.0 || cfg_.maxCorruptedRate > 1.0)
            fatal("OperatingPointPlanner: maxCorruptedRate outside "
                  "[0, 1]");
        cfg_.timingParams.validate();
        cfg_.replayPolicy.validate();
        if (!cfg_.replayPolicy.speculative)
            fatal("OperatingPointPlanner: a worst-case-clocked policy "
                  "has no underscaled candidates; leave vLogicGrid "
                  "empty instead");
        timingModel_.emplace(ctx.tech, cfg_.timingParams);
    }
    for (const auto &rec : cfg_.recoveryOptions) {
        rec.validate();
        if (rec.mode == recovery::RecoveryMode::None)
            fatal("OperatingPointPlanner: recoveryOptions must not "
                  "carry RecoveryMode::None (boost-only is the "
                  "implicit candidate)");
    }

    for (int c = 0; c < kNumSloClasses; ++c) {
        const auto slo = static_cast<SloClass>(c);
        std::vector<OperatingPlan> feasible;
        for (Volt vdd : cfg_.vddGrid) {
            if (auto plan = planAtVdd(slo, vdd))
                feasible.push_back(*plan);
        }
        if (feasible.empty())
            fatal("OperatingPointPlanner: no grid point meets the ",
                  toString(slo), " target ", targetAccuracy(slo));
        // The base plan is the cheapest feasible point; the rungs above
        // it (higher Vdd = wider margins) are where feedback can go.
        std::size_t cheapest = 0;
        for (std::size_t i = 1; i < feasible.size(); ++i) {
            if (feasible[i].energyPerInference <
                feasible[cheapest].energyPerInference)
                cheapest = i;
        }
        auto &ladder = ladder_[static_cast<std::size_t>(c)];
        ladder.assign(feasible.begin() +
                          static_cast<std::ptrdiff_t>(cheapest),
                      feasible.end());
        for (std::size_t step = 0; step < ladder.size(); ++step)
            ladder[step].vddStep = static_cast<int>(step);
        maxStep_ = std::max(maxStep_, static_cast<int>(ladder.size()) - 1);
    }
}

std::optional<OperatingPlan>
OperatingPointPlanner::planAtVdd(SloClass slo, Volt vdd) const
{
    // Candidates per rung: every recovery strategy (boost-only plus
    // each configured option) jointly with every datapath rail; the
    // cheapest feasible combination wins. Strategy order breaks energy
    // ties deterministically (boost-only first, then config order).
    auto best_over_rails =
        [&](const recovery::PlannedRecovery *rec)
        -> std::optional<OperatingPlan> {
        // The no-underscale point (logic at vdd) is always a candidate
        // — and the only one under 1-D planning — so joint planning
        // never loses feasibility the 1-D planner had.
        std::optional<OperatingPlan> best =
            planImpl(slo, vdd, Volt(0.0), rec);
        if (!best)
            return std::nullopt;
        for (Volt v_logic : cfg_.vLogicGrid) {
            if (vdd < v_logic)
                break; // grid ascends; only underscaled rails qualify
            const auto joint = planImpl(slo, vdd, v_logic, rec);
            if (joint &&
                joint->energyPerInference < best->energyPerInference)
                best = joint;
        }
        return best;
    };

    std::optional<OperatingPlan> best = best_over_rails(nullptr);
    for (const auto &rec : cfg_.recoveryOptions) {
        const auto candidate = best_over_rails(&rec);
        if (!candidate)
            continue;
        if (!best ||
            candidate->energyPerInference < best->energyPerInference)
            best = candidate;
    }
    return best;
}

std::optional<OperatingPlan>
OperatingPointPlanner::planAt(SloClass slo, Volt vdd, Volt v_logic) const
{
    return planImpl(slo, vdd, v_logic, nullptr);
}

std::optional<OperatingPlan>
OperatingPointPlanner::planAt(SloClass slo, Volt vdd, Volt v_logic,
                              const recovery::PlannedRecovery &rec) const
{
    return planImpl(slo, vdd, v_logic, &rec);
}

std::optional<OperatingPlan>
OperatingPointPlanner::planImpl(SloClass slo, Volt vdd, Volt v_logic,
                                const recovery::PlannedRecovery *rec) const
{
    const double target = targetAccuracy(slo);
    // Feasibility follows the strategy's own accuracy curve: a MATIC
    // retrained model or a NeuralFuse transform holds the target at a
    // lower weight voltage than the base model can.
    const core::TradeoffExplorer::AccuracyFn &oracle =
        rec != nullptr ? rec->accuracy : accuracy_;
    const auto weight_level =
        explorer_.minimalLevelForAccuracy(vdd, target, oracle);
    if (!weight_level)
        return std::nullopt;
    const auto input_level =
        explorer_.minimalLevelReaching(vdd, cfg_.inputVddvFloor);
    if (!input_level)
        return std::nullopt;

    OperatingPlan plan;
    plan.vdd = vdd;
    plan.weightLevel = *weight_level;
    plan.inputLevel = *input_level;
    plan.vddvWeights = explorer_.boostedVoltage(vdd, plan.weightLevel);
    plan.vddvInputs = explorer_.boostedVoltage(vdd, plan.inputLevel);
    plan.targetAccuracy = target;
    plan.plannedAccuracy = oracle(plan.vddvWeights);
    if (rec != nullptr) {
        plan.recoveryMode = rec->mode;
        plan.recoveryComputeOps = rec->extraComputeOps;
        plan.recoveryInputAccesses = rec->extraInputAccesses;
    }
    // The recovery path's extra work joins the inference streams: its
    // operand traffic runs at the input level (its activations live in
    // the boosted input memory) and its MACs at the logic rail.
    const std::uint64_t input_accesses =
        footprint_.inputAccesses + footprint_.psumAccesses +
        plan.recoveryInputAccesses;
    const std::uint64_t compute_ops =
        footprint_.computeOps + plan.recoveryComputeOps;

    double replay_mult = 1.0;
    if (v_logic.value() > 0.0) {
        if (!timingModel_)
            fatal("OperatingPointPlanner::planAt: vLogicGrid is empty, "
                  "no timing model to evaluate V_logic = ",
                  v_logic.value());
        if (vdd < v_logic)
            return std::nullopt; // underscaling only
        const Second period(1.0 / cfg_.datapathClock.value());
        const PlannedTiming t = predictTiming(
            *timingModel_, cfg_.replayPolicy, v_logic, period);
        if (t.corruptedRate > cfg_.maxCorruptedRate)
            return std::nullopt;
        plan.vLogic = v_logic;
        plan.replayRate = t.replayRate;
        plan.bubbleRate = t.bubbleRate;
        plan.corruptedRate = t.corruptedRate;
        replay_mult = 1.0 + t.replayRate;
    }

    // Planned dynamic energy of one inference's streams. Underscaled
    // rails move the MAC datapath (and its replays — recovery MACs
    // replay like any other op) to their own rail.
    auto stream_energy = [&](std::uint64_t in_acc,
                             std::uint64_t ops) -> Joule {
        if (v_logic.value() > 0.0) {
            return explorer_.supply()
                       .boostedDynamicMulti(
                           {{footprint_.weightAccesses,
                             plan.weightLevel},
                            {in_acc, plan.inputLevel}},
                           0, vdd)
                       .total() +
                   explorer_.supply().energyModel().peOpEnergy(
                       v_logic) *
                       (static_cast<double>(ops) * replay_mult);
        }
        return explorer_.supply()
            .boostedDynamicMulti({{footprint_.weightAccesses,
                                   plan.weightLevel},
                                  {in_acc, plan.inputLevel}},
                                 ops, vdd)
            .total();
    };
    plan.energyPerInference = stream_energy(input_accesses, compute_ops);
    if (rec != nullptr) {
        const Joule base = stream_energy(
            footprint_.inputAccesses + footprint_.psumAccesses,
            footprint_.computeOps);
        plan.recoveryEnergy = Joule(plan.energyPerInference.value() -
                                    base.value());
    }
    return plan;
}

const OperatingPlan &
OperatingPointPlanner::planFor(const std::string &tenant, SloClass slo)
{
    const auto &ladder = ladder_[static_cast<std::size_t>(slo)];
    int step = 0;
    if (auto it = tenants_.find(tenant); it != tenants_.end())
        step = it->second.step;
    step = std::min(step, static_cast<int>(ladder.size()) - 1);
    return ladder[static_cast<std::size_t>(step)];
}

void
OperatingPointPlanner::observeErrorRate(const std::string &tenant,
                                        double error_rate)
{
    if (error_rate < 0.0)
        fatal("OperatingPointPlanner: negative error rate ", error_rate);
    TenantState &state = tenants_[tenant];
    if (!state.seeded) {
        state.ewma = error_rate;
        state.seeded = true;
    } else {
        state.ewma = cfg_.ewmaAlpha * error_rate +
                     (1.0 - cfg_.ewmaAlpha) * state.ewma;
    }
    if (state.ewma > cfg_.stepUpThreshold && state.step < maxStep_) {
        ++state.step;
        // The new rung changes the error regime; restart the average so
        // stale samples from the old rung cannot trigger a second step.
        state.ewma = 0.0;
    } else if (state.ewma < cfg_.stepDownThreshold && state.step > 0) {
        --state.step;
    }
}

double
OperatingPointPlanner::targetAccuracy(SloClass slo) const
{
    return faultFreeAccuracy_ *
           cfg_.accuracyFraction[static_cast<std::size_t>(slo)];
}

int
OperatingPointPlanner::tenantStep(const std::string &tenant) const
{
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.step;
}

double
OperatingPointPlanner::tenantEwma(const std::string &tenant) const
{
    auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0.0 : it->second.ewma;
}

std::size_t
OperatingPointPlanner::ladderSize(SloClass slo) const
{
    return ladder_[static_cast<std::size_t>(slo)].size();
}

} // namespace vboost::serve
