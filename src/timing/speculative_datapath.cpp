#include "timing/speculative_datapath.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "sram/cell_hash.hpp"

namespace vboost::timing {

void
TimingStats::merge(const TimingStats &other)
{
    ops += other.ops;
    errors += other.errors;
    replays += other.replays;
    corrupted += other.corrupted;
    stepUps += other.stepUps;
    fallbacks += other.fallbacks;
    replayCycles += other.replayCycles;
    bubbleCycles += other.bubbleCycles;
    logicEnergy += other.logicEnergy;
    replayEnergy += other.replayEnergy;
    fnv::mixU64(replayDigest, other.replayDigest);
}

SpeculativeDatapath::SpeculativeDatapath(
    const circuit::TechnologyParams &tech, const TimingParams &params,
    const ReplayPolicy &policy, Volt v_logic, Hertz clock)
    : model_(tech, params), policy_(policy), vLogic_(v_logic),
      energy_(tech)
{
    policy_.validate();
    if (clock.value() <= 0.0)
        fatal("SpeculativeDatapath: clock must be positive");
    targetPeriod_ = period(clock);
    // Fatal below threshold (no functional datapath at all).
    (void)model_.datapathDelay(vLogic_);

    ladder_.push_back(vLogic_);
    if (policy_.speculative) {
        effectivePeriod_ = targetPeriod_;
        const Volt safe =
            model_.safeVoltage(targetPeriod_, policy_.safeResidual);
        Volt v = vLogic_;
        while (v.value() + policy_.stepSize.value() <
               safe.value() - 1e-12) {
            v = v + policy_.stepSize;
            ladder_.push_back(v);
        }
        if (safe > ladder_.back())
            ladder_.push_back(safe);
    } else {
        // Worst-case clocking: stretch the period until the
        // guardbanded datapath closes timing; no violations occur.
        effectivePeriod_ = std::max(
            targetPeriod_,
            model_.worstCasePeriod(vLogic_, policy_.guardbandSigmas));
    }
    ewma_.assign(static_cast<std::size_t>(model_.params().numStages()),
                 0.0);
    rebuildThresholds();
}

void
SpeculativeDatapath::rebuildThresholds()
{
    const int stages = model_.params().numStages();
    thresholds_.assign(ladder_.size() * 2 *
                           static_cast<std::size_t>(stages),
                       0);
    if (!policy_.speculative)
        return; // worst-case clocking: no violation draws at all
    const Second replay_period(targetPeriod_.value() *
                               policy_.replaySlowdown);
    for (std::size_t r = 0; r < ladder_.size(); ++r) {
        for (int kind = 0; kind < 2; ++kind) {
            const Second p = kind == 0 ? targetPeriod_ : replay_period;
            for (int s = 0; s < stages; ++s) {
                thresholds_[(r * 2 + static_cast<std::size_t>(kind)) *
                                static_cast<std::size_t>(stages) +
                            static_cast<std::size_t>(s)] =
                    sram::detail::probThreshold(
                        model_.stageErrorProb(s, ladder_[r], p));
            }
        }
    }
}

void
SpeculativeDatapath::reseed(std::uint64_t stream_key)
{
    streamKey_ = stream_key;
    rung_ = 0;
    std::fill(ewma_.begin(), ewma_.end(), 0.0);
    stats_ = TimingStats{};
}

int
SpeculativeDatapath::violatingStage(std::uint64_t op, int issue) const
{
    const int stages = model_.params().numStages();
    const int kind = issue == 0 ? 0 : 1;
    const std::uint64_t *thr =
        &thresholds_[(static_cast<std::size_t>(rung_) * 2 +
                      static_cast<std::size_t>(kind)) *
                     static_cast<std::size_t>(stages)];
    const std::uint64_t base =
        op * static_cast<std::uint64_t>(ReplayPolicy::kMaxIssues *
                                        stages) +
        static_cast<std::uint64_t>(issue) *
            static_cast<std::uint64_t>(stages);
    for (int s = 0; s < stages; ++s) {
        if (sram::detail::cellHash(
                streamKey_, base + static_cast<std::uint64_t>(s)) <
            thr[s]) {
            return s;
        }
    }
    return -1;
}

void
SpeculativeDatapath::observeIssue(int violating_stage)
{
    bool crossed = false;
    for (std::size_t s = 0; s < ewma_.size(); ++s) {
        const double x =
            static_cast<int>(s) == violating_stage ? 1.0 : 0.0;
        ewma_[s] = (1.0 - policy_.ewmaAlpha) * ewma_[s] +
                   policy_.ewmaAlpha * x;
        crossed = crossed || ewma_[s] > policy_.raiseThreshold;
    }
    if (!crossed || policy_.escalation == TimingEscalation::Hold)
        return;
    const int top = static_cast<int>(ladder_.size()) - 1;
    if (rung_ >= top)
        return; // already on the safe rail
    rung_ = policy_.escalation == TimingEscalation::MaxOut ? top
                                                           : rung_ + 1;
    ++stats_.stepUps;
    if (rung_ == top)
        ++stats_.fallbacks;
    // Re-observe at the new rail instead of being dragged up by
    // stale history (same discipline as resilience's bank monitor).
    std::fill(ewma_.begin(), ewma_.end(), 0.0);
}

bool
SpeculativeDatapath::executeOp(std::uint64_t op)
{
    ++stats_.ops;
    if (!policy_.speculative) {
        stats_.logicEnergy += energy_.peOpEnergy(vLogic_);
        return false;
    }
    const std::uint64_t replay_cycles = static_cast<std::uint64_t>(
        std::ceil(policy_.replaySlowdown));
    const std::uint64_t bubble_cycles =
        static_cast<std::uint64_t>(model_.params().numStages());
    for (int issue = 0; issue <= policy_.replayBudget; ++issue) {
        stats_.logicEnergy += energy_.peOpEnergy(standingVoltage());
        if (issue > 0) {
            ++stats_.replays;
            stats_.replayCycles += replay_cycles;
            stats_.replayEnergy += energy_.peOpEnergy(standingVoltage());
        }
        const int stage = violatingStage(op, issue);
        observeIssue(stage);
        if (stage < 0)
            return false; // clean commit
        ++stats_.errors;
        stats_.bubbleCycles += bubble_cycles;
        fnv::mixU64(stats_.replayDigest, op);
        fnv::mixU64(stats_.replayDigest, static_cast<std::uint64_t>(issue));
        fnv::mixU64(stats_.replayDigest, static_cast<std::uint64_t>(stage));
    }
    ++stats_.corrupted;
    return true; // budget exhausted: corrupted result committed
}

void
SpeculativeDatapath::executeOps(std::uint64_t base_op,
                                std::uint64_t count,
                                std::vector<std::uint64_t> &corrupted_out)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        if (executeOp(base_op + i))
            corrupted_out.push_back(i);
    }
}

double
SpeculativeDatapath::cycleStretch() const
{
    return effectivePeriod_ / targetPeriod_;
}

double
SpeculativeDatapath::currentOpErrorProb() const
{
    if (!policy_.speculative)
        return 0.0;
    return model_.opErrorProb(standingVoltage(), targetPeriod_);
}

double
SpeculativeDatapath::stageEwma(int stage) const
{
    if (stage < 0 || stage >= static_cast<int>(ewma_.size()))
        fatal("SpeculativeDatapath: stage ", stage, " out of range");
    return ewma_[static_cast<std::size_t>(stage)];
}

void
SpeculativeDatapath::exportMetrics(obs::MetricsRegistry &reg,
                                   const obs::Labels &labels) const
{
    reg.counter("timing.ops", labels).add(stats_.ops);
    reg.counter("timing.errors", labels).add(stats_.errors);
    reg.counter("timing.replays", labels).add(stats_.replays);
    reg.counter("timing.corrupted", labels).add(stats_.corrupted);
    reg.counter("timing.step_ups", labels).add(stats_.stepUps);
    reg.counter("timing.fallbacks", labels).add(stats_.fallbacks);
    reg.counter("timing.replay_cycles", labels).add(stats_.replayCycles);
    reg.counter("timing.bubble_cycles", labels).add(stats_.bubbleCycles);
    reg.sum("timing.energy.logic_j", labels)
        .add(stats_.logicEnergy.value());
    reg.sum("timing.energy.replay_j", labels)
        .add(stats_.replayEnergy.value());
    reg.gauge("timing.standing_v", labels)
        .set(standingVoltage().value());
}

} // namespace vboost::timing
