#include "circuit/transient.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace vboost::circuit {

TransientSim::TransientSim(const BoosterBank &booster, Volt vdd,
                           Second boost_tau, Second restore_tau,
                           Second sample_interval)
    : booster_(booster), bic_(booster.levels()), vdd_(vdd),
      boostTau_(boost_tau), restoreTau_(restore_tau),
      sampleInterval_(sample_interval), vddv_(vdd)
{
    if (vdd <= Volt(0.0))
        fatal("TransientSim: vdd must be positive");
    if (boost_tau <= Second(0.0) || restore_tau <= Second(0.0) ||
        sample_interval <= Second(0.0)) {
        fatal("TransientSim: time constants must be positive");
    }
}

void
TransientSim::setConfig(std::uint32_t bits)
{
    bic_.setConfig(bits);
}

void
TransientSim::setLevel(int level)
{
    bic_.setLevel(level);
}

void
TransientSim::step(Second dt, Volt target)
{
    const Second tau = target > vddv_ ? boostTau_ : restoreTau_;
    const double alpha = 1.0 - std::exp(-dt.value() / tau.value());
    vddv_ += (target - vddv_) * alpha;
}

void
TransientSim::sampleIfDue()
{
    while (now_ >= nextSample_) {
        wave_.push_back(WaveformSample{now_, vddv_, lastAsserted_,
                                       bic_.enabledLevel()});
        nextSample_ += sampleInterval_;
    }
}

void
TransientSim::run(bool cen, bool boost_clk, Second duration)
{
    const bool asserted = bic_.boostActive(cen, boost_clk);
    if (asserted && !lastAsserted_)
        ++boostEvents_;
    lastAsserted_ = asserted;

    const Volt target = asserted
        ? booster_.boostedVoltage(vdd_, bic_.enabledLevel())
        : vdd_;

    // March in sub-sample steps so the RC integration stays accurate.
    const Second step_dt(sampleInterval_.value() / 4.0);
    Second remaining = duration;
    while (remaining > Second(0.0)) {
        const Second dt = remaining < step_dt ? remaining : step_dt;
        step(dt, target);
        now_ += dt;
        remaining -= dt;
        sampleIfDue();
    }
}

void
TransientSim::runAccessCycles(int cycles, Hertz clock)
{
    if (cycles < 0)
        fatal("TransientSim::runAccessCycles: negative cycle count");
    const Second half(period(clock).value() / 2.0);
    for (int i = 0; i < cycles; ++i) {
        run(/*cen=*/false, /*boost_clk=*/true, half);
        run(/*cen=*/false, /*boost_clk=*/false, half);
    }
}

} // namespace vboost::circuit
