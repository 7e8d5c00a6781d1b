#include "sram/yield.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace vboost::sram {

double
VminDistribution::mean() const
{
    if (samples.empty())
        fatal("VminDistribution: empty sample set");
    double sum = 0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

double
VminDistribution::percentile(double p) const
{
    if (samples.empty())
        fatal("VminDistribution: empty sample set");
    if (p < 0.0 || p > 100.0)
        fatal("VminDistribution: percentile out of range");
    const double rank = p / 100.0 *
                        static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const auto hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

YieldAnalyzer::YieldAnalyzer(const FailureRateModel &model,
                             std::uint64_t array_bits)
    : model_(model), arrayBits_(array_bits)
{
    if (array_bits == 0)
        fatal("YieldAnalyzer: array must have at least one bit");
}

double
YieldAnalyzer::errorFreeProbability(Volt v) const
{
    // (1 - F)^N computed in log space for numerical stability.
    const double f = model_.rate(v);
    if (f >= 1.0)
        return 0.0;
    return std::exp(static_cast<double>(arrayBits_) *
                    std::log1p(-f));
}

double
YieldAnalyzer::yieldWithTolerance(Volt v,
                                  std::uint64_t max_faulty_bits) const
{
    // Poisson approximation: faults ~ Poisson(N * F).
    const double lambda =
        static_cast<double>(arrayBits_) * model_.rate(v);
    double term = std::exp(-lambda);
    double cdf = term;
    for (std::uint64_t k = 1; k <= max_faulty_bits; ++k) {
        term *= lambda / static_cast<double>(k);
        cdf += term;
    }
    return std::min(cdf, 1.0);
}

Volt
YieldAnalyzer::vminForYield(double target) const
{
    if (target <= 0.0 || target >= 1.0)
        fatal("YieldAnalyzer::vminForYield: target must be in (0,1)");
    // (1-F)^N >= target  <=>  F <= 1 - target^(1/N).
    const double f_max =
        -std::log(target) / static_cast<double>(arrayBits_);
    return model_.voltageForRate(f_max);
}

VminDistribution
YieldAnalyzer::sampleVmin(int dies, std::uint64_t seed) const
{
    if (dies < 1)
        fatal("YieldAnalyzer::sampleVmin: at least one die required");

    VminDistribution dist;
    dist.samples.reserve(static_cast<std::size_t>(dies));
    for (int d = 0; d < dies; ++d) {
        const VulnerabilityMap map(seed, static_cast<std::uint64_t>(d));
        // The die's V_min is set by its most vulnerable cell (the
        // smallest uniform draw): error-free at v iff F(v) <= u_min.
        const double u_min =
            std::max(map.minUniform(arrayBits_), 1e-300);
        const double capped =
            std::min(u_min, model_.params().maxRate * 0.999);
        dist.samples.push_back(model_.voltageForRate(capped).value());
    }
    std::sort(dist.samples.begin(), dist.samples.end());
    return dist;
}

} // namespace vboost::sram
