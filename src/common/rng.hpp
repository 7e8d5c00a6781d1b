/**
 * @file
 * Deterministic random number generation for Monte-Carlo fault-map
 * construction: xoshiro256++ core generator, SplitMix64 seeding, and the
 * distributions the fault model needs (uniform, standard normal,
 * Bernoulli). Also provides the inverse standard-normal CDF used to map
 * a bit-failure probability to a vulnerability threshold (paper Sec. 5.1).
 */

#ifndef VBOOST_COMMON_RNG_HPP
#define VBOOST_COMMON_RNG_HPP

#include <array>
#include <cstdint>

namespace vboost {

/**
 * xoshiro256++ pseudo-random generator. Fast, high-quality, and with a
 * tiny state so each Monte-Carlo fault map can own an independent,
 * reproducible stream derived from (seed, map index).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = rotl(state_[0] + state_[3], 23) +
                                     state_[0];
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** UniformRandomBitGenerator interface. */
    result_type operator()() { return next(); }
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ull; }

    /** Uniform double in [0, 1): the 53 high bits of next(). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal N(0, 1) via Box-Muller (cached pair). */
    double normal();

    /** Normal with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with success probability p (one draw). */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Derive an independent child stream. Mixes the parent's seed with
     * the stream index, so fault map i is reproducible regardless of how
     * much randomness earlier maps consumed.
     */
    Rng split(std::uint64_t stream) const;

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
    std::uint64_t seed_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

/**
 * Inverse standard-normal CDF (quantile function), Acklam's rational
 * approximation (relative error < 1.15e-9).
 *
 * Used by the fault model: a bitcell with vulnerability draw x ~ N(0,1)
 * is faulty at voltage v iff x >= inverseNormalCdf(1 - F(v)).
 *
 * @param p probability in (0, 1).
 * @return z such that P(N(0,1) <= z) = p.
 */
double inverseNormalCdf(double p);

/** Standard normal CDF Phi(z) (via std::erfc). */
double normalCdf(double z);

} // namespace vboost

#endif // VBOOST_COMMON_RNG_HPP
