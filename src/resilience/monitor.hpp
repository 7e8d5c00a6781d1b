/**
 * @file
 * Per-bank error-rate monitor: an exponentially weighted moving
 * average of ECC error events per access, one accumulator per bank.
 * When a bank's EWMA crosses the raise threshold, the monitor signals
 * a standing boost-level raise (the closed-loop analog of the canary
 * controller's one-shot decision — see DESIGN.md §8). The EWMA resets
 * after a raise so the bank is re-observed at its new level instead of
 * being dragged up by stale history.
 */

#ifndef VBOOST_RESILIENCE_MONITOR_HPP
#define VBOOST_RESILIENCE_MONITOR_HPP

#include <array>
#include <cstdint>
#include <vector>

namespace vboost::resilience {

/**
 * EWMA error-rate tracker with a raise trigger, one slot per bank.
 *
 * Every result is bitwise the one of an eager EWMA that applies
 * `e = (1 - alpha) * e + (error ? alpha : 0)` per access, but the
 * decay chain is paid lazily: a bank keeps its exact EWMA as of its
 * last settle, a bounded log of the error accesses since then (the
 * clean decays before each), and a rigorous upper bound of the current
 * EWMA. An error access replays the log exactly only when the bound
 * could cross the threshold (DESIGN.md §8, "Monitor").
 *
 * Like the ResilientMemory that owns it, a monitor is driven by one
 * thread at a time. rate() replays into a local and changes nothing.
 */
class BankErrorMonitor
{
  public:
    /**
     * @param num_banks banks tracked.
     * @param alpha EWMA smoothing factor in (0, 1].
     * @param raise_threshold EWMA value that triggers a raise.
     */
    BankErrorMonitor(int num_banks, double alpha, double raise_threshold);

    /**
     * Record one access. @return true when this observation pushes the
     * bank's EWMA over the raise threshold (the EWMA is then reset so
     * the next raise needs fresh evidence at the new level).
     */
    bool recordAccess(int bank, bool error);

    /**
     * Record n error-free accesses of a bank: the EWMA and the access
     * count end exactly as n recordAccess(bank, false) calls leave them.
     * None of those raises: every recordAccess leaves the EWMA at or
     * below the threshold, and an error-free access only shrinks it.
     * Costs a few multiplies of the bound, whatever n.
     */
    void recordCleanAccesses(int bank, std::uint64_t n);

    /** Current EWMA error rate of a bank. */
    double rate(int bank) const;

    /** Raises signalled so far (across all banks). */
    std::uint64_t raises() const { return raises_; }

    /** Accesses recorded so far (across all banks). */
    std::uint64_t accesses() const { return accesses_; }

    /** Forget all history (fresh Monte-Carlo map). */
    void reset();

  private:
    /** Error accesses a bank logs between settles; one more settles. */
    static constexpr std::size_t kMaxLog = 128;

    struct Bank
    {
        /** Exact EWMA as of the last settle. */
        double settled = 0.0;
        /** Upper bound of the current EWMA; equal to it while the
         *  bank is exact (empty log, no pending decays). */
        double hi = 0.0;
        /** Clean decays since the last logged error access. */
        std::uint64_t pending = 0;
        /** Clean decays before each error access since the settle. */
        std::vector<std::uint16_t> log;

        bool exact() const { return pending == 0 && log.empty(); }
    };

    /** bank as an index into banks_; panics when out of range. */
    std::size_t index(int bank) const;
    /** e after n exact decays (stops once a decay leaves e as is). */
    double decay(double e, std::uint64_t n) const;
    /** The bank's exact current EWMA, replayed from its log. */
    double replay(const Bank &b) const;
    /** An upper bound of n decays of any EWMA at or below hi. */
    double decayBound(double hi, std::uint64_t n) const;

    double alpha_;
    double threshold_;
    /** The decay factor 1 - alpha. */
    double keep_;
    /** keepPow_[i] >= keep'^(2^i), keep' = keep rounded up by one ulp
     *  (keep' >= keep * (1 + 2^-53), the most a rounded product can
     *  exceed its exact value by above the subnormals). */
    std::array<double, 64> keepPow_{};
    std::vector<Bank> banks_;
    std::uint64_t raises_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace vboost::resilience

#endif // VBOOST_RESILIENCE_MONITOR_HPP
