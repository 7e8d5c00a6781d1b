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

#include <cstdint>
#include <vector>

namespace vboost::resilience {

/** EWMA error-rate tracker with a raise trigger, one slot per bank. */
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
     * count end exactly as n recordAccess(bank, false) calls leave them
     * when none of those raises. None does: every recordAccess leaves
     * the EWMA at or below the threshold, and an error-free access only
     * shrinks it. The decay stops early once the EWMA reaches 0. The
     * threshold is still checked after the decay, with recordAccess's
     * reset and return value.
     */
    bool recordCleanAccesses(int bank, std::uint64_t n);

    /** Current EWMA error rate of a bank. */
    double rate(int bank) const;

    /** Raises signalled so far (across all banks). */
    std::uint64_t raises() const { return raises_; }

    /** Accesses recorded so far (across all banks). */
    std::uint64_t accesses() const { return accesses_; }

    /** Forget all history (fresh Monte-Carlo map). */
    void reset();

  private:
    double alpha_;
    double threshold_;
    std::vector<double> ewma_;
    std::uint64_t raises_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace vboost::resilience

#endif // VBOOST_RESILIENCE_MONITOR_HPP
