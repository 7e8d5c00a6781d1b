#include "resilience/monitor.hpp"

#include "common/logging.hpp"

namespace vboost::resilience {

BankErrorMonitor::BankErrorMonitor(int num_banks, double alpha,
                                   double raise_threshold)
    : alpha_(alpha), threshold_(raise_threshold),
      ewma_(static_cast<std::size_t>(num_banks), 0.0)
{
    if (num_banks < 1)
        fatal("BankErrorMonitor: at least one bank required");
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("BankErrorMonitor: alpha must be in (0,1], got ", alpha);
    if (raise_threshold <= 0.0)
        fatal("BankErrorMonitor: raise threshold must be positive");
}

bool
BankErrorMonitor::recordAccess(int bank, bool error)
{
    if (bank < 0 || bank >= static_cast<int>(ewma_.size()))
        panic("BankErrorMonitor: bank ", bank, " out of range");
    ++accesses_;
    double &e = ewma_[static_cast<std::size_t>(bank)];
    e = (1.0 - alpha_) * e + (error ? alpha_ : 0.0);
    if (e > threshold_) {
        e = 0.0;
        ++raises_;
        return true;
    }
    return false;
}

bool
BankErrorMonitor::recordCleanAccesses(int bank, std::uint64_t n)
{
    if (bank < 0 || bank >= static_cast<int>(ewma_.size()))
        panic("BankErrorMonitor: bank ", bank, " out of range");
    accesses_ += n;
    double &e = ewma_[static_cast<std::size_t>(bank)];
    // recordAccess adds 0.0 to the decayed EWMA, which is exact here:
    // the EWMA is never negative, so the product is +0 or positive.
    for (std::uint64_t i = 0; i < n && e != 0.0; ++i)
        e = (1.0 - alpha_) * e;
    if (e > threshold_) {
        e = 0.0;
        ++raises_;
        return true;
    }
    return false;
}

double
BankErrorMonitor::rate(int bank) const
{
    if (bank < 0 || bank >= static_cast<int>(ewma_.size()))
        panic("BankErrorMonitor: bank ", bank, " out of range");
    return ewma_[static_cast<std::size_t>(bank)];
}

void
BankErrorMonitor::reset()
{
    for (double &e : ewma_)
        e = 0.0;
    raises_ = 0;
    accesses_ = 0;
}

} // namespace vboost::resilience
