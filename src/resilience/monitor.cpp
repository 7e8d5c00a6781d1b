#include "resilience/monitor.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hpp"

namespace vboost::resilience {

namespace {

/** The next double above v >= 0: above the exact value of any product
 *  that rounded to v. */
double
nextUp(double v)
{
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) + 1);
}

} // namespace

BankErrorMonitor::BankErrorMonitor(int num_banks, double alpha,
                                   double raise_threshold)
    : alpha_(alpha), threshold_(raise_threshold), keep_(1.0 - alpha)
{
    if (num_banks < 1)
        fatal("BankErrorMonitor: at least one bank required");
    if (alpha <= 0.0 || alpha > 1.0)
        fatal("BankErrorMonitor: alpha must be in (0,1], got ", alpha);
    if (raise_threshold <= 0.0)
        fatal("BankErrorMonitor: raise threshold must be positive");
    banks_.resize(static_cast<std::size_t>(num_banks));
    // A keep of exactly 1 (alpha below 2^-54) decays exactly.
    keepPow_[0] = keep_ < 1.0 ? nextUp(keep_) : 1.0;
    for (std::size_t i = 1; i < keepPow_.size(); ++i)
        keepPow_[i] =
            std::min(1.0, nextUp(keepPow_[i - 1] * keepPow_[i - 1]));
}

std::size_t
BankErrorMonitor::index(int bank) const
{
    if (bank < 0 || bank >= static_cast<int>(banks_.size()))
        panic("BankErrorMonitor: bank ", bank, " out of range");
    return static_cast<std::size_t>(bank);
}

double
BankErrorMonitor::decay(double e, std::uint64_t n) const
{
    // An error-free access adds 0.0 to the decayed EWMA, which is
    // exact: the EWMA is never negative, so the product is +0 or
    // positive. Once a decay leaves e as is (0, or a subnormal the
    // rounding holds), every later one does too.
    for (; n > 0; --n) {
        const double next = keep_ * e;
        if (next == e)
            break;
        e = next;
    }
    return e;
}

double
BankErrorMonitor::replay(const Bank &b) const
{
    double e = b.settled;
    for (const std::uint16_t decays : b.log)
        e = keep_ * decay(e, decays) + alpha_;
    return decay(e, b.pending);
}

double
BankErrorMonitor::decayBound(double hi, std::uint64_t n) const
{
    // A rounded product of normals exceeds the exact one by at most a
    // factor 1 + 2^-53 <= keep' / keep, so n decays of an EWMA at or
    // below hi end at or below keep'^n * hi, rounded up here; a
    // product below the smallest normal rounds to at most that normal.
    for (; n != 0; n &= n - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(n));
        hi = nextUp(hi * keepPow_[bit]);
    }
    return std::max(hi, std::numeric_limits<double>::min());
}

bool
BankErrorMonitor::recordAccess(int bank, bool error)
{
    Bank &b = banks_[index(bank)];
    ++accesses_;
    if (!error) {
        // The exact decay while the bank is exact, else a bound of it
        // (rounding is monotone).
        b.hi = keep_ * b.hi;
        if (b.exact())
            b.settled = b.hi;
        else
            ++b.pending;
        return false;
    }
    // The same step on the bound bounds the new EWMA: if it stays at or
    // below the threshold, so does the EWMA, and the access is logged.
    const double bound = keep_ * b.hi + alpha_;
    if (!b.exact() && bound <= threshold_ && b.log.size() < kMaxLog &&
        b.pending <= std::numeric_limits<std::uint16_t>::max()) {
        b.log.push_back(static_cast<std::uint16_t>(b.pending));
        b.pending = 0;
        b.hi = bound;
        return false;
    }
    double e = b.exact() ? bound : keep_ * replay(b) + alpha_;
    b.log.clear();
    b.pending = 0;
    const bool raise = e > threshold_;
    if (raise) {
        e = 0.0;
        ++raises_;
    }
    b.settled = e;
    b.hi = e;
    return raise;
}

void
BankErrorMonitor::recordCleanAccesses(int bank, std::uint64_t n)
{
    Bank &b = banks_[index(bank)];
    accesses_ += n;
    // At a zero bound the EWMA is 0 and stays there.
    if (n == 0 || b.hi == 0.0)
        return;
    b.pending += n;
    b.hi = decayBound(b.hi, n);
}

double
BankErrorMonitor::rate(int bank) const
{
    const Bank &b = banks_[index(bank)];
    return b.exact() ? b.hi : replay(b);
}

void
BankErrorMonitor::reset()
{
    for (Bank &b : banks_) {
        b.settled = 0.0;
        b.hi = 0.0;
        b.pending = 0;
        b.log.clear();
    }
    raises_ = 0;
    accesses_ = 0;
}

} // namespace vboost::resilience
