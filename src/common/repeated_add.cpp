#include "common/repeated_add.hpp"

#include <bit>

namespace vboost {

namespace {

constexpr unsigned kFractionBits = 52;
constexpr std::uint64_t kHiddenBit = 1ull << kFractionBits;
constexpr std::uint64_t kFractionMask = kHiddenBit - 1;
/** Largest significand of a binade, 2^53 - 1. */
constexpr std::uint64_t kTopSignificand = 2 * kHiddenBit - 1;
/** Exponent field of infinities and NaNs. */
constexpr std::uint64_t kInfExponent = 0x7ff;

} // namespace

double
repeatedAdd(double x, double a, std::uint64_t n)
{
    const auto abits = std::bit_cast<std::uint64_t>(a);
    // Exponent field with the sign bit above it: a negative, infinite
    // or NaN a compares above every finite positive x's field.
    const std::uint64_t aexp = abits >> kFractionBits;
    // a = am * 2^(aexp' - 1075), aexp' = max(aexp, 1) (subnormal a).
    const std::uint64_t am =
        (abits & kFractionMask) | (aexp != 0 ? kHiddenBit : 0);
    const std::uint64_t aexp1 = aexp != 0 ? aexp : 1;
    while (n > 0) {
        const auto xbits = std::bit_cast<std::uint64_t>(x);
        const std::uint64_t xexp = xbits >> kFractionBits;
        if (xexp == 0 || xexp >= kInfExponent || aexp >= xexp) {
            x += a;
            --n;
            continue;
        }
        // x = m * u with u = ulp(x) and m in [2^52, 2^53), and
        // a / u = am / 2^s. While x + a stays in x's binade, the add
        // rounds to m + d with d = round(a / u).
        const std::uint64_t m = (xbits & kFractionMask) | kHiddenBit;
        const std::uint64_t s = xexp - aexp1;
        std::uint64_t d = 0; // s > 53: a / u < 1/2
        if (s <= 53) {
            d = am >> s;
            const std::uint64_t rem = am & ((1ull << s) - 1);
            const std::uint64_t half = s > 0 ? 1ull << (s - 1) : 0;
            if (s > 0 && rem == half) {
                // A tie rounds to the even neighbour: from an odd m
                // take one real add; from an even m, m + d stays even
                // for d = d0 rounded up to even.
                if (m & 1) {
                    x += a;
                    --n;
                    continue;
                }
                d += d & 1;
            } else if (rem > half) {
                ++d;
            }
        }
        if (d == 0)
            return x;
        const std::uint64_t room = kTopSignificand - m;
        std::uint64_t step = 0;
        if (!__builtin_mul_overflow(n, d, &step) && step <= room)
            return std::bit_cast<double>(xbits + step);
        // The run leaves the binade: the adds that stay inside, then
        // one real add across.
        const std::uint64_t inside = room / d;
        x = std::bit_cast<double>(xbits + inside * d);
        x += a;
        n -= inside + 1;
    }
    return x;
}

} // namespace vboost
