/**
 * @file
 * Closed form of a run of identical floating-point adds. An energy
 * counter charged n times the same per-access energy ends where n
 * sequential `x += a` leave it; within one binade of x every one of
 * those adds moves x by the same number of ulps, so a whole run is one
 * integer step on the significand (DESIGN.md §8, "Fast path").
 */

#ifndef VBOOST_COMMON_REPEATED_ADD_HPP
#define VBOOST_COMMON_REPEATED_ADD_HPP

#include <cstdint>

namespace vboost {

/**
 * The value of x after n sequential `x += a` in round-to-nearest-even
 * double arithmetic, bit for bit, for any x, a and n. The common case
 * (x positive and normal, a non-negative and below x's binade, the run
 * staying inside x's binade) costs a few integer operations; ties at
 * an odd significand, binade crossings, x = 0 or subnormal, and a not
 * below x's binade take real adds until the closed form applies again.
 */
double repeatedAdd(double x, double a, std::uint64_t n);

} // namespace vboost

#endif // VBOOST_COMMON_REPEATED_ADD_HPP
