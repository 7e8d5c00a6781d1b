/**
 * @file
 * Byte-wise FNV-1a folds behind the repo's digests and fingerprints
 * (stats fingerprints, replay digests, hash-ring positions, model-cache
 * keys). Each fold XORs one byte into the state and multiplies by the
 * FNV prime; callers choose the seed and the byte sequence, and every
 * pinned digest depends on both, so neither may change.
 */

#ifndef VBOOST_COMMON_FNV_HPP
#define VBOOST_COMMON_FNV_HPP

#include <cstdint>
#include <cstring>
#include <string_view>

namespace vboost::fnv {

/** The 64-bit FNV prime. */
inline constexpr std::uint64_t kPrime = 1099511628211ull;

/** The standard 64-bit FNV offset basis (0xcbf29ce484222325). */
inline constexpr std::uint64_t kOffsetBasis = 14695981039346656037ull;

/** kOffsetBasis with its last decimal digit dropped: the seed most of
 *  the repo's digests were first written with. Not the standard basis,
 *  but the recorded digests depend on it. */
inline constexpr std::uint64_t kTruncatedBasis = 1469598103934665603ull;

/** Fold the low `bytes` bytes of `v` into `h`, least significant
 *  first. */
inline void
mixU64(std::uint64_t &h, std::uint64_t v, int bytes = 8)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= kPrime;
    }
}

/** Fold a double's raw bits into `h` (8 bytes, little-endian). */
inline void
mixDouble(std::uint64_t &h, double d)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof bits);
    mixU64(h, bits);
}

/** Fold the bytes of `s` into `h` in order (no length). */
inline void
mixBytes(std::uint64_t &h, std::string_view s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= kPrime;
    }
}

} // namespace vboost::fnv

#endif // VBOOST_COMMON_FNV_HPP
