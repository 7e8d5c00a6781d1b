/**
 * @file
 * The vectorized backend's forward GEMM and gemmTransA, written once
 * over vector width (DESIGN.md §12). Only the SIMD translation units
 * include this header: vectorized.cpp instantiates it with AVX2
 * traits and vectorized512.cpp with AVX-512 traits, each declared in
 * the TU's own anonymous namespace. A traits struct supplies:
 *  - `Vec`, the register type, and `W`, its float lanes;
 *  - `load`, `store`, `set1`, `add`, `mul` (unaligned memory, no FMA);
 *  - `Mask`, with `mask(cols)` selecting lanes [0, cols) for
 *    1 <= cols <= W, and `maskLoad`/`maskStore`, which touch only the
 *    selected lanes in memory;
 *  - `MR`, the rows of the forward register tile, and `NC`/`KC`, the
 *    forward GEMM's column and k cache blocks.
 *
 * Bitwise contract: every C cell adds its products one at a time in
 * ascending k, multiply and add as separate instructions (the
 * including TUs are also built with -ffp-contract=off). SIMD lanes
 * run different cells, never one cell's chain, and C re-loads its
 * partial sums between k blocks.
 *
 * Everything here, like each traits struct, has internal linkage: a
 * helper with external linkage would be a weak symbol in both SIMD
 * objects, and the linker could hand one ISA's callers the other's
 * copy (the simd_comdat check fails on any such shared symbol).
 *
 * The loops over tile rows and vectors carry `#pragma GCC unroll`: at
 * -O2 GCC keeps such constant-count loops rolled, and the accumulator
 * arrays then live on the stack instead of in registers.
 */

#ifndef VBOOST_DNN_BACKEND_SIMD_GEMM_HPP
#define VBOOST_DNN_BACKEND_SIMD_GEMM_HPP

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>

#include "dnn/backend/impl.hpp"

namespace vboost::dnn::simd {
namespace {

/** Zero an m x n block of C whose rows are ldc floats apart. */
inline void
zeroRows(float *c, int m, int n, int ldc)
{
    for (int i = 0; i < m; ++i)
        std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                    sizeof(float) * static_cast<std::size_t>(n));
}

/**
 * The register tile both GEMMs run: R rows x V vectors of C, where
 * cell (r, col) adds a[r * lda + t] * brow(t)[col] for t = 0, 1, ...,
 * steps - 1, in that order. Rows of C are ldc floats apart. A masked
 * tile (V == 1) reads and writes only the `live` columns; other tiles
 * ignore `live`.
 */
template <class Isa, int R, int V, bool Masked, class BRow>
inline void
tile(const float *a, int lda, BRow brow, float *c, int ldc, int steps,
     typename Isa::Mask live = typename Isa::Mask{})
{
    using Vec = typename Isa::Vec;
    const auto load = [live](const float *p) {
        if constexpr (Masked)
            return Isa::maskLoad(live, p);
        else
            return Isa::load(p);
    };
    Vec acc[R][V];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            acc[r][v] =
                load(c + static_cast<std::size_t>(r) * ldc + v * Isa::W);
    for (int t = 0; t < steps; ++t) {
        const float *bt = brow(t);
        Vec bv[V];
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v)
            bv[v] = load(bt + v * Isa::W);
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            const Vec av =
                Isa::set1(a[static_cast<std::size_t>(r) * lda + t]);
#pragma GCC unroll 4
            for (int v = 0; v < V; ++v)
                acc[r][v] = Isa::add(acc[r][v], Isa::mul(av, bv[v]));
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
        float *crow = c + static_cast<std::size_t>(r) * ldc;
#pragma GCC unroll 4
        for (int v = 0; v < V; ++v) {
            if constexpr (Masked)
                Isa::maskStore(crow + v * Isa::W, live, acc[r][v]);
            else
                Isa::store(crow + v * Isa::W, acc[r][v]);
        }
    }
}

/** B rows `ld` floats apart from `b`, as tile() reads them. */
inline auto
rowsOf(const float *b, int ld)
{
    return [b, ld](int t) { return b + static_cast<std::size_t>(t) * ld; };
}

// ---------------------------------------------------------- forward

/**
 * R rows of one (column, k) block: R x 2W tiles over the full
 * 2W-column tiles, reading B from `pack` when it is non-null, then
 * masked W-column tiles over the rest.
 */
template <class Isa, int R>
inline void
forwardRows(const float *a, int lda, const float *b, int ldb,
            const float *pack, float *c, int ldc, int kb, int nb)
{
    constexpr int W = Isa::W;
    int j = 0;
    for (; j + 2 * W <= nb; j += 2 * W)
        tile<Isa, R, 2, false>(
            a, lda,
            pack != nullptr
                ? rowsOf(pack + static_cast<std::size_t>(j) * kb, 2 * W)
                : rowsOf(b + j, ldb),
            c + j, ldc, kb);
    for (; j < nb; j += W)
        tile<Isa, R, 1, true>(a, lda, rowsOf(b + j, ldb), c + j, ldc, kb,
                              Isa::mask(std::min(W, nb - j)));
}

/** forwardRows<Isa, rows>(args...), for a run-time 1 <= rows <= MR. */
template <class Isa, int... R, class... Args>
inline void
forwardRowsOf(int rows, std::integer_sequence<int, R...>, Args... args)
{
    (void)((rows == R + 1 && (forwardRows<Isa, R + 1>(args...), true)) ||
           ...);
}

/**
 * Copy the full 2W-column tiles of a kb-row B block into
 * tile-contiguous [tile][kk][2W] order in this thread's scratch, so a
 * tile streams consecutive rows instead of striding ldb floats (which
 * thrashes the DTLB once a row spans half a page). Plain copies.
 */
template <class Isa>
inline const float *
packPanel(const float *b, int ldb, int kb, int tiles)
{
    constexpr int NR = 2 * Isa::W;
    float *const pack =
        detail::threadScratch(static_cast<std::size_t>(tiles) * kb * NR);
    for (int t = 0; t < tiles; ++t)
        for (int kk = 0; kk < kb; ++kk)
            std::memcpy(pack + (static_cast<std::size_t>(t) * kb + kk) * NR,
                        b + static_cast<std::size_t>(kk) * ldb + t * NR,
                        sizeof(float) * NR);
    return pack;
}

/**
 * C[m,n] = A[m,k] B[k,n] from a zeroed C (Backend::gemmPanel), rows of
 * B and C ldb and ldc floats apart. Column blocks of NC keep a B panel
 * cache-resident while k blocks of KC stream through it. The panel is
 * packed only when at least two MR-row blocks reuse it and its rows
 * are at least 512 floats apart; narrower panels read fine in place.
 */
template <class Isa>
void
gemmForward(const float *a, const float *b, float *c, int m, int k, int n,
            int ldb, int ldc)
{
    constexpr int NR = 2 * Isa::W;
    zeroRows(c, m, n, ldc);
    for (int j0 = 0; j0 < n; j0 += Isa::NC) {
        const int nb = std::min(Isa::NC, n - j0);
        for (int k0 = 0; k0 < k; k0 += Isa::KC) {
            const int kb = std::min(Isa::KC, k - k0);
            const float *bblk = b + static_cast<std::size_t>(k0) * ldb + j0;
            const float *pack = m >= 2 * Isa::MR && ldb >= 512 && nb >= NR
                                    ? packPanel<Isa>(bblk, ldb, kb, nb / NR)
                                    : nullptr;
            for (int i0 = 0; i0 < m; i0 += Isa::MR)
                forwardRowsOf<Isa>(
                    std::min(Isa::MR, m - i0),
                    std::make_integer_sequence<int, Isa::MR>{},
                    a + static_cast<std::size_t>(i0) * k + k0, k, bblk, ldb,
                    pack, c + static_cast<std::size_t>(i0) * ldc + j0, ldc,
                    kb, nb);
        }
    }
}

// ------------------------------------------------------- transposed A

/**
 * C[m,n] (+)= A^T B, A [k x m] with rows lda floats apart
 * (Backend::gemmTransARows), i-outer over blocks of 256 columns and
 * 128 k. Per C row and k block, the k whose A[k,i] is non-zero are
 * compacted onto the stack branch-free: the reference's zero skip,
 * which matters because C may hold -0.0 (-0.0 + +0.0 is +0.0). NaN is
 * kept, as the reference's `aki == 0.0f` is false for it. One-row
 * tiles of 4W, then 2W, then masked W columns add exactly those
 * products.
 */
template <class Isa>
void
gemmTransA(const float *a, const float *b, float *c, int m, int k, int n,
           int lda, bool accumulate)
{
    constexpr int W = Isa::W;
    constexpr int kCols = 256;
    constexpr int kDepth = 128;
    if (!accumulate)
        zeroRows(c, m, n, n);
    int idx[kDepth];
    float val[kDepth];
    for (int j0 = 0; j0 < n; j0 += kCols) {
        const int jend = std::min(n, j0 + kCols);
        for (int k0 = 0; k0 < k; k0 += kDepth) {
            const int kb = std::min(kDepth, k - k0);
            for (int i = 0; i < m; ++i) {
                int cnt = 0;
                for (int t = 0; t < kb; ++t) {
                    const float v =
                        a[static_cast<std::size_t>(k0 + t) * lda + i];
                    idx[cnt] = k0 + t;
                    val[cnt] = v;
                    cnt += v != 0.0f;
                }
                if (cnt == 0)
                    continue;
                float *crow = c + static_cast<std::size_t>(i) * n;
                int j = j0;
                const auto brow = [b, n, &idx, &j](int t) {
                    return b + static_cast<std::size_t>(idx[t]) * n + j;
                };
                for (; j + 4 * W <= jend; j += 4 * W)
                    tile<Isa, 1, 4, false>(val, 0, brow, crow + j, 0, cnt);
                for (; j + 2 * W <= jend; j += 2 * W)
                    tile<Isa, 1, 2, false>(val, 0, brow, crow + j, 0, cnt);
                for (; j < jend; j += W)
                    tile<Isa, 1, 1, true>(val, 0, brow, crow + j, 0, cnt,
                                          Isa::mask(std::min(W, jend - j)));
            }
        }
    }
}

} // namespace
} // namespace vboost::dnn::simd

#endif // VBOOST_DNN_BACKEND_SIMD_GEMM_HPP
