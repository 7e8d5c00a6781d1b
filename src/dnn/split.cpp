#include "dnn/split.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace vboost::dnn {

namespace {

/** This thread's split participant count. Per thread on purpose: a
 *  pool helper running one part of a split op sees 1, so nothing
 *  splits twice, and threads outside runSgd never split at all. */
unsigned &
participantsSlot()
{
    thread_local unsigned participants = 1; // vblint: allow(VB004, per-thread split scope set by runSgd; results are bitwise independent of it)
    return participants;
}

/** Column-panel grain of the forward GEMM: the AVX-512 micro-kernel's
 *  32 columns (a multiple of the AVX2 kernel's 16). */
constexpr std::size_t kPanelGrain = 32;

} // namespace

unsigned
splitParticipants()
{
    return participantsSlot();
}

SplitScope::SplitScope(unsigned participants) : saved_(participantsSlot())
{
    participantsSlot() = std::max(1u, participants);
}

SplitScope::~SplitScope()
{
    participantsSlot() = saved_;
}

unsigned
gemmParts(int m, int k, int n)
{
    return splitParts(static_cast<std::size_t>(m) *
                          static_cast<std::size_t>(k) *
                          static_cast<std::size_t>(n),
                      kMinMacsPerPart);
}

unsigned
splitParts(std::size_t work, std::size_t min_work)
{
    const std::size_t by_work = min_work == 0 ? work : work / min_work;
    const std::size_t parts =
        std::min<std::size_t>(splitParticipants(), by_work);
    return static_cast<unsigned>(std::max<std::size_t>(parts, 1));
}

std::pair<std::size_t, std::size_t>
partRange(std::size_t n, unsigned parts, unsigned part, std::size_t grain)
{
    const std::size_t grains = (n + grain - 1) / grain;
    const auto bound = [&](unsigned p) {
        return std::min(n, grains * p / parts * grain);
    };
    return {bound(part), bound(part + 1)};
}

namespace {

/** Add bias[j0, j1) to columns [j0, j1) of every row of C [m x n]. */
void
addBias(float *c, const float *bias, int m, int n, std::size_t j0,
        std::size_t j1)
{
    for (int i = 0; i < m; ++i) {
        float *row = c + static_cast<std::size_t>(i) * n;
        for (std::size_t j = j0; j < j1; ++j)
            row[j] += bias[j];
    }
}

} // namespace

void
gemmSplit(const Backend &backend, unsigned parts, const float *a,
          const float *b, float *c, int m, int k, int n, const float *bias)
{
    const auto cols = static_cast<std::size_t>(n);
    parts = std::min<unsigned>(
        parts, static_cast<unsigned>((cols + kPanelGrain - 1) / kPanelGrain));
    if (parts <= 1) {
        backend.gemmPanel(a, b, c, m, k, n, n, n);
        if (bias != nullptr)
            addBias(c, bias, m, n, 0, cols);
        return;
    }
    // Part p writes only its column panel of C; a, b and bias are
    // read-only.
    parallelFor(parts, static_cast<int>(parts),
                [&backend, parts, a, b, c, m, k, n, cols,
                 bias](std::size_t p, unsigned) {
                    const auto [j0, j1] = partRange(
                        cols, parts, static_cast<unsigned>(p), kPanelGrain);
                    backend.gemmPanel(a, b + j0, c + j0, m, k,
                                      static_cast<int>(j1 - j0), n, n);
                    if (bias != nullptr)
                        addBias(c, bias, m, n, j0, j1);
                });
}

void
gemmTransASplit(const Backend &backend, unsigned parts, const float *a,
                const float *b, float *c, int m, int k, int n,
                bool accumulate)
{
    const auto rows = static_cast<std::size_t>(m);
    parts = std::min<unsigned>(parts, static_cast<unsigned>(rows));
    if (parts <= 1) {
        backend.gemmTransA(a, b, c, m, k, n, accumulate);
        return;
    }
    // Part p writes only its row tile of C; a and b are read-only.
    parallelFor(parts, static_cast<int>(parts),
                [&backend, parts, a, b, c, m, k, n, rows,
                 accumulate](std::size_t p, unsigned) {
                    const auto [i0, i1] =
                        partRange(rows, parts, static_cast<unsigned>(p));
                    backend.gemmTransARows(
                        a + i0, b, c + i0 * static_cast<std::size_t>(n),
                        static_cast<int>(i1 - i0), k, n, m, accumulate);
                });
}

void
gemmTransBSplit(const Backend &backend, unsigned parts, const float *a,
                const float *b, float *c, int m, int k, int n,
                bool accumulate, std::vector<std::vector<float>> &scratch)
{
    const auto cols = static_cast<std::size_t>(n);
    parts = std::min<unsigned>(parts, static_cast<unsigned>(cols));
    if (scratch.size() < std::max(parts, 1u))
        scratch.resize(std::max(parts, 1u));
    if (parts <= 1) {
        backend.gemmTransB(a, b, c, m, k, n, accumulate, scratch[0]);
        return;
    }
    parallelFor(parts, static_cast<int>(parts),
                // vblint: allow(VB009, part p writes only its column panel of C and scratch[p]; a and b are read-only)
                [&backend, &scratch, parts, a, b, c, m, k, n, cols,
                 accumulate](std::size_t p, unsigned) {
                    const auto [j0, j1] =
                        partRange(cols, parts, static_cast<unsigned>(p));
                    backend.gemmTransBPanel(
                        a, b + j0 * static_cast<std::size_t>(k), c + j0, m,
                        k, static_cast<int>(j1 - j0), n, accumulate,
                        scratch[p]);
                });
}

} // namespace vboost::dnn
