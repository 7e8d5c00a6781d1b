/**
 * @file
 * Split training (DESIGN.md §12): one SGD batch's ops run on several
 * cores by splitting each op's OUTPUT into disjoint contiguous parts —
 * column panels of a forward GEMM's C (with its bias), row tiles of
 * dW, column panels of dX, element ranges of a ReLU, quantization or
 * update, packed-word ranges of a fault-map pack. Every output cell is
 * still computed by exactly one participant with its own ascending-k
 * chain, so results are bitwise independent of the participant count.
 *
 * dnn::runSgd installs a SplitScope with TrainConfig::numThreads for
 * the length of a run; the ops it calls on that thread read the count
 * through splitParts(). Everything else — inference, Monte-Carlo
 * workers, pool helpers of a split op — sees 1 and runs the serial
 * code.
 */

#ifndef VBOOST_DNN_SPLIT_HPP
#define VBOOST_DNN_SPLIT_HPP

#include <cstddef>
#include <utility>
#include <vector>

#include "dnn/backend/backend.hpp"

namespace vboost::dnn {

/** Participants this thread's training ops may split across: the
 *  innermost SplitScope's count, 1 outside any scope. */
unsigned splitParticipants();

/** Installs a participant count on this thread for its lifetime. */
class SplitScope
{
  public:
    explicit SplitScope(unsigned participants);
    ~SplitScope();
    SplitScope(const SplitScope &) = delete;
    SplitScope &operator=(const SplitScope &) = delete;

  private:
    unsigned saved_;
};

/**
 * Parts to split an op over: splitParticipants(), capped so each part
 * gets at least `min_work` of the op's `work` units (small ops stay
 * serial; a split costs a pool round trip).
 */
unsigned splitParts(std::size_t work, std::size_t min_work);

/** Multiply-adds a split GEMM gives each part at least: below that
 *  the pool round trip costs more than the part's share saves. */
inline constexpr std::size_t kMinMacsPerPart = std::size_t{1} << 20;

/** Elements an element-wise split op gives each part at least. */
inline constexpr std::size_t kMinElemsPerPart = std::size_t{1} << 16;

/** splitParts() for an m x k x n GEMM. */
unsigned gemmParts(int m, int k, int n);

/**
 * Part `part` of [0, n) cut into `parts` contiguous ranges whose
 * inner bounds are multiples of `grain`: [begin, end).
 */
std::pair<std::size_t, std::size_t> partRange(std::size_t n, unsigned parts,
                                              unsigned part,
                                              std::size_t grain = 1);

/**
 * backend.gemm() split into `parts` column panels of C (multiples of
 * the widest micro-kernel's 32 columns). A non-null `bias` ([n]) is
 * then added to every row, each part adding its own columns — the
 * same one add per cell as a bias loop after the GEMM.
 */
void gemmSplit(const Backend &backend, unsigned parts, const float *a,
               const float *b, float *c, int m, int k, int n,
               const float *bias = nullptr);

/** backend.gemmTransA() split into `parts` row tiles of C. */
void gemmTransASplit(const Backend &backend, unsigned parts, const float *a,
                     const float *b, float *c, int m, int k, int n,
                     bool accumulate);

/** backend.gemmTransB() split into `parts` column panels of C; each
 *  part transposes only its rows of B into its own scratch[part]
 *  (resized to `parts` entries). */
void gemmTransBSplit(const Backend &backend, unsigned parts, const float *a,
                     const float *b, float *c, int m, int k, int n,
                     bool accumulate,
                     std::vector<std::vector<float>> &scratch);

} // namespace vboost::dnn

#endif // VBOOST_DNN_SPLIT_HPP
