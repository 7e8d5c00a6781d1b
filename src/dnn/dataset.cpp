#include "dnn/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hpp"

namespace vboost::dnn {

Dataset
Dataset::slice(std::size_t begin, std::size_t count) const
{
    if (begin + count > size())
        fatal("Dataset::slice: range [", begin, ",", begin + count,
              ") exceeds size ", size());
    std::vector<std::size_t> idx(count);
    for (std::size_t i = 0; i < count; ++i)
        idx[i] = begin + i;
    return gather(idx);
}

Dataset
Dataset::gather(const std::vector<std::size_t> &indices) const
{
    const std::size_t row =
        images.numel() / static_cast<std::size_t>(images.dim(0));
    std::vector<int> shape = images.shape();
    shape[0] = static_cast<int>(indices.size());
    Dataset out;
    out.images = Tensor(shape);
    out.labels.resize(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::size_t src = indices[i];
        if (src >= size())
            fatal("Dataset::gather: index ", src, " out of range");
        std::memcpy(out.images.data() + i * row, images.data() + src * row,
                    row * sizeof(float));
        out.labels[i] = labels[src];
    }
    return out;
}

namespace {

/**
 * Class prototypes are smooth random fields: a sum of a few random
 * 2-D cosine modes whose coefficients are derived from the class id.
 * Distinct classes get well-separated prototypes; intra-class samples
 * jitter around the prototype.
 */
class PrototypeField
{
  public:
    PrototypeField(int class_id, int channel, int modes)
    {
        Rng rng(0xc1a55ull * 1315423911ull ^
                (static_cast<std::uint64_t>(class_id) << 16) ^
                static_cast<std::uint64_t>(channel));
        for (int m = 0; m < modes; ++m) {
            Mode mode;
            mode.fx = rng.uniform(0.5, 3.0);
            mode.fy = rng.uniform(0.5, 3.0);
            mode.px = rng.uniform(0.0, 2.0 * M_PI);
            mode.py = rng.uniform(0.0, 2.0 * M_PI);
            mode.amp = rng.uniform(0.4, 1.0);
            modes_.push_back(mode);
        }
    }

    /** Field value at normalized coordinates (u, v) in [0, 1]. */
    double
    value(double u, double v) const
    {
        double acc = 0.0;
        for (const auto &m : modes_) {
            acc += m.amp * std::cos(2.0 * M_PI * m.fx * u + m.px) *
                   std::cos(2.0 * M_PI * m.fy * v + m.py);
        }
        return acc;
    }

  private:
    struct Mode
    {
        double fx, fy, px, py, amp;
    };
    std::vector<Mode> modes_;
};

/** Clamp to the valid pixel range. */
float
clampPixel(double v)
{
    return static_cast<float>(std::clamp(v, 0.0, 1.0));
}

Dataset
makeSynthetic(int n, std::uint64_t seed, const SyntheticConfig &cfg,
              int channels, int side, int modes)
{
    if (n <= 0)
        fatal("makeSynthetic: sample count must be positive, got ", n);
    if (cfg.classes < 2)
        fatal("makeSynthetic: at least two classes required");

    // Prototype pixel grids per class/channel, rendered once.
    std::vector<std::vector<float>> protos(
        static_cast<std::size_t>(cfg.classes * channels));
    for (int cls = 0; cls < cfg.classes; ++cls) {
        for (int ch = 0; ch < channels; ++ch) {
            PrototypeField field(cls, ch, modes);
            auto &grid = protos[static_cast<std::size_t>(
                cls * channels + ch)];
            grid.resize(static_cast<std::size_t>(side * side));
            for (int i = 0; i < side; ++i) {
                for (int j = 0; j < side; ++j) {
                    const double u = (i + 0.5) / side;
                    const double v = (j + 0.5) / side;
                    // Map the smooth field through a soft threshold to
                    // get glyph-like bright strokes on dark background.
                    const double raw = field.value(u, v);
                    const double pix = 1.0 / (1.0 + std::exp(-4.0 * raw));
                    grid[static_cast<std::size_t>(i * side + j)] =
                        clampPixel(pix);
                }
            }
        }
    }

    Dataset ds;
    if (channels == 1)
        ds.images = Tensor({n, side * side});
    else
        ds.images = Tensor({n, channels, side, side});
    ds.labels.resize(static_cast<std::size_t>(n));

    Rng rng(seed);
    const std::size_t row_size =
        static_cast<std::size_t>(channels) * side * side;
    for (int s = 0; s < n; ++s) {
        const int cls = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(cfg.classes)));
        ds.labels[static_cast<std::size_t>(s)] = cls;
        const int shift_i = static_cast<int>(rng.uniformInt(
                                2 * cfg.maxShift + 1)) - cfg.maxShift;
        const int shift_j = static_cast<int>(rng.uniformInt(
                                2 * cfg.maxShift + 1)) - cfg.maxShift;
        float *dst = ds.images.data() + static_cast<std::size_t>(s) *
                                            row_size;
        for (int ch = 0; ch < channels; ++ch) {
            const auto &grid = protos[static_cast<std::size_t>(
                cls * channels + ch)];
            for (int i = 0; i < side; ++i) {
                for (int j = 0; j < side; ++j) {
                    const int si = std::clamp(i + shift_i, 0, side - 1);
                    const int sj = std::clamp(j + shift_j, 0, side - 1);
                    double pix = grid[static_cast<std::size_t>(
                        si * side + sj)];
                    pix += rng.normal(0.0, cfg.noiseSigma);
                    if (cfg.dropoutProb > 0.0 &&
                        rng.bernoulli(cfg.dropoutProb)) {
                        pix = 0.0;
                    }
                    dst[static_cast<std::size_t>(ch) * side * side +
                        static_cast<std::size_t>(i * side + j)] =
                        clampPixel(pix);
                }
            }
        }
    }
    return ds;
}

} // namespace

Dataset
makeSyntheticMnist(int n, std::uint64_t seed, const SyntheticConfig &cfg)
{
    return makeSynthetic(n, seed, cfg, /*channels=*/1, /*side=*/28,
                         /*modes=*/3);
}

Dataset
makeSyntheticCifar(int n, std::uint64_t seed, const SyntheticConfig &cfg)
{
    return makeSynthetic(n, seed, cfg, /*channels=*/3, /*side=*/32,
                         /*modes=*/4);
}

} // namespace vboost::dnn
