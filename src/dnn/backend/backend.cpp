#include "dnn/backend/backend.hpp"

#include <atomic>

#include "common/logging.hpp"
#include "dnn/backend/impl.hpp"

namespace vboost::dnn {

void
Backend::gemm(const float *a, const float *b, float *c, int m, int k, int n,
              bool accumulate) const
{
    if (accumulate)
        panic("Backend::gemm: accumulate=true is not supported (a C "
              "holding -0.0 would break the bitwise contract)");
    gemmPanel(a, b, c, m, k, n, n, n);
}

std::uint64_t
Backend::applyFaultMapDequant(std::span<std::int16_t> words,
                              const FixedPointCodec &codec, float *out,
                              const sram::VulnerabilityMap &map,
                              const FaultWindow &win,
                              sram::FaultParams params, Rng &rng) const
{
    // Packed bit j of the window is visit j's cell, and bit j +
    // regionBits repeats it, so walking the window from visit 0 with
    // wrap at regionBits reads every visit right, however long.
    const bool faulty = params.failProb > 0.0 && params.flipProb > 0.0;
    const sram::PackedFaultMap window(
        map, win.regionBase, win.regionBits, win.startBit,
        faulty ? words.size() * 16ull : 0, faulty ? params.failProb : 0.0);
    return applyRegionImageDequant(words, codec, out, window, 0,
                                   faulty ? params.flipProb : 0.0, rng);
}

namespace detail {

float *
resizeFloats(std::vector<float> &buf, std::size_t n)
{
    buf.resize(n);
    return buf.data();
}

float *
threadScratch(std::size_t n)
{
    // Per-thread: the Monte-Carlo pool calls gemm from many workers at
    // once. The packed bytes are plain copies, never result state.
    thread_local std::vector<float> buf; // vblint: allow(VB004, per-thread packing scratch; packed bytes are plain copies, never result state)
    if (buf.size() < n)
        buf.resize(n);
    return buf.data();
}

} // namespace detail

std::vector<std::string_view>
availableBackends()
{
    std::vector<std::string_view> names{referenceBackend().name()};
    if (const Backend *v = detail::vectorizedBackendIfAvailable())
        names.push_back(v->name());
    return names;
}

const Backend *
findBackend(std::string_view name)
{
    if (name == "auto") {
        // Fastest available: the vectorized backend is bitwise-equal
        // to the reference, so preferring it never changes results.
        if (const Backend *v = detail::vectorizedBackendIfAvailable())
            return v;
        return &referenceBackend();
    }
    if (name == "reference")
        return &referenceBackend();
    if (name == "vectorized")
        return detail::vectorizedBackendIfAvailable();
    return nullptr;
}

namespace {

std::atomic<const Backend *> &
activeSlot()
{
    // Process-wide backend selection. Mutable global state is accepted
    // here under the set-before-threads contract: selection happens at
    // startup (flag parsing) before any worker pool exists, and every
    // backend is bitwise-identical anyway, so even a mid-run swap
    // could not change results — only speed.
    static std::atomic<const Backend *> slot{findBackend("auto")};
    return slot;
}

} // namespace

const Backend &
activeBackend()
{
    return *activeSlot().load(std::memory_order_acquire);
}

bool
setActiveBackend(std::string_view name)
{
    const Backend *b = findBackend(name);
    if (b == nullptr)
        return false;
    activeSlot().store(b, std::memory_order_release);
    return true;
}

} // namespace vboost::dnn
