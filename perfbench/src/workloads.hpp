/**
 * @file
 * The benchmark's three workloads. Each is a closed-loop batch job —
 * every call into the simulator waits for the previous one — run at a
 * fixed worker-thread count, with all inputs (datasets, fault-map
 * seeds, the Poisson trace) derived from the workload seed:
 *
 *  - fig14_mc:      Monte-Carlo fault injection on the cached 5-conv
 *                   AlexNet-CIFAR over a geometric failure-probability
 *                   grid, fresh unprotected maps per trial.
 *  - serve_cluster: the cached MNIST FC served by a 4-shard, 3-replica
 *                   ServingCluster, one routing epoch per run() call
 *                   ("window"), node 0 lost at epoch 1.
 *  - matic_train:   MATIC frozen-map training, then fault-aware training
 *                   with fresh per-batch maps, then a chip evaluation of
 *                   the MATIC model — all at the 0.454 V deployment rate.
 *
 * A workload is built once per set-up (loading models, building
 * datasets and traces, fitting the planner's curve), then runs timed
 * units — a grid sweep, a window replay, a training round — each of
 * which checks its output digests.
 */

#ifndef VBOOST_PERFBENCH_WORKLOADS_HPP
#define VBOOST_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"

namespace vboost::perfbench {

/** Workload names in the order the benchmark lists them. */
const std::vector<std::string> &workloadNames();

/** Independent sub-seed `stream` of the workload seed (§7 split). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Items attempted and failed (thrown or digest mismatch) by a unit. */
struct UnitOutcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Work items (points, windows, trainer runs) one unit attempts. */
    virtual std::size_t itemsPerUnit() const = 0;

    /**
     * Run one timed unit. Wraps each call into the simulator in a span
     * of `rec` and checks each item's digest with `chk`.
     */
    virtual UnitOutcome runUnit(SpanRecorder &rec, DigestChecker &chk) = 0;

    /**
     * The end-to-end metrics of the units run so far (all but setup_s
     * and peak_rss_mb), plus human-readable lines with the workload's
     * own names for them and its modeled-only figures.
     */
    virtual void endToEnd(Metrics &m, std::vector<std::string> &notes) const = 0;

    /** Per-layer metrics the workload measures on its own calls and
     *  stats (the rest come from the probes). */
    virtual void perLayer(const SpanRecorder &rec, Metrics &m) const = 0;

    /** The workload's model and inputs for the layer probes. */
    virtual ProbeInputs probeInputs() = 0;
};

/**
 * Set up workload `name` for `seed`, loading trained models from the
 * cache in `cache_dir` (FatalError when the cache is cold).
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &cache_dir);

} // namespace vboost::perfbench

#endif // VBOOST_PERFBENCH_WORKLOADS_HPP
