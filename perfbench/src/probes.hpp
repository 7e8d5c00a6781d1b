/**
 * @file
 * Layer probes of the traced run: after the traced workload units, the
 * workload's own model and inputs are replayed through the public
 * functions of the layers below it — fi staging, dnn forward/backward
 * and backend kernels, sram packing/ECC/fault queries, the resilient
 * read path, booster math, the planner, the performance model, the
 * hash ring and the recovery trainers/evaluator — each call wrapped in
 * a host-time span. A metric a workload already measures on its own
 * calls (e.g. fi.mc_point_s on fig14_mc) is not probed again.
 */

#ifndef VBOOST_PERFBENCH_PROBES_HPP
#define VBOOST_PERFBENCH_PROBES_HPP

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "accel/dataflow.hpp"
#include "common/units.hpp"
#include "dnn/dataset.hpp"
#include "dnn/network.hpp"
#include "harness.hpp"

namespace vboost::perfbench {

/** One GEMM shape C[m,n] = A[m,k] B[k,n] the workload's layers run. */
struct GemmShape
{
    int m = 0;
    int k = 0;
    int n = 0;
};

/** What the probes replay: the workload's model, inputs and operating
 *  points. */
struct ProbeInputs
{
    /** Trained model of the workload (never modified; probes clone). */
    dnn::Network *model = nullptr;
    /** The workload's inputs (test set, serving pool or training set). */
    const dnn::Dataset *data = nullptr;
    /** Batch size of the workload's forward calls. */
    int forwardBatch = 8;
    /** GEMM shapes of the workload's layers. */
    std::vector<GemmShape> gemmShapes;
    /** Per-inference dataflow activity of the model. */
    accel::LayerActivity activity;
    /** Accuracy vs weight-SRAM voltage (planner probe) and ceiling. */
    std::function<double(Volt)> accuracyAt;
    double faultFreeAccuracy = 0.0;
    /** (Vdd, weight boost level) points the resilient staging and read
     *  probes run at; the read probe uses the first. */
    std::vector<std::pair<Volt, int>> stageVdds;
    /** Bit failure probability of the fault-injection probes. */
    double failProb = 1e-3;
    /** Seed of the probes' fault maps and flip streams. */
    std::uint64_t seed = 1;
    /** Span names the workload already recorded on its own calls. */
    std::set<std::string> measured;
};

/**
 * Run every probe, recording spans into `rec` (which must be enabled)
 * and writing the derived per-layer metrics into `out`.
 */
void runProbes(const ProbeInputs &in, SpanRecorder &rec, Metrics &out);

/**
 * Every per-layer metric of a traced run as (name, unit) — the
 * per_layer list of BENCHMARK.json. A counter of a layer the workload
 * never reaches (the serving and cluster ratios outside serve_cluster)
 * reads 0.
 */
const std::vector<std::pair<std::string, std::string>> &perLayerMetricUnits();

} // namespace vboost::perfbench

#endif // VBOOST_PERFBENCH_PROBES_HPP
