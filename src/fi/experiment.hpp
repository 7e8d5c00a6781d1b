/**
 * @file
 * Monte-Carlo accuracy experiments (paper Sec. 5.1): for each
 * operating point, generate N independent fault maps, corrupt the
 * network/inputs under each, evaluate inference accuracy on the test
 * set, and report the mean (the paper averages 100 maps). The voltage
 * sweep variant converts voltages to failure probabilities through a
 * FailureRateModel first — exactly the pipeline of Fig. 11.
 *
 * Execution model: fault maps are evaluated in parallel on the shared
 * work-stealing pool. Each worker slot owns a scratch-network clone,
 * each map m keeps its counter-based seed (VulnerabilityMap(seed, m)
 * and Rng::split), and per-map statistics are reduced in map order
 * with RunningStats::merge — so results are bitwise identical for any
 * thread count, including the serial numThreads = 1 path.
 */

#ifndef VBOOST_FI_EXPERIMENT_HPP
#define VBOOST_FI_EXPERIMENT_HPP

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "resilience/policy.hpp"
#include "resilience/resilient_memory.hpp"
#include "sram/failure_model.hpp"
#include "timing/replay_policy.hpp"
#include "timing/speculative_datapath.hpp"
#include "timing/timing_model.hpp"

namespace vboost::fi {

/** Monte-Carlo experiment configuration. */
struct ExperimentConfig
{
    /** Independent fault maps per operating point (paper: 100). */
    int numMaps = 20;
    /** Base seed; map m uses VulnerabilityMap(seed, m). */
    std::uint64_t seed = 42;
    /** Test samples evaluated per map (0 = whole test set). */
    std::size_t maxTestSamples = 400;
    /** Cell layout of the modeled memories. */
    MemoryLayout layout;
    /** Worker threads for the Monte-Carlo loops
     *  (0 = hardware_concurrency, 1 = serial). Any value produces
     *  bitwise identical results. */
    int numThreads = 0;
    /** Spatial structure of the fault maps (MoRS-lite clustering vs
     *  the i.i.d. baseline). */
    sram::MapModel mapModel = sram::MapModel::Iid;
    /** Defect-process parameters under MapModel::Clustered. */
    sram::ClusterParams cluster;
};

/** Logic-side timing-fault configuration (DESIGN.md §13). */
struct TimingInjection
{
    /** PE pipeline structure / path-slack parameters. */
    timing::TimingParams params;
    /** Replay + escalation policy. */
    timing::ReplayPolicy policy = timing::ReplayPolicy::razor();
    /** Initial standing logic voltage. */
    Volt vLogic{0.36};
    /** Target datapath clock (the speculative clock). */
    Hertz clock{50e6};
};

/** Accuracy statistics at one operating point. */
struct AccuracyPoint
{
    /** Supply voltage (0 when swept by failure probability). */
    Volt voltage{0.0};
    /** Bit failure probability applied. */
    double failProb = 0.0;
    /** Mean accuracy across fault maps. */
    double meanAccuracy = 0.0;
    /** Stddev of accuracy across fault maps. */
    double stddevAccuracy = 0.0;
    /** Worst map. */
    double minAccuracy = 0.0;
    /** Best map. */
    double maxAccuracy = 0.0;
    /** Mean bit flips applied per map. */
    double meanBitFlips = 0.0;
};

/** Accuracy plus resilience-pipeline accounting at one voltage. */
struct ResilientAccuracyPoint
{
    /** Accuracy statistics (meanBitFlips = residual flips that reach
     *  inference after correction and retries). */
    AccuracyPoint point;
    /** Pipeline counters summed across maps (digests chain in map
     *  order). */
    resilience::ResilienceStats stats;
    /** Mean per-map SRAM energy: bank access + boost + spare rows. */
    Joule meanAccessEnergy{0.0};
    /** Mean per-map latency added by retry attempts. */
    Second meanRetryLatency{0.0};
};

/** Accuracy plus timing-speculation accounting at one V_logic. */
struct TimingAccuracyPoint
{
    /** Accuracy statistics (voltage = the logic rail; failProb = the
     *  per-op violation probability at the initial rail). */
    AccuracyPoint point;
    /** Datapath counters summed across maps (replay digests chain in
     *  map order). */
    timing::TimingStats stats;
    /** Mean per-map datapath dynamic energy (all issues). */
    Joule meanLogicEnergy{0.0};
    /** Mean per-map latency added by replays and recovery bubbles. */
    Second meanReplayLatency{0.0};
    /** Effective-period stretch (worst-case clocking only; 1.0 for a
     *  speculative policy). */
    double cycleStretch = 1.0;
    /** The safe fallback rail of the escalation ladder. */
    Volt safeVoltage{0.0};
};

/** Joint SRAM + timing fault injection at one (V_sram, V_logic). */
struct CombinedAccuracyPoint
{
    /** Accuracy statistics (voltage = the SRAM rail). */
    AccuracyPoint point;
    /** Resilient-SRAM pipeline counters, map-order merged. */
    resilience::ResilienceStats sram;
    /** Timing-datapath counters, map-order merged. */
    timing::TimingStats timing;
    /** Mean per-map SRAM energy (access + boost + spares). */
    Joule meanSramEnergy{0.0};
    /** Mean per-map datapath dynamic energy. */
    Joule meanLogicEnergy{0.0};
    /** Mean per-map retry latency (SRAM side). */
    Second meanRetryLatency{0.0};
    /** Mean per-map replay + bubble latency (logic side). */
    Second meanReplayLatency{0.0};
    /** Effective-period stretch of the datapath clock. */
    double cycleStretch = 1.0;
    /** Safe fallback rail of the escalation ladder. */
    Volt safeVoltage{0.0};
};

/**
 * Runs Monte-Carlo fault-injection accuracy experiments on a trained
 * network. Scratch networks are cloned internally (one per worker
 * thread); the caller's instance is never modified.
 */
class FaultInjectionRunner
{
  public:
    /**
     * @param net trained network (the golden parameter source; must
     *        outlive the runner).
     * @param test_set evaluation data.
     * @param cfg Monte-Carlo configuration.
     */
    FaultInjectionRunner(dnn::Network &net, const dnn::Dataset &test_set,
                         ExperimentConfig cfg = {});

    /** Fault-free accuracy (the ceiling): the network as a zero-rate
     *  run stages it, i.e. every weight through the int16 round trip
     *  with no faults (see corruptNetwork). */
    double baselineAccuracy();

    /** Monte-Carlo accuracy at one bit failure probability. */
    AccuracyPoint run(double fail_prob, const InjectionSpec &spec);

    /**
     * Monte-Carlo accuracy with a distinct failure probability per
     * weight layer (differential boost configurations of Table 2).
     */
    AccuracyPoint runPerLayer(const std::vector<double> &fail_by_layer,
                              double flip_prob = 0.5);

    /**
     * Monte-Carlo accuracy with SECDED ECC protecting the weight
     * storage (the ECC-vs-boosting ablation). Aggregated decode
     * statistics are returned through `stats` when non-null.
     */
    AccuracyPoint runWithEcc(double fail_prob, double flip_prob = 0.5,
                             sram::EccStats *stats = nullptr);

    /**
     * Monte-Carlo accuracy with the full resilient SRAM pipeline
     * (DESIGN.md §8): each map builds a fresh banked weight memory
     * wrapped in a ResilientMemory under `policy`, stages the weight
     * image through it at supply `vdd`, and evaluates on the decoded
     * read-back. policy.mode selects the open-loop baseline (single
     * decode, no reaction) or the closed loop (bounded retry with
     * boost escalation, standing raises, row sparing).
     */
    ResilientAccuracyPoint
    runResilient(Volt vdd, const core::SimContext &ctx,
                 const resilience::ResiliencePolicy &policy);

    /**
     * Monte-Carlo accuracy with *timing* faults only (DESIGN.md §13):
     * weights stage as a zero-rate run does (the int16 round trip; the
     * SRAM is clean), but every layer-output element is one op on a
     * timing-speculative datapath at `inj.vLogic`. Ops whose replay
     * budget exhausts commit a corrupted output (one deterministic bit
     * flip in the element's int16 representation). The datapath
     * evolves serially within a map (monitors, ladder), fresh per map.
     */
    TimingAccuracyPoint runTiming(const core::SimContext &ctx,
                                  const TimingInjection &inj);

    /**
     * Joint injection: SRAM faults through the resilient pipeline at
     * `v_sram` (as runResilient) plus timing faults on the datapath
     * (as runTiming), in the same inference.
     */
    CombinedAccuracyPoint
    runCombined(Volt v_sram, const core::SimContext &ctx,
                const resilience::ResiliencePolicy &policy,
                const TimingInjection &inj);

    /** Accuracy at a supply voltage (failure prob from the model). */
    AccuracyPoint runAtVoltage(Volt v, const sram::FailureRateModel &model,
                               const InjectionSpec &spec);

    /**
     * Sweep a list of voltages. Parallelizes over the full
     * (voltage x map) grid, so even a sweep of few voltages with few
     * maps each saturates the machine.
     */
    std::vector<AccuracyPoint>
    sweepVoltage(const std::vector<Volt> &voltages,
                 const sram::FailureRateModel &model,
                 const InjectionSpec &spec);

    const ExperimentConfig &config() const { return cfg_; }

    /**
     * Attach a metrics + trace sink (DESIGN.md §11). Every subsequent
     * experiment publishes per-trial spans (`fi.<kind>` on a virtual
     * trial clock under `trace_pid`), injection counters
     * (`fi.trials{kind=..}`, `fi.bit_flips`), per-trial accuracy
     * histograms and — for runResilient, runTiming and runCombined —
     * the merged ResilientMemory and datapath metrics. `labels` is
     * folded into every metric. All recording happens on the serial
     * reduction path in map order, so the output is thread-count
     * invariant (§7). Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o,
                             std::uint64_t trace_pid = 0,
                             obs::Labels labels = {});

  private:
    /** Outcome of evaluating one fault map. */
    struct MapResult
    {
        double accuracy = 0.0;
        std::uint64_t bitFlips = 0;
        sram::EccStats ecc;
        /** Resilient-pipeline counters (resilient staging only). */
        resilience::ResilienceStats res;
        /** Timing-datapath counters (timing evaluation only). */
        timing::TimingStats tim;
        /** Per-map SRAM energy incl. resilience (resilient staging
         *  only). */
        Joule resEnergy{0.0};
        /** Per-map metrics exports (resilient staging and timing
         *  evaluation with observability attached only); merged in map
         *  order. */
        obs::MetricsRegistry metrics;
    };

    /** The resilient-staging and timing-evaluation steps, each with
     *  its own reduction (defined in experiment.cpp). */
    struct ResilientStep;
    struct TimingStep;

    /**
     * The Monte-Carlo trial skeleton every experiment runs on: the
     * `fi.run{kind}` timer, `jobs` parallel calls evaluate(j, scratch,
     * result) with a worker-exclusive scratch clone, then recordTrials
     * and the map-order merge of the per-job metrics. Returns per-job
     * results in job order regardless of scheduling.
     */
    std::vector<MapResult> trials(
        const std::string &kind, std::size_t jobs,
        const std::function<void(std::size_t, dnn::Network &, MapResult &)>
            &evaluate);

    /** run over a (rate x map) job grid, maps innermost: one point per
     *  rate. */
    std::vector<AccuracyPoint> injectSweep(const std::string &kind,
                                           const std::vector<double> &rates,
                                           const InjectionSpec &spec);

    /** Stage net_ into `scratch` as a zero-rate run does: every
     *  weight through the int16 round trip, no faults. */
    void stageFaultFree(dnn::Network &scratch);

    /** Map-order (deterministic) reduction of per-map results. */
    static AccuracyPoint reduce(std::span<const MapResult> results,
                                double fail_prob,
                                sram::EccStats *stats = nullptr);

    /** Grow the per-worker scratch-clone pool to `count` networks. */
    void ensureScratch(unsigned count);

    /** Construct fault map m under cfg_.mapModel (§7 counter seeds). */
    sram::VulnerabilityMap makeMap(std::uint64_t m) const;

    /** Publish per-trial counters, accuracy histogram and spans for
     *  one experiment (serial, map order). */
    void recordTrials(const std::string &kind,
                      const std::vector<MapResult> &results);

    dnn::Network &net_;
    dnn::Dataset evalSet_;
    ExperimentConfig cfg_;
    /** One scratch clone per worker slot, created lazily. */
    std::vector<std::unique_ptr<dnn::Network>> scratch_;

    /** Optional metrics/trace sink (never owned). */
    obs::Observability *obs_ = nullptr;
    std::uint64_t obsPid_ = 0;
    obs::Labels obsLabels_;
    /** Virtual clock advanced one tick per recorded trial. */
    obs::VirtualClock trialClock_;
};

} // namespace vboost::fi

#endif // VBOOST_FI_EXPERIMENT_HPP
