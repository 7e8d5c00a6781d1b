/**
 * @file
 * Multi-tenant inference serving runtime (DESIGN.md §9). The
 * InferenceServer replays a request trace through the full pipeline:
 *
 *   bounded queue -> dynamic batcher -> operating-point planner
 *       -> worker pool (DanteChip through ResilientMemory)
 *       -> deterministic virtual worker slots -> per-request outcomes
 *
 * Execution follows the §7 determinism discipline: batch formation and
 * planner feedback are serial in trace/batch order, batch *execution*
 * fans out on the shared thread pool with per-slot scratch state and
 * per-batch counter-split RNG streams, and timing comes from a
 * deterministic FCFS post-pass over virtual worker slots — so
 * outcomes, stats and the stats fingerprint are bitwise identical at
 * any thread count. One region driver, InferenceServer::serveTogether,
 * runs these steps for one server (run()) or for a cluster's nodes at
 * once; the staging cache it stages through belongs to its caller.
 */

#ifndef VBOOST_SERVE_SERVER_HPP
#define VBOOST_SERVE_SERVER_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/dante.hpp"
#include "accel/dataflow.hpp"
#include "accel/perf_model.hpp"
#include "core/context.hpp"
#include "dnn/dataset.hpp"
#include "dnn/network.hpp"
#include "fi/injector.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "resilience/policy.hpp"
#include "resilience/resilient_memory.hpp"
#include "serve/batcher.hpp"
#include "serve/planner.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "sram/failure_model.hpp"
#include "sram/fault_map.hpp"

namespace vboost::serve {

/** Serving-runtime configuration. */
struct ServerConfig
{
    /** Bounded request-queue capacity. */
    std::size_t queueCapacity = 64;
    /** Per-tenant queue share (0 = disabled). */
    std::size_t perTenantQueueCap = 0;
    /** Batch-formation policy. */
    BatcherConfig batcher;
    /** Virtual worker slots batches are dispatched onto (models the
     *  accelerator service parallelism; part of the results). */
    int workerSlots = 4;
    /** Execution threads for batch evaluation (0 = all hardware
     *  threads). NEVER affects results, only wall-clock. */
    int numThreads = 0;
    /** Batches per planner-feedback epoch: plans are frozen for an
     *  epoch, executed in parallel, and the measured error rates are
     *  fed back serially in batch order between epochs. */
    int feedbackInterval = 4;
    /** Resilient SRAM access policy batches execute under (startLevel
     *  is overridden per batch by the planner's weight level). */
    resilience::ResiliencePolicy policy =
        resilience::ResiliencePolicy::closedLoop();
    /** Seed for the device fault map and per-batch RNG streams. */
    std::uint64_t seed = 42;
    /** Virtual-clock resolution (1e6 = microsecond ticks). */
    double ticksPerSecond = 1e6;
    /** Per-read flip probability of a faulty input-memory cell. */
    double inputFlipProb = 0.5;
    /** Chip geometry. */
    accel::DanteConfig chip;
    /** Execution resources of the performance model. */
    accel::PerfConfig perf;
    /** Cell layout of the modeled memories. */
    fi::MemoryLayout layout;

    /**
     * Throw FatalError unless the knobs are self-consistent: rejects
     * workerSlots <= 0, queueCapacity == 0, feedbackInterval < 1,
     * non-positive ticksPerSecond, and a policy that does not fit the
     * chip's boost-level range. Called by the InferenceServer
     * constructor; callers composing configs (the cluster tier) call
     * it directly to fail fast before building nodes.
     */
    void validate() const;
};

/** Everything one executed batch did and cost. */
struct BatchRecord
{
    std::uint64_t seq = 0;
    std::string tenant;
    SloClass slo = SloClass::Silver;
    std::size_t size = 0;
    /** Operating point the batch ran at. */
    OperatingPlan plan;

    Tick formedTick = 0;
    Tick startTick = 0;
    Tick completionTick = 0;
    /** Virtual worker slot the batch ran on. */
    int slot = 0;
    /** Modeled service time in ticks. */
    Tick serviceTicks = 0;

    /** Resilient-pipeline counters of the batch's weight staging. */
    resilience::ResilienceStats resilience;
    /** Word error rate the feedback loop observed:
     *  (reads - cleanReads) / reads. */
    double errorRate = 0.0;
    /** Residual weight-bit flips that reached inference. */
    std::uint64_t residualFlips = 0;

    /** Modeled total energy (dynamic + leakage) of the batch. */
    Joule modeledEnergy{0.0};
    /** Measured SRAM energy: bank access + boost + spare rows. */
    Joule sramEnergy{0.0};
    /** Per-bank boost energy (joules) of the batch's weight staging;
     *  counters reset per batch, so this is batch-local attribution. */
    std::vector<double> bankBoostEnergyJ;

    /** Per-request predictions / correctness, in request order. */
    std::vector<int> predictions;
    std::vector<bool> correct;
};

/** Per-tenant (and total) accounting. */
struct TenantStats
{
    std::uint64_t requests = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedTenantQuota = 0;
    std::uint64_t batches = 0;
    std::uint64_t inferences = 0;
    std::uint64_t correct = 0;
    std::uint64_t retries = 0;
    std::uint64_t escalations = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t uncorrected = 0;
    /** Modeled energy in picojoules. */
    double energyPj = 0.0;
    std::uint64_t queueWaitTicksSum = 0;
    std::uint64_t latencyTicksSum = 0;
    std::uint64_t maxLatencyTicks = 0;
    /** Planner ladder step the tenant ended the run on. */
    int finalVddStep = 0;

    /** Fold every counter (each field but finalVddStep) into the
     *  FNV-1a digest `h`, in declaration order. */
    void hashCounters(std::uint64_t &h) const;

    /** Add `other`'s counters to these (maxLatencyTicks takes the
     *  larger; finalVddStep is left as it is). */
    void addCounters(const TenantStats &other);

    friend bool operator==(const TenantStats &,
                           const TenantStats &) = default;
};

/** Snapshot of one run's accounting. */
struct ServerStats
{
    TenantStats total;
    std::map<std::string, TenantStats> perTenant;

    double meanBatchSize = 0.0;
    double p50LatencyTicks = 0.0;
    double p95LatencyTicks = 0.0;
    /** Fraction of served inferences predicted correctly. */
    double accuracy = 0.0;

    /**
     * FNV-1a digest over every field (including per-tenant entries in
     * map order). Two runs with equal fingerprints produced bitwise
     * identical accounting — the determinism acceptance check.
     */
    std::uint64_t fingerprint() const;

    friend bool operator==(const ServerStats &,
                           const ServerStats &) = default;
};

/** Full result of replaying one trace. */
struct ServeResult
{
    /** Per-request outcomes, in trace order. */
    std::vector<RequestOutcome> outcomes;
    /** Executed batches, in formation (seq) order. */
    std::vector<BatchRecord> batches;
    ServerStats stats;
};

/**
 * The serving runtime. Owns the planner, the per-worker scratch chips
 * and the staging image of the served network's weights with the slot
 * networks that stage it (a fi::StagedWeightsCache kept across run()
 * calls; the image is rebuilt only when the weights change). Borrows
 * the trained network and the sample pool (both must outlive the
 * server).
 *
 * All serving goes through serveTogether(), one region driver: run()
 * serves one trace on this server through its own cache; a cluster
 * serves its nodes' subtraces together through the cluster's cache.
 */
class InferenceServer
{
  public:
    /**
     * @param ctx shared study configuration.
     * @param net trained network served to all tenants.
     * @param pool labeled sample pool requests draw inputs from.
     * @param per_inference dataflow activity of one inference.
     * @param planner SLO -> operating point mapper (moved in).
     * @param cfg runtime configuration.
     */
    InferenceServer(const core::SimContext &ctx, dnn::Network &net,
                    const dnn::Dataset &pool,
                    accel::LayerActivity per_inference,
                    OperatingPointPlanner planner, ServerConfig cfg = {});

    /**
     * Replay a request trace (arrival ticks must be nondecreasing,
     * request ids unique, sample indices inside the pool) through the
     * whole pipeline. Resets no planner or worker-slot state between
     * calls, so successive runs continue the tenants' feedback
     * trajectories and the slots' carried backlog (see
     * resetWorkerBacklog()).
     */
    ServeResult run(const std::vector<InferenceRequest> &trace);

    /**
     * Serve `*traces[k]` on `servers[k]` for every k, together: begin
     * every run, then per feedback region plan each server's region in
     * server order, execute all their batches in one parallel region
     * of `num_threads` participants (0 = all hardware threads), and
     * feed the error rates back in server order; finally finish each
     * run in server order. Each server keeps its own planner, device
     * and clocks, so its result is what serving it alone would give
     * (bitwise, at any thread count). Every server must serve the same
     * network, and `staging` must hold the image of its current
     * weights (StagedWeightsCache::update()); the batches stage
     * through `staging`'s slot networks.
     * @return one result per server, in server order.
     */
    static std::vector<ServeResult>
    serveTogether(const std::vector<InferenceServer *> &servers,
                  const std::vector<const std::vector<InferenceRequest> *>
                      &traces,
                  fi::StagedWeightsCache &staging, int num_threads);

    const ServerConfig &config() const { return cfg_; }
    OperatingPointPlanner &planner() { return planner_; }
    /** The staging image and slot pool run() stages through. */
    const fi::StagedWeightsCache &staging() const { return staging_; }

    /**
     * Clear the virtual worker slots' carried backlog. Slot
     * availability persists across run() calls (successive traces on
     * one device share its worker slots, like the planner feedback
     * trajectories); a restart — e.g. a cluster node returning from
     * Down — starts from idle slots again.
     */
    void resetWorkerBacklog();

    /**
     * Attach a metrics + trace sink (DESIGN.md §11). Each run()
     * publishes admission counters, queue-depth / batch-occupancy /
     * per-SLO latency histograms, resilience retry + boost-energy
     * attribution, and per-batch execution spans on the virtual clock
     * under `trace_pid`. `labels` is folded into every metric so one
     * registry can hold several sweep points. All recording happens on
     * the serial formation/aggregation paths, so the metrics
     * fingerprint and the exported trace are bitwise identical at any
     * thread count (§7). Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o,
                             std::uint64_t trace_pid = 0,
                             obs::Labels labels = {});

  private:
    /** Per-execution-slot device state: the chip and the resilient
     *  wrapper of its weight memory. The wrapper is reset per batch,
     *  so the banks keep their packed fault masks (keyed by this
     *  server's device map) across batches. */
    struct WorkerScratch
    {
        std::unique_ptr<accel::DanteChip> chip;
        std::unique_ptr<resilience::ResilientMemory> rmem;
    };

    /** One serveTogether() run's state (defined in server.cpp). */
    struct Run;

    /** Validate `trace`, form its batches and start `run`; makes room
     *  for `num_threads` execution slots. */
    void begin(Run &run, const std::vector<InferenceRequest> &trace,
               unsigned num_threads);

    /** Freeze the plans of the next feedback region (up to
     *  feedbackInterval batches, serially in batch order).
     *  @return the region's batch count; 0 once every batch ran. */
    std::size_t planRegion(Run &run);

    /** Execute batch `i` of the planned region on execution slot
     *  `slot`, staging `staging`'s image into its slot network.
     *  Distinct batches of a region may run concurrently on distinct
     *  slots. */
    void executeBatch(Run &run, std::size_t i,
                      fi::StagedWeightsCache &staging, unsigned slot);

    /** Feed the region's error rates back to the planner, serially in
     *  batch order. */
    void applyFeedback(Run &run);

    /** Assign virtual worker slots, join outcomes, aggregate and
     *  publish the run's observability. */
    ServeResult finish(Run &run);

    /** Serial formation pass: queue admission + batching. */
    std::vector<FormedBatch>
    formBatches(const std::vector<InferenceRequest> &trace,
                std::vector<RequestOutcome> &outcomes);

    /** FCFS assignment of batches onto virtual worker slots
     *  (continues from the slots' carried backlog). */
    void assignSlots(std::vector<BatchRecord> &records);

    /** Aggregate outcomes + batches into a ServerStats snapshot. */
    ServerStats aggregate(const std::vector<RequestOutcome> &outcomes,
                          const std::vector<BatchRecord> &records);

    /** Publish one run's metrics and spans (serial, §11). */
    void publishObservability(const ServeResult &result);

    core::SimContext ctx_;
    dnn::Network &net_;
    const dnn::Dataset &pool_;
    accel::LayerActivity perInference_;
    OperatingPointPlanner planner_;
    ServerConfig cfg_;

    accel::PerformanceModel perf_;
    sram::FailureRateModel failure_;
    /** The device's fault map (const, shared across workers). */
    sram::VulnerabilityMap deviceMap_;

    /** Staging image of net_'s weights and the slot networks that
     *  stage it, for run(). */
    fi::StagedWeightsCache staging_;
    std::vector<WorkerScratch> scratch_;

    /** Tick each virtual worker slot frees up at; persists across
     *  run() calls (cleared by resetWorkerBacklog()). */
    std::vector<Tick> slotFreeAt_;

    /** Optional metrics/trace sink (never owned). */
    obs::Observability *obs_ = nullptr;
    std::uint64_t obsPid_ = 0;
    obs::Labels obsLabels_;
    /** Work-unit clock for the phase ScopeTimers (requests formed,
     *  batches executed, records aggregated). */
    obs::VirtualClock workClock_;
};

} // namespace vboost::serve

#endif // VBOOST_SERVE_SERVER_HPP
