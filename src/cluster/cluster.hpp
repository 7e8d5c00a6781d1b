/**
 * @file
 * Sharded multi-node serving cluster (DESIGN.md §14). A ServingCluster
 * composes N serve::InferenceServer instances ("nodes", each with its
 * own chip, fault map, resilient memory and planner) behind a
 * deterministic front end:
 *
 *   consistent-hash ring (tenant -> shard, bounded virtual nodes)
 *     -> admission/load-balancing tier (per-shard bounded epoch
 *        queues, spill-to-replica overflow)
 *     -> replica groups with EWMA-degradation-triggered failover and
 *        a drain/rejoin state machine (§8 escalation semantics at
 *        node granularity)
 *     -> per-node serving pipelines on shared virtual clocks
 *     -> cluster-wide merged observability.
 *
 * Execution follows the §7 determinism contract end to end: routing
 * decisions, failover transitions and all accounting happen on serial
 * paths in trace/epoch/node-index order; only batch execution fans
 * out on threads: each routing epoch's node subtraces go through
 * serve::InferenceServer::serveTogether, one parallel region per
 * feedback region of all served nodes, staged through the cluster's
 * one staging cache.
 * Outcomes, the cluster fingerprint, the job-order-merged metrics
 * registry and the merged Chrome trace are bitwise identical at any
 * thread count — gated by the cluster_determinism ctest.
 */

#ifndef VBOOST_CLUSTER_CLUSTER_HPP
#define VBOOST_CLUSTER_CLUSTER_HPP

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/failover.hpp"
#include "cluster/hash_ring.hpp"
#include "obs/observability.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace vboost::cluster {

/** One injected node-loss event (crash at a routing-epoch boundary). */
struct NodeLossEvent
{
    /** Routing epoch at whose start the node goes Down. */
    std::uint64_t epoch = 0;
    /** Node index in [0, shards). */
    int node = 0;
};

/** Cluster-tier configuration. */
struct ClusterConfig
{
    /** Number of nodes (= shards) behind the front end. */
    int shards = 4;
    /** Replica-group size per tenant key: the owner plus up to
     *  replicas-1 clockwise successors as spill/failover targets. */
    int replicas = 2;
    /** Requests per routing epoch: routing state (health, epoch
     *  queues) is frozen for an epoch, the epoch executes, and node
     *  error rates feed back serially between epochs — the cluster
     *  analog of ServerConfig::feedbackInterval. */
    int epochRequests = 64;
    /** Per-node admission bound per epoch at full membership (the
     *  "per-shard bounded queue" of the load-balancing tier); a full
     *  node spills to the least-loaded accepting replica of the group,
     *  and a request with no accepting replica with room is shed at
     *  the cluster tier. When nodes are draining/down the surviving
     *  nodes' bound stretches by the membership ratio (ceil), so
     *  failover load is absorbed rather than shed. 0 = unbounded. */
    std::size_t shardQueueCapacity = 0;
    /** Consistent-hash ring shape. */
    HashRingConfig ring;
    /** Node-health EWMA + drain/rejoin knobs. */
    FailoverConfig failover;
    /** Injected node-loss events (epoch-stamped, applied in config
     *  order at each epoch start). */
    std::vector<NodeLossEvent> lossEvents;
    /** Template for every node's serving runtime; node i runs with
     *  seed = node.seed + i (its own chip and fault map). */
    serve::ServerConfig node;

    /** Throw FatalError unless the cluster knobs are self-consistent
     *  (also validates the node ServerConfig). */
    void validate() const;
};

/** Why the admission tier placed (or dropped) a request where it did. */
enum class RouteStatus
{
    /** Served by its primary shard. */
    Primary = 0,
    /** Primary queue full: overflowed to a replica. */
    Spilled = 1,
    /** Primary not accepting (draining/down): failed over. */
    FailedOver = 2,
    /** No accepting replica with queue room: shed at the cluster
     *  tier. */
    ShedCluster = 3,
};

/** Display name of a route status. */
const char *toString(RouteStatus status);

/** The admission tier's decision for one request, in trace order. */
struct RouteRecord
{
    std::uint64_t id = 0;
    /** Routing epoch the request fell into. */
    std::uint64_t epoch = 0;
    /** Ring owner of the tenant key. */
    int primary = 0;
    /** Node that actually served it (-1 when shed). */
    int node = -1;
    RouteStatus status = RouteStatus::Primary;

    friend bool operator==(const RouteRecord &,
                           const RouteRecord &) = default;
};

/** Per-node accounting of one cluster run. */
struct NodeStats
{
    /** Requests routed to the node, by route class. */
    std::uint64_t primaryRequests = 0;
    std::uint64_t spillRequests = 0;
    std::uint64_t failoverRequests = 0;
    /** Epochs in which the node executed at least one request. */
    std::uint64_t epochsServed = 0;
    /** Node-level serve totals summed over its epoch runs. */
    serve::TenantStats serve;
    /** Latest completion tick of the node's work (0 = never ran). */
    serve::Tick lastCompletionTick = 0;
    /** Health state / EWMA at end of run. */
    NodeState finalState = NodeState::Active;
    double finalEwma = 0.0;

    friend bool operator==(const NodeStats &, const NodeStats &) = default;
};

/** Snapshot of one cluster run's accounting. */
struct ClusterStats
{
    std::uint64_t requests = 0;
    std::uint64_t routedPrimary = 0;
    std::uint64_t routedSpill = 0;
    std::uint64_t routedFailover = 0;
    std::uint64_t shedCluster = 0;
    /** Failover-log transitions during the run. */
    std::uint64_t transitions = 0;

    /** Cluster-wide serve totals (summed over nodes). */
    serve::TenantStats total;
    std::vector<NodeStats> perNode;

    /** End-to-end latency percentiles over all admitted requests. */
    double p50LatencyTicks = 0.0;
    double p95LatencyTicks = 0.0;
    /** Per-SLO-class p95 latency (indexed by SloClass). */
    std::array<double, serve::kNumSloClasses> p95LatencyBySlo{};
    /** Per-SLO-class served accuracy (indexed by SloClass; 0 when the
     *  class served nothing). */
    std::array<double, serve::kNumSloClasses> accuracyBySlo{};
    /** Fraction of served inferences predicted correctly. */
    double accuracy = 0.0;
    /** Latest completion tick across nodes (the run's makespan). */
    serve::Tick makespanTicks = 0;

    /**
     * FNV-1a digest over every field, per-node entries in index order.
     * Equal fingerprints mean bitwise-identical cluster accounting —
     * the §7 acceptance value of the cluster tier.
     */
    std::uint64_t fingerprint() const;

    friend bool operator==(const ClusterStats &,
                           const ClusterStats &) = default;
};

/** Full result of replaying one trace through the cluster. */
struct ClusterResult
{
    /** Admission-tier decisions, in trace order. */
    std::vector<RouteRecord> routes;
    /** Per-request outcomes in trace order (cluster-tier sheds appear
     *  as !admitted with reason QueueFull). */
    std::vector<serve::RequestOutcome> outcomes;
    /** Failover log, in observation order. */
    std::vector<NodeTransition> transitions;
    ClusterStats stats;
};

/**
 * The cluster front end. Owns the ring, the health monitor, the N
 * node servers and the staging cache (one image of the network's
 * weights and one pool of slot networks) every node stages through;
 * borrows the trained network and sample pool (shared by every node,
 * both must outlive the cluster).
 */
class ServingCluster
{
  public:
    /**
     * @param ctx shared study configuration.
     * @param net trained network served by every node.
     * @param pool labeled sample pool requests draw inputs from.
     * @param per_inference dataflow activity of one inference.
     * @param planner operating-point planner prototype; every node
     *        gets its own copy (independent feedback trajectories).
     * @param cfg cluster configuration.
     */
    ServingCluster(const core::SimContext &ctx, dnn::Network &net,
                   const dnn::Dataset &pool,
                   accel::LayerActivity per_inference,
                   const serve::OperatingPointPlanner &planner,
                   ClusterConfig cfg = {});

    /**
     * Replay a request trace (same preconditions as
     * InferenceServer::run) through routing, failover and the node
     * pipelines. Health and planner state persist across calls.
     */
    ClusterResult run(const std::vector<serve::InferenceRequest> &trace);

    /**
     * Attach a cluster-wide metrics + trace sink. Each run() merges
     * the per-node registries and tracers into it in node-index (job)
     * order — on top of the cluster-tier routing/failover metrics —
     * so the merged fingerprint and trace are §7 thread-count
     * invariant. Node i's spans appear under trace pid i; the
     * admission tier under pid = shards. Pass nullptr to detach.
     */
    void attachObservability(obs::Observability *o,
                             obs::Labels labels = {});

    /** Node name of index i ("node-<i>"). */
    static std::string nodeName(int i);

    const ClusterConfig &config() const { return cfg_; }
    const HashRing &ring() const { return ring_; }
    const NodeHealthMonitor &health() const { return health_; }

    /** The staging image and slot pool every node stages through. */
    const fi::StagedWeightsCache &staging() const { return staging_; }

    /** Node server access (tests / lifecycle inspection). */
    serve::InferenceServer &node(int i) { return *nodes_.at(
        static_cast<std::size_t>(i)).server; }

  private:
    struct Node
    {
        std::unique_ptr<serve::InferenceServer> server;
        /** Node-local sink, merged into the attached sink per run. */
        std::unique_ptr<obs::Observability> obsv;
    };

    /** Route one request under current health/queue state;
     *  `epoch_cap` is this epoch's membership-scaled admission
     *  bound (0 = unbounded). */
    RouteRecord routeOne(const serve::InferenceRequest &req,
                         std::uint64_t epoch, std::size_t epoch_cap,
                         std::vector<std::size_t> &epoch_load);

    /** Aggregate one run's records into a ClusterStats snapshot. */
    ClusterStats aggregate(const ClusterResult &result,
                           std::size_t transitions_before) const;

    /** Publish cluster-tier metrics + merge node sinks (serial). */
    void publishObservability(const ClusterResult &result);

    /** Attach node n to a new, empty node sink. */
    void freshNodeSink(std::size_t n);

    ClusterConfig cfg_;
    HashRing ring_;
    NodeHealthMonitor health_;
    dnn::Network &net_;
    /** Staging image and slot networks every node stages through. */
    fi::StagedWeightsCache staging_;
    std::vector<Node> nodes_;
    /** node name -> index (ring keys are names). */
    std::map<std::string, int> nodeIndex_;
    /** Next routing epoch (persists across run() calls). */
    std::uint64_t nextEpoch_ = 0;

    obs::Observability *obs_ = nullptr;
    obs::Labels obsLabels_;
};

} // namespace vboost::cluster

#endif // VBOOST_CLUSTER_CLUSTER_HPP
