#include "cluster/cluster.hpp"

#include <algorithm>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"

namespace vboost::cluster {

const char *
toString(RouteStatus status)
{
    switch (status) {
      case RouteStatus::Primary:
        return "primary";
      case RouteStatus::Spilled:
        return "spilled";
      case RouteStatus::FailedOver:
        return "failed_over";
      case RouteStatus::ShedCluster:
        return "shed_cluster";
    }
    return "?";
}

void
ClusterConfig::validate() const
{
    if (shards < 1)
        fatal("ClusterConfig: shards must be >= 1, got ", shards);
    if (replicas < 1)
        fatal("ClusterConfig: replicas must be >= 1, got ", replicas);
    if (replicas > shards)
        fatal("ClusterConfig: replicas (", replicas,
              ") cannot exceed shards (", shards, ")");
    if (epochRequests < 1)
        fatal("ClusterConfig: epochRequests must be >= 1, got ",
              epochRequests);
    if (ring.virtualNodes < 1)
        fatal("ClusterConfig: ring.virtualNodes must be >= 1, got ",
              ring.virtualNodes);
    failover.validate();
    for (const NodeLossEvent &ev : lossEvents) {
        if (ev.node < 0 || ev.node >= shards)
            fatal("ClusterConfig: loss event targets node ", ev.node,
                  " outside [0, ", shards, ")");
    }
    node.validate();
}

std::uint64_t
ClusterStats::fingerprint() const
{
    std::uint64_t h = fnv::kTruncatedBasis;
    fnv::mixU64(h, requests);
    fnv::mixU64(h, routedPrimary);
    fnv::mixU64(h, routedSpill);
    fnv::mixU64(h, routedFailover);
    fnv::mixU64(h, shedCluster);
    fnv::mixU64(h, transitions);
    total.hashCounters(h);
    fnv::mixU64(h, perNode.size());
    for (const NodeStats &n : perNode) {
        fnv::mixU64(h, n.primaryRequests);
        fnv::mixU64(h, n.spillRequests);
        fnv::mixU64(h, n.failoverRequests);
        fnv::mixU64(h, n.epochsServed);
        n.serve.hashCounters(h);
        fnv::mixU64(h, n.lastCompletionTick);
        fnv::mixU64(h, static_cast<std::uint64_t>(n.finalState));
        fnv::mixDouble(h, n.finalEwma);
    }
    fnv::mixDouble(h, p50LatencyTicks);
    fnv::mixDouble(h, p95LatencyTicks);
    for (double v : p95LatencyBySlo)
        fnv::mixDouble(h, v);
    for (double v : accuracyBySlo)
        fnv::mixDouble(h, v);
    fnv::mixDouble(h, accuracy);
    fnv::mixU64(h, makespanTicks);
    return h;
}

std::string
ServingCluster::nodeName(int i)
{
    return "node-" + std::to_string(i);
}

ServingCluster::ServingCluster(const core::SimContext &ctx,
                               dnn::Network &net, const dnn::Dataset &pool,
                               accel::LayerActivity per_inference,
                               const serve::OperatingPointPlanner &planner,
                               ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      ring_(cfg_.ring),
      health_(cfg_.shards, cfg_.failover),
      net_(net)
{
    cfg_.validate();
    nodes_.reserve(static_cast<std::size_t>(cfg_.shards));
    // Every node serves `net`, and run() executes the nodes' feedback
    // regions together, one batch per slot at a time: one staging
    // image and one pool of slot networks serve them all.
    for (int i = 0; i < cfg_.shards; ++i) {
        const std::string name = nodeName(i);
        ring_.addNode(name);
        nodeIndex_.emplace(name, i);
        serve::ServerConfig node_cfg = cfg_.node;
        // Every node is its own device: an independent fault map and
        // independent per-batch RNG streams.
        node_cfg.seed = cfg_.node.seed + static_cast<std::uint64_t>(i);
        Node node;
        node.server = std::make_unique<serve::InferenceServer>(
            ctx, net, pool, per_inference,
            serve::OperatingPointPlanner(planner), node_cfg);
        nodes_.push_back(std::move(node));
    }
}

void
ServingCluster::attachObservability(obs::Observability *o,
                                    obs::Labels labels)
{
    obs_ = o;
    obsLabels_ = std::move(labels);
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (obs_) {
            freshNodeSink(n);
        } else {
            nodes_[n].obsv.reset();
            nodes_[n].server->attachObservability(nullptr);
        }
    }
}

void
ServingCluster::freshNodeSink(std::size_t n)
{
    const std::string name = nodeName(static_cast<int>(n));
    nodes_[n].obsv = std::make_unique<obs::Observability>();
    nodes_[n].obsv->trace.setProcessName(n, name);
    nodes_[n].server->attachObservability(
        nodes_[n].obsv.get(), n, obs::withBase({{"node", name}}, obsLabels_));
}

RouteRecord
ServingCluster::routeOne(const serve::InferenceRequest &req,
                         std::uint64_t epoch, std::size_t epoch_cap,
                         std::vector<std::size_t> &epoch_load)
{
    RouteRecord rec;
    rec.id = req.id;
    rec.epoch = epoch;
    const std::string &owner = ring_.nodeFor(req.tenant);
    rec.primary = nodeIndex_.at(owner);
    const auto group = ring_.replicasFor(
        req.tenant, static_cast<std::size_t>(cfg_.replicas));

    const auto has_room = [&](int idx) {
        if (!health_.accepting(idx))
            return false;
        return epoch_cap == 0 ||
               epoch_load[static_cast<std::size_t>(idx)] < epoch_cap;
    };

    // Primary-first for locality; overflow goes to the least-loaded
    // accepting replica (ties to group order), so a hot shard's spill
    // spreads over the whole group instead of piling onto the next
    // successor. Pure function of (health, epoch_load) — serial path.
    if (has_room(rec.primary)) {
        rec.node = rec.primary;
    } else {
        for (const std::string &cand : group) {
            const int idx = nodeIndex_.at(cand);
            if (idx == rec.primary || !has_room(idx))
                continue;
            if (rec.node < 0 ||
                epoch_load[static_cast<std::size_t>(idx)] <
                    epoch_load[static_cast<std::size_t>(rec.node)])
                rec.node = idx;
        }
    }
    if (rec.node < 0) {
        rec.status = RouteStatus::ShedCluster;
    } else if (rec.node == rec.primary) {
        rec.status = RouteStatus::Primary;
    } else if (!health_.accepting(rec.primary)) {
        rec.status = RouteStatus::FailedOver;
    } else {
        rec.status = RouteStatus::Spilled;
    }
    if (rec.node >= 0)
        ++epoch_load[static_cast<std::size_t>(rec.node)];
    return rec;
}

ClusterResult
ServingCluster::run(const std::vector<serve::InferenceRequest> &trace)
{
    const auto id_to_index = serve::indexTrace(trace, "ServingCluster::run");

    ClusterResult result;
    result.routes.resize(trace.size());
    result.outcomes.resize(trace.size());
    const std::size_t transitions_before = health_.transitions().size();
    const auto per_epoch = static_cast<std::size_t>(cfg_.epochRequests);
    const auto num_nodes = nodes_.size();

    std::vector<NodeStats> node_stats(num_nodes);
    // Every epoch stages the same weights: one image for the whole run.
    staging_.update(net_);
    /** epoch id -> arrival tick of its first request (trace markers). */
    std::map<std::uint64_t, serve::Tick> epoch_start_ticks;

    for (std::size_t begin = 0; begin < trace.size();
         begin += per_epoch) {
        const std::size_t end =
            std::min(begin + per_epoch, trace.size());
        const std::uint64_t epoch = nextEpoch_++;
        epoch_start_ticks.emplace(epoch, trace[begin].arrivalTick);

        // Injected losses land at the epoch boundary, in config order.
        for (const NodeLossEvent &ev : cfg_.lossEvents) {
            if (ev.epoch == epoch)
                health_.injectLoss(epoch, ev.node);
        }

        // Effective per-shard bound for this epoch: the configured
        // bound is the fair share at full membership; with nodes out,
        // survivors stretch (ceil-scaled by the membership ratio) to
        // absorb the failover load instead of shedding it.
        std::size_t epoch_cap = cfg_.shardQueueCapacity;
        if (epoch_cap != 0) {
            std::size_t accepting = 0;
            for (std::size_t n = 0; n < num_nodes; ++n) {
                if (health_.accepting(static_cast<int>(n)))
                    ++accepting;
            }
            if (accepting > 0 && accepting < num_nodes)
                epoch_cap = (epoch_cap * num_nodes + accepting - 1) /
                            accepting;
        }

        // Serial routing pass in trace order: the admission tier's
        // per-shard epoch queues fill as decisions are made.
        std::vector<std::size_t> epoch_load(num_nodes, 0);
        std::vector<std::vector<serve::InferenceRequest>> subtraces(
            num_nodes);
        for (std::size_t i = begin; i < end; ++i) {
            const serve::InferenceRequest &req = trace[i];
            RouteRecord rec = routeOne(req, epoch, epoch_cap, epoch_load);
            result.routes[i] = rec;
            if (rec.node < 0) {
                serve::RequestOutcome &out = result.outcomes[i];
                out.id = req.id;
                out.tenant = req.tenant;
                out.slo = req.slo;
                out.arrivalTick = req.arrivalTick;
                out.admitted = false;
                out.shedReason = serve::ShedReason::QueueFull;
                continue;
            }
            const auto n = static_cast<std::size_t>(rec.node);
            subtraces[n].push_back(req);
            switch (rec.status) {
              case RouteStatus::Primary:
                ++node_stats[n].primaryRequests;
                break;
              case RouteStatus::Spilled:
                ++node_stats[n].spillRequests;
                break;
              case RouteStatus::FailedOver:
                ++node_stats[n].failoverRequests;
                break;
              case RouteStatus::ShedCluster:
                break;
            }
        }

        // The nodes' pipelines run merged: each feedback region of
        // every served node is planned in node order, their batches
        // run in one parallel region, and feedback applies in node
        // order. Every node keeps its own planner, device and clocks,
        // so each one's outcome is what running it alone would give.
        std::vector<serve::InferenceServer *> served;
        std::vector<const std::vector<serve::InferenceRequest> *> traces;
        for (std::size_t n = 0; n < num_nodes; ++n) {
            if (subtraces[n].empty())
                continue;
            served.push_back(nodes_[n].server.get());
            traces.push_back(&subtraces[n]);
        }
        const std::vector<serve::ServeResult> results =
            serve::InferenceServer::serveTogether(served, traces, staging_,
                                                  cfg_.node.numThreads);

        for (std::size_t n = 0, k = 0; n < num_nodes; ++n) {
            const bool was_served = !subtraces[n].empty();
            double error_rate = 0.0;
            if (was_served) {
                const serve::ServeResult &r = results[k++];
                std::uint64_t reads = 0;
                std::uint64_t clean = 0;
                for (const serve::BatchRecord &b : r.batches) {
                    reads += b.resilience.reads;
                    clean += b.resilience.cleanReads;
                    node_stats[n].lastCompletionTick =
                        std::max(node_stats[n].lastCompletionTick,
                                 b.completionTick);
                }
                error_rate =
                    reads ? static_cast<double>(reads - clean) /
                                static_cast<double>(reads)
                          : 0.0;
                node_stats[n].serve.addCounters(r.stats.total);
                ++node_stats[n].epochsServed;
                for (const serve::RequestOutcome &out : r.outcomes)
                    result.outcomes[id_to_index.at(out.id)] = out;
            }
            health_.observeEpoch(epoch, static_cast<int>(n), error_rate,
                                 was_served);
        }

        // A node that went Down this epoch restarts: its virtual
        // worker-slot backlog is gone when it rejoins.
        for (std::size_t t = transitions_before;
             t < health_.transitions().size(); ++t) {
            const NodeTransition &tr = health_.transitions()[t];
            if (tr.epoch == epoch && tr.to == NodeState::Down)
                nodes_[static_cast<std::size_t>(tr.node)]
                    .server->resetWorkerBacklog();
        }
    }

    result.transitions.assign(
        health_.transitions().begin() +
            static_cast<std::ptrdiff_t>(transitions_before),
        health_.transitions().end());
    for (std::size_t n = 0; n < num_nodes; ++n) {
        node_stats[n].finalState = health_.state(static_cast<int>(n));
        node_stats[n].finalEwma = health_.ewma(static_cast<int>(n));
    }
    result.stats.perNode = std::move(node_stats);
    result.stats = aggregate(result, transitions_before);
    publishObservability(result);

    // Cluster-tier trace markers need the epoch start ticks; publish
    // them here where the map is still in scope.
    if (obs_) {
        const auto admission_pid =
            static_cast<std::uint64_t>(cfg_.shards);
        for (const NodeTransition &tr : result.transitions) {
            const auto it = epoch_start_ticks.find(tr.epoch);
            const serve::Tick ts =
                it == epoch_start_ticks.end() ? 0 : it->second;
            obs_->trace.instant(
                admission_pid, 0,
                std::string("node.") + toString(tr.to), ts,
                {{"node", static_cast<double>(tr.node)},
                 {"ewma", tr.ewma}},
                {{"cause", toString(tr.cause)}});
        }
    }
    return result;
}

ClusterStats
ServingCluster::aggregate(const ClusterResult &result,
                          std::size_t transitions_before) const
{
    ClusterStats stats;
    stats.perNode = result.stats.perNode;
    stats.requests = result.routes.size();
    for (const RouteRecord &rec : result.routes) {
        switch (rec.status) {
          case RouteStatus::Primary:
            ++stats.routedPrimary;
            break;
          case RouteStatus::Spilled:
            ++stats.routedSpill;
            break;
          case RouteStatus::FailedOver:
            ++stats.routedFailover;
            break;
          case RouteStatus::ShedCluster:
            ++stats.shedCluster;
            break;
        }
    }
    stats.transitions =
        health_.transitions().size() - transitions_before;

    for (const NodeStats &n : stats.perNode) {
        stats.total.addCounters(n.serve);
        stats.makespanTicks =
            std::max(stats.makespanTicks, n.lastCompletionTick);
    }

    std::vector<double> latencies;
    std::array<std::vector<double>, serve::kNumSloClasses> by_slo;
    std::array<std::uint64_t, serve::kNumSloClasses> served{};
    std::array<std::uint64_t, serve::kNumSloClasses> correct{};
    for (const serve::RequestOutcome &out : result.outcomes) {
        if (!out.admitted)
            continue;
        const auto s = static_cast<std::size_t>(out.slo);
        const auto latency = static_cast<double>(out.latencyTicks());
        latencies.push_back(latency);
        by_slo[s].push_back(latency);
        ++served[s];
        if (out.correct)
            ++correct[s];
    }
    if (!latencies.empty()) {
        stats.p50LatencyTicks = percentile(latencies, 50.0);
        stats.p95LatencyTicks = percentile(latencies, 95.0);
    }
    for (std::size_t s = 0; s < serve::kNumSloClasses; ++s) {
        if (!by_slo[s].empty())
            stats.p95LatencyBySlo[s] = percentile(by_slo[s], 95.0);
        stats.accuracyBySlo[s] =
            served[s] ? static_cast<double>(correct[s]) /
                            static_cast<double>(served[s])
                      : 0.0;
    }
    stats.accuracy = stats.total.inferences
                         ? static_cast<double>(stats.total.correct) /
                               static_cast<double>(stats.total.inferences)
                         : 0.0;
    return stats;
}

void
ServingCluster::publishObservability(const ClusterResult &result)
{
    if (!obs_)
        return;
    obs::MetricsRegistry &reg = obs_->metrics;
    const auto admission_pid = static_cast<std::uint64_t>(cfg_.shards);
    obs_->trace.setProcessName(admission_pid, "cluster admission");
    obs_->trace.setThreadName(admission_pid, 0, "router");

    for (const char *status :
         {"primary", "spilled", "failed_over", "shed_cluster"}) {
        // Touch all four series so the registry shape (and hence the
        // fingerprint surface) is load-independent.
        reg.counter("cluster.routed",
                    obs::withBase({{"status", status}}, obsLabels_));
    }
    for (const RouteRecord &rec : result.routes) {
        reg.counter("cluster.routed",
                    obs::withBase({{"status", toString(rec.status)}},
                                  obsLabels_))
            .add(1);
        if (rec.status == RouteStatus::ShedCluster) {
            obs_->trace.instant(admission_pid, 0, "shed.cluster",
                                result.outcomes[&rec - result.routes.data()]
                                    .arrivalTick);
        }
    }
    for (const NodeTransition &tr : result.transitions) {
        reg.counter("cluster.failover.transitions",
                    obs::withBase({{"to", toString(tr.to)},
                                   {"cause", toString(tr.cause)}},
                                  obsLabels_))
            .add(1);
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        const obs::Labels labels =
            obs::withBase({{"node", nodeName(static_cast<int>(n))}},
                          obsLabels_);
        reg.gauge("cluster.node.ewma", labels)
            .set(health_.ewma(static_cast<int>(n)));
        reg.gauge("cluster.node.state", labels)
            .set(static_cast<double>(
                static_cast<int>(health_.state(static_cast<int>(n)))));
    }
    const obs::Labels &base = obsLabels_;
    reg.gauge("cluster.latency.p50_ticks", base)
        .set(result.stats.p50LatencyTicks);
    reg.gauge("cluster.latency.p95_ticks", base)
        .set(result.stats.p95LatencyTicks);
    reg.gauge("cluster.accuracy", base).set(result.stats.accuracy);
    reg.gauge("cluster.makespan_ticks", base)
        .set(static_cast<double>(result.stats.makespanTicks));

    // Job-order merge of the node sinks (§7): node-index order, every
    // run, so the merged fingerprint is a pure function of the trace.
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
        if (!nodes_[n].obsv)
            continue;
        reg.merge(nodes_[n].obsv->metrics);
        obs_->trace.merge(nodes_[n].obsv->trace);
        // The next run() merges only its own delta.
        freshNodeSink(n);
    }
}

} // namespace vboost::cluster
