/**
 * @file
 * Open-loop Poisson load generator (DESIGN.md §9): produces a
 * deterministic request trace — exponential inter-arrival times on the
 * virtual clock, tenants drawn by traffic share, sample indices drawn
 * uniformly from the server's sample pool — from a single seed, so the
 * same trace can be replayed against any server configuration and any
 * worker count.
 */

#ifndef VBOOST_SERVE_TRACE_HPP
#define VBOOST_SERVE_TRACE_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/request.hpp"

namespace vboost::serve {

/** One traffic source in the generated mix. */
struct TenantSpec
{
    std::string name;
    SloClass slo = SloClass::Silver;
    /** Relative traffic share (normalized over the mix). */
    double trafficShare = 1.0;
};

/** Trace-generation parameters. */
struct TraceConfig
{
    /** Mean arrival rate in requests per microtick (Poisson process).
     *  At 1e6 ticks/s, 0.001 is 1000 requests per second. */
    double requestsPerTick = 0.001;
    /** Requests to generate. */
    std::size_t numRequests = 256;
    /** RNG seed; the whole trace is a pure function of this config. */
    std::uint64_t seed = 42;
    /** Traffic mix (must be non-empty, shares > 0). */
    std::vector<TenantSpec> tenants;
    /** Size of the sample pool request indices are drawn from. */
    std::size_t samplePoolSize = 1;
};

/**
 * Generate an open-loop Poisson arrival trace. Arrival ticks are
 * nondecreasing; request ids are the trace positions.
 */
std::vector<InferenceRequest> generatePoissonTrace(const TraceConfig &cfg);

/**
 * Check the trace preconditions both serving tiers share (arrival
 * ticks nondecreasing, request ids unique) and map each request id to
 * its trace index. Throws FatalError naming `caller` otherwise.
 */
std::unordered_map<std::uint64_t, std::size_t>
indexTrace(const std::vector<InferenceRequest> &trace, const char *caller);

/** A named traffic mix (the unit the serving benches sweep over). */
struct TenantMix
{
    std::string name;
    std::vector<TenantSpec> tenants;
};

/**
 * The canonical serving mixes shared by bench_serve and
 * bench_serve_cluster: "gold" (one Gold tenant), "mixed" (Gold /
 * Silver / Bronze at 30/40/30) and "bronze" (one Bronze tenant).
 * Centralised here so every bench replays byte-identical traces for a
 * given (mix, load, seed) — the seed-stable digests the determinism
 * gates compare depend on it.
 */
std::vector<TenantMix> standardServeMixes();

/**
 * A scaled "million-user" mix: `num_tenants` tenants named
 * tenant-0000.., SLO classes assigned round-robin Gold/Silver/Bronze,
 * traffic shares Zipf-distributed (share of rank i is 1/(i+1)) the way
 * a large tenant population concentrates load on a heavy head. A pure
 * function of `num_tenants` — no RNG — so trace digests stay
 * seed-stable.
 *
 * @param num_tenants number of tenants (>= 1).
 */
TenantMix scaledTenantMix(std::size_t num_tenants);

} // namespace vboost::serve

#endif // VBOOST_SERVE_TRACE_HPP
