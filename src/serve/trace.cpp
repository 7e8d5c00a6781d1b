#include "serve/trace.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace vboost::serve {

std::vector<InferenceRequest>
generatePoissonTrace(const TraceConfig &cfg)
{
    if (cfg.requestsPerTick <= 0.0)
        fatal("generatePoissonTrace: requestsPerTick must be > 0, got ",
              cfg.requestsPerTick);
    if (cfg.tenants.empty())
        fatal("generatePoissonTrace: at least one tenant required");
    if (cfg.samplePoolSize < 1)
        fatal("generatePoissonTrace: samplePoolSize must be >= 1");

    double total_share = 0.0;
    for (const auto &tenant : cfg.tenants) {
        if (tenant.trafficShare <= 0.0)
            fatal("generatePoissonTrace: tenant '", tenant.name,
                  "' has non-positive traffic share ", tenant.trafficShare);
        total_share += tenant.trafficShare;
    }

    // Independent streams per draw kind, so e.g. adding a tenant to the
    // mix does not perturb the arrival process.
    Rng base(cfg.seed);
    Rng arrivals = base.split(1);
    Rng tenant_picks = base.split(2);
    Rng sample_picks = base.split(3);

    std::vector<InferenceRequest> trace;
    trace.reserve(cfg.numRequests);
    double t = 0.0;
    for (std::size_t i = 0; i < cfg.numRequests; ++i) {
        // Exponential inter-arrival; uniform() is in [0, 1) so the log
        // argument stays in (0, 1].
        t += -std::log(1.0 - arrivals.uniform()) / cfg.requestsPerTick;

        double pick = tenant_picks.uniform() * total_share;
        const TenantSpec *chosen = &cfg.tenants.back();
        for (const auto &tenant : cfg.tenants) {
            if (pick < tenant.trafficShare) {
                chosen = &tenant;
                break;
            }
            pick -= tenant.trafficShare;
        }

        InferenceRequest req;
        req.id = i;
        req.tenant = chosen->name;
        req.slo = chosen->slo;
        req.sample =
            static_cast<std::size_t>(sample_picks.uniformInt(
                static_cast<std::uint64_t>(cfg.samplePoolSize)));
        req.arrivalTick = static_cast<Tick>(std::floor(t));
        trace.push_back(std::move(req));
    }
    return trace;
}

std::unordered_map<std::uint64_t, std::size_t>
indexTrace(const std::vector<InferenceRequest> &trace, const char *caller)
{
    // Audited for VB002: the map is keyed-lookup only (emplace + .at)
    // and never iterated, so hash order cannot leak into outcomes;
    // unordered stays for O(1) lookups on the outcome join.
    std::unordered_map<std::uint64_t, std::size_t> id_to_index;
    id_to_index.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (i > 0 && trace[i].arrivalTick < trace[i - 1].arrivalTick)
            fatal(caller, ": arrival ticks must be nondecreasing (trace "
                  "index ", i, ")");
        if (!id_to_index.emplace(trace[i].id, i).second)
            fatal(caller, ": duplicate request id ", trace[i].id);
    }
    return id_to_index;
}

std::vector<TenantMix>
standardServeMixes()
{
    return {
        {"gold", {{"acme", SloClass::Gold, 1.0}}},
        {"mixed",
         {{"acme", SloClass::Gold, 0.3},
          {"globex", SloClass::Silver, 0.4},
          {"initech", SloClass::Bronze, 0.3}}},
        {"bronze", {{"batchco", SloClass::Bronze, 1.0}}},
    };
}

TenantMix
scaledTenantMix(std::size_t num_tenants)
{
    if (num_tenants < 1)
        fatal("scaledTenantMix: num_tenants must be >= 1");
    static constexpr SloClass kRoundRobin[] = {
        SloClass::Gold, SloClass::Silver, SloClass::Bronze};
    TenantMix mix;
    mix.name = "scaled-" + std::to_string(num_tenants);
    mix.tenants.reserve(num_tenants);
    for (std::size_t i = 0; i < num_tenants; ++i) {
        std::string name = std::to_string(i);
        name.insert(0, name.size() < 4 ? 4 - name.size() : 0, '0');
        mix.tenants.push_back({"tenant-" + name, kRoundRobin[i % 3],
                               1.0 / static_cast<double>(i + 1)});
    }
    return mix;
}

} // namespace vboost::serve
