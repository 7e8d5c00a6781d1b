#include "rules.hpp"

namespace vboost::vblint {

std::string
ruleName(Rule r)
{
    switch (r) {
      case Rule::VB001:
        return "VB001";
      case Rule::VB002:
        return "VB002";
      case Rule::VB004:
        return "VB004";
      case Rule::VB005:
        return "VB005";
      case Rule::VB006:
        return "VB006";
      case Rule::VB007:
        return "VB007";
      case Rule::VB008:
        return "VB008";
      case Rule::VB009:
        return "VB009";
      case Rule::VB900:
        return "VB900";
      case Rule::VB901:
        return "VB901";
    }
    return "VB???";
}

std::optional<Rule>
ruleFromName(const std::string &name)
{
    std::string up;
    up.reserve(name.size());
    for (char c : name)
        up.push_back(c >= 'a' && c <= 'z' ? static_cast<char>(c - 32) : c);
    for (Rule r : allRules())
        if (ruleName(r) == up)
            return r;
    return std::nullopt;
}

std::string
ruleSummary(Rule r)
{
    switch (r) {
      case Rule::VB001:
        return "banned nondeterminism source in model code";
      case Rule::VB002:
        return "iteration over an unordered container";
      case Rule::VB004:
        return "mutable static/global state in model code";
      case Rule::VB005:
        return "header hygiene violation";
      case Rule::VB006:
        return "module layering violation in the include graph";
      case Rule::VB007:
        return "RNG-stream discipline violation";
      case Rule::VB008:
        return "metrics fingerprint hygiene violation";
      case Rule::VB009:
        return "shared-mutable capture into a thread-pool lambda";
      case Rule::VB900:
        return "unused vblint suppression";
      case Rule::VB901:
        return "malformed vblint annotation";
    }
    return "unknown rule";
}

std::string
ruleExplanation(Rule r)
{
    switch (r) {
      case Rule::VB001:
        return "VB001 — banned nondeterminism source in model code\n"
               "\n"
               "Model code under src/ must be a pure function of its\n"
               "explicit seeds (DESIGN.md §7): every Monte-Carlo result,\n"
               "accuracy-vs-voltage curve and serving fingerprint is\n"
               "validated by bitwise reproduction at any thread count.\n"
               "rand(), srand(), std::random_device, wall-clock sources\n"
               "(time(), clock(), gettimeofday, std::chrono::system_clock,\n"
               "steady_clock, high_resolution_clock) smuggle ambient state\n"
               "into that computation and corrupt every downstream\n"
               "statistic silently.\n"
               "\n"
               "Fix: draw randomness from vboost::Rng streams derived via\n"
               "split() from an explicit seed; take timestamps only in\n"
               "bench/CLI layers and pass them in as data.\n"
               "Waive: // vblint: allow(VB001, <reason>) on the offending\n"
               "line, or the line above it.";
      case Rule::VB002:
        return "VB002 — iteration over an unordered container\n"
               "\n"
               "std::unordered_map / std::unordered_set iteration order is\n"
               "unspecified and varies across libstdc++ versions, seeds\n"
               "and insertion histories. Any iteration that feeds an\n"
               "accumulator, a serialized artifact or a fingerprint makes\n"
               "results depend on hash-table internals (the reduction\n"
               "discipline of DESIGN.md §7 exists precisely to prevent\n"
               "this). vblint flags every range-for or .begin() loop over\n"
               "a variable declared as an unordered container.\n"
               "\n"
               "Fix: use std::map / std::set, or copy keys out and sort\n"
               "before iterating.\n"
               "Waive (iteration provably order-insensitive):\n"
               "// vblint: ordered-ok(<reason>).";
      case Rule::VB004:
        return "VB004 — mutable static/global state in model code\n"
               "\n"
               "Mutable statics and namespace-scope globals couple\n"
               "otherwise-independent runs: two experiments in one\n"
               "process observe each other through the shared state, and\n"
               "parallel workers race on it. Model state must live in\n"
               "objects owned by the experiment (per-slot scratch,\n"
               "DESIGN.md §7).\n"
               "\n"
               "Fix: move the state into a context/config object threaded\n"
               "through the call graph.\n"
               "Waive (thread-safe infrastructure that never feeds\n"
               "results): // vblint: allow(VB004, <reason>).";
      case Rule::VB005:
        return "VB005 — header hygiene\n"
               "\n"
               "Every header must have an include guard: #pragma once or\n"
               "a classic #ifndef/#define pair (the repo convention is\n"
               "VBOOST_<DIR>_<FILE>_HPP guards; both forms are accepted).\n"
               "`using namespace` at namespace scope in a header injects\n"
               "names into every includer and can change overload\n"
               "resolution at a distance.\n"
               "\n"
               "Fix: add a guard; qualify names instead of using\n"
               "namespace directives in headers.\n"
               "Waive: // vblint: allow(VB005, <reason>).";
      case Rule::VB006:
        return "VB006 — module layering violation in the include graph\n"
               "\n"
               "src/ is a layered DAG: every module sits in a tier and\n"
               "may include only modules in strictly lower tiers —\n"
               "  0 common | 1 circuit,obs | 2 sram,energy |\n"
               "  3 core,dnn,timing | 4 resilience,accel | 5 fi |\n"
               "  6 serve | 7 cluster.\n"
               "A back-edge (or same-tier cross-module edge) makes the\n"
               "dependency graph cyclic over time, couples low layers to\n"
               "the experiment stack above them, and breaks the\n"
               "bottom-up testing order the determinism contract is\n"
               "verified in. vblint builds the project include graph\n"
               "(pass 1) and rejects back-edges, same-tier cross edges,\n"
               "file-level include cycles, modules missing from the\n"
               "tier table, and computed #include directives it cannot\n"
               "resolve.\n"
               "\n"
               "Fix: move the shared type down a tier, or invert the\n"
               "dependency (callback / interface in the lower module).\n"
               "New top-level module: extend the tier table in\n"
               "tools/vblint/include_graph.cpp deliberately.\n"
               "Waive: // vblint: allow(VB006, <reason>) trailing on the\n"
               "#include line.";
      case Rule::VB007:
        return "VB007 — RNG-stream discipline\n"
               "\n"
               "All model randomness must come from the repo's\n"
               "counter-based stream helpers (DESIGN.md §7): the\n"
               "split()-capable stream classes and the integer hash\n"
               "helpers discovered from the project symbol index — not\n"
               "from a hardcoded name list, so a renamed or added\n"
               "helper is picked up automatically. Direct\n"
               "std::mt19937 / std::*_distribution construction has\n"
               "library-dependent draw sequences, and ad-hoc seed\n"
               "arithmetic in a stream constructor (Rng(seed + i))\n"
               "collides streams silently — stream derivation must go\n"
               "through split(counter) / the blessed hash helpers,\n"
               "whose mixing is collision-audited.\n"
               "\n"
               "Fix: Rng(seed).split(counter) for derived streams;\n"
               "cellHash/mix64-style helpers for per-cell draws.\n"
               "Waive: // vblint: allow(VB007, <reason>).";
      case Rule::VB008:
        return "VB008 — metrics fingerprint hygiene\n"
               "\n"
               "The obs registry fingerprint is a determinism\n"
               "acceptance value (DESIGN.md §11): every registered\n"
               "metric feeds it unless excluded. Two antipatterns\n"
               "corrupt it. (a) Registering a metric computed from a\n"
               "wall-clock-coupled source (a function declared in a\n"
               "file with VB001 sites, per the project symbol index)\n"
               "without excludeFromFingerprint(name) makes the\n"
               "fingerprint differ across runs. (b) Registering\n"
               "metrics from inside a lambda handed to a thread-pool\n"
               "entry point accumulates in worker order — fingerprinted\n"
               "sums must be recorded into per-job registries and\n"
               "merged in job order.\n"
               "\n"
               "Fix: excludeFromFingerprint() for wall-clock telemetry\n"
               "(same file as the registration); per-job registries +\n"
               "job-order merge() for parallel sections.\n"
               "Waive: // vblint: allow(VB008, <reason>).";
      case Rule::VB009:
        return "VB009 — shared-mutable capture into a thread-pool "
               "lambda\n"
               "\n"
               "Lambdas handed to the pool entry points (parallelFor /\n"
               "submit, discovered from the thread-pool class in the\n"
               "symbol index) run concurrently. A default by-reference\n"
               "capture ([&]) or a by-reference capture of plain\n"
               "mutable state is how data races and schedule-dependent\n"
               "results enter: every captured reference must be\n"
               "atomic, mutex-guarded, or per-index/per-slot disjoint.\n"
               "vblint cannot prove disjointness, so the correct §7\n"
               "pattern (job j writes only results[j]) is waived at the\n"
               "callsite with the reason stating the disjointness\n"
               "argument.\n"
               "\n"
               "Fix: capture by value, capture atomics/mutexes by\n"
               "reference, or keep per-slot scratch state.\n"
               "Waive: // vblint: allow(VB009, <why disjoint/guarded>)\n"
               "on the lambda's opening line.";
      case Rule::VB900:
        return "VB900 — unused vblint suppression\n"
               "\n"
               "A vblint annotation that matches no diagnostic on its\n"
               "target line is dead: either the offending code moved or\n"
               "the waiver was never needed. Stale waivers rot the audit\n"
               "trail, so they are diagnostics themselves.\n"
               "\n"
               "Fix: delete the annotation (or move it back next to the\n"
               "code it waives).";
      case Rule::VB901:
        return "VB901 — malformed vblint annotation\n"
               "\n"
               "A comment starting with `vblint:` that does not parse as\n"
               "allow(VBxxx, reason) or ordered-ok(reason) almost\n"
               "certainly meant to waive something and silently does\n"
               "not.\n"
               "\n"
               "Fix: use one of\n"
               "  // vblint: allow(VB004, <reason>)\n"
               "  // vblint: ordered-ok(<reason>)";
    }
    return "unknown rule";
}

const std::vector<Rule> &
allRules()
{
    static const std::vector<Rule> kRules = {
        Rule::VB001, Rule::VB002, Rule::VB004, Rule::VB005,
        Rule::VB006, Rule::VB007, Rule::VB008, Rule::VB009,
        Rule::VB900, Rule::VB901,
    };
    return kRules;
}

const std::set<std::string> &
bannedCallIdents()
{
    static const std::set<std::string> kBanned = {
        "rand",     "srand",       "rand_r",   "drand48", "lrand48",
        "time",     "clock",       "gettimeofday",        "localtime",
        "gmtime",   "mktime"};
    return kBanned;
}

const std::set<std::string> &
bannedTypeIdents()
{
    static const std::set<std::string> kBanned = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock"};
    return kBanned;
}

} // namespace vboost::vblint
