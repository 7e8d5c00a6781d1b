/**
 * @file
 * vboost_perfbench: the benchmark's measuring process. run.py builds
 * it, warms its model cache, and runs one workload per process:
 *
 *   vboost_perfbench warm --cache-dir <dir>
 *   vboost_perfbench run --workload <name> --seed <n> --seconds <s>
 *                        --trace <0|1> --cache-dir <dir> --out-dir <dir>
 *                        --reference <file> [--write-reference]
 *
 * `run` sets the workload up several times (setup_s is their median),
 * then runs whole timed units until --seconds have passed, checking
 * every work item's output digest. With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it alternates untraced and traced
 * units (the difference is obs.trace_overhead_pct), replays the
 * workload's model and inputs through the lower layers' probes, and
 * reports the per-layer metrics, a self-time table and a Chrome trace.
 * The last line of standard output is the JSON result; the exit status
 * is nonzero when any item failed.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "harness.hpp"
#include "model_cache.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace vboost;
using namespace vboost::perfbench;

namespace {

struct Options
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cacheDir = ".bench_build/model_cache";
    std::string outDir = ".bench_build/results";
    std::string reference;
    bool writeReference = false;
};

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 3;

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "error: " << error << "\n"
              << "usage: vboost_perfbench warm --cache-dir <dir>\n"
                 "       vboost_perfbench run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n"
                 "                            [--cache-dir <dir>] "
                 "[--out-dir <dir>] [--reference <file>]\n"
                 "                            [--write-reference]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("missing command");
    Options o;
    o.command = argv[1];
    if (o.command != "warm" && o.command != "run")
        usage("unknown command '" + o.command + "'");
    const auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage(std::string(argv[i]) + " requires a value");
        return argv[++i];
    };
    const auto number = [&](int &i) {
        const std::string flag = argv[i];
        const std::string text = value(i);
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || v < 0)
            usage(flag + " expects a non-negative number, got '" + text + "'");
        return v;
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") {
            o.workload = value(i);
        } else if (a == "--seed") {
            o.seed = static_cast<std::uint64_t>(number(i));
        } else if (a == "--seconds") {
            o.seconds = number(i);
        } else if (a == "--trace") {
            o.trace = number(i) != 0.0;
        } else if (a == "--cache-dir") {
            o.cacheDir = value(i);
        } else if (a == "--out-dir") {
            o.outDir = value(i);
        } else if (a == "--reference") {
            o.reference = value(i);
        } else if (a == "--write-reference") {
            o.writeReference = true;
        } else {
            usage("unknown option '" + a + "'");
        }
    }
    if (o.command == "run") {
        bool known = false;
        for (const std::string &n : workloadNames())
            known = known || n == o.workload;
        if (!known)
            usage("--workload must be fig14_mc, serve_cluster or "
                  "matic_train");
    }
    return o;
}

int
warm(const Options &o)
{
    for (const ModelSpec &spec : {mnistFcSpec(), alexNetSpec()}) {
        const bool trained = warmModel(spec, o.cacheDir);
        std::cout << "model cache: " << spec.fileName()
                  << (trained ? " trained" : " warm") << '\n';
    }
    return 0;
}

void
printMetrics(const Metrics &m)
{
    for (const auto &[name, metric] : m) {
        std::cout << "  " << std::left << std::setw(40) << name << ' '
                  << std::setprecision(6) << metric.value << ' '
                  << metric.unit << '\n';
    }
}

std::string
hostLine(const HostInfo &h)
{
    return "{\"cpu\": " + jsonString(h.cpu) +
           ", \"nproc\": " + std::to_string(h.nproc) +
           ", \"backend\": " + jsonString(h.backend) +
           ", \"isa\": " + jsonString(h.isa) +
           ", \"compiler\": " + jsonString(h.compiler) +
           ", \"build_type\": " + jsonString(h.buildType) + "}";
}

int
run(const Options &o)
{
    setQuiet(true);
    const HostInfo host = hostInfo();
    std::cout << "workload " << o.workload << "  seed " << o.seed
              << "  threads " << kWorkloadThreads << "  seconds "
              << o.seconds << "  trace " << (o.trace ? 1 : 0) << '\n'
              << "host " << hostLine(host) << '\n';

    // Set-up, several times: models from the warm cache, datasets,
    // traces, the planner's accuracy curve.
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < kSetups; ++k) {
        w.reset();
        const auto t0 = std::chrono::steady_clock::now();
        w = makeWorkload(o.workload, o.seed, o.cacheDir);
        setup_s.push_back(secondsSince(t0));
    }

    const ReferenceDigests ref = o.writeReference
                                     ? ReferenceDigests{}
                                     : ReferenceDigests::load(o.reference);
    DigestChecker chk(ref, o.seed, o.workload);
    SpanRecorder rec(false);
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Unit wall times, untraced [0] and traced [1].
    std::vector<double> unit_s[2];
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t unit = 0;
    do {
        const bool traced = o.trace && unit % 2 == 1;
        rec.setEnabled(traced);
        rec.setRun(unit);
        const auto t0 = std::chrono::steady_clock::now();
        try {
            SpanRecorder::Scope span(rec, "bench.unit");
            const UnitOutcome u = w->runUnit(rec, chk);
            attempted += u.attempted;
            failed += u.failed;
        } catch (const std::exception &e) {
            std::cerr << "unit " << unit << " failed: " << e.what() << '\n';
            attempted += w->itemsPerUnit();
            failed += w->itemsPerUnit();
        }
        unit_s[traced ? 1 : 0].push_back(secondsSince(t0));
        ++unit;
    } while (secondsSince(start) < o.seconds ||
             (o.trace && unit_s[1].empty()));

    Metrics metrics;
    std::vector<std::string> notes;
    const std::string stem = o.outDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0");
    std::filesystem::create_directories(o.outDir);
    try {
        if (o.trace) {
            rec.setEnabled(true);
            rec.setRun(unit);
            runProbes(w->probeInputs(), rec, metrics);
            w->perLayer(rec, metrics);
            metrics["obs.trace_overhead_pct"] = {
                (median(unit_s[1]) / median(unit_s[0]) - 1.0) * 100.0, "%"};
            for (const auto &[name, u] : perLayerMetricUnits())
                metrics.emplace(name, Metric{0.0, u});
            if (metrics.size() != perLayerMetricUnits().size())
                fatal("per-layer metrics out of sync with the metric list");
            std::ofstream chrome(stem + ".chrome.json");
            rec.writeChromeTrace(chrome);
            std::cout << "self time by layer (s):\n";
            for (const auto &[layer, s] : rec.selfSecondsByLayer())
                std::cout << "  " << std::left << std::setw(12) << layer
                          << ' ' << std::setprecision(6) << s << '\n';
            std::cout << "self time by span (s):\n";
            for (const auto &[name, s] : rec.selfSecondsByName())
                std::cout << "  " << std::left << std::setw(36) << name
                          << ' ' << std::setprecision(6) << s << '\n';
            std::cout << "chrome trace: " << stem << ".chrome.json\n";
        } else {
            w->endToEnd(metrics, notes);
            metrics["setup_s"] = {median(setup_s), "s"};
            metrics["peak_rss_mb"] = {peakRssMiB(), "MiB"};
            notes.push_back("setup_s = " + describe(summarize(setup_s)));
        }
    } catch (const std::exception &e) {
        std::cerr << "metrics failed: " << e.what() << '\n';
        failed = std::max<std::uint64_t>(failed, 1);
        attempted = std::max(attempted, failed);
        metrics.clear();
    }

    const std::size_t ref_items = chk.referenceItems();
    std::cout << "metrics:\n";
    printMetrics(metrics);
    for (const std::string &n : notes)
        std::cout << "  " << n << '\n';
    std::cout << "  failed_ratio = "
              << static_cast<double>(failed) /
                     static_cast<double>(std::max<std::uint64_t>(attempted, 1))
              << " (" << failed << " of " << attempted << " items; "
              << ref_items << " distinct items have reference digests"
              << (ref_items == 0 ? ", repeat-stability checked only" : "")
              << ")\n";

    if (o.writeReference && failed == 0) {
        ReferenceDigests table = ReferenceDigests::load(o.reference);
        table.set(o.seed, o.workload, chk.firstDigests());
        table.save(o.reference);
        std::cout << "wrote reference digests to " << o.reference << '\n';
    }

    const bool correct = failed == 0;
    const std::string line = resultLine(correct, attempted, failed, metrics);
    {
        std::ofstream out(stem + ".json");
        out << "{\"host\": " << hostLine(host)
            << ", \"workload\": " << jsonString(o.workload)
            << ", \"seed\": " << o.seed << ", \"result\": " << line << "}\n";
    }
    std::cout << line << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    try {
        return o.command == "warm" ? warm(o) : run(o);
    } catch (const std::exception &e) {
        std::cerr << "vboost_perfbench: " << e.what() << '\n';
        return 1;
    }
}
