#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/logging.hpp"
#include "dnn/backend/backend.hpp"
#include "obs/trace.hpp"

namespace vboost::perfbench {

// ---- Sample summaries ----------------------------------------------

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        fatal("percentile: empty sample");
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.count = values.size();
    s.median = median(values);
    // The highest percentile with at least ten samples beyond it.
    s.tailQuantile = 0.5;
    for (double q : {0.9, 0.99}) {
        if (static_cast<double>(s.count) * (1.0 - q) >= 10.0 - 1e-9)
            s.tailQuantile = q;
    }
    s.tail = percentile(values, s.tailQuantile);
    return s;
}

std::string
describe(const Summary &s, int digits)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(digits);
    os << s.median << " (p50";
    if (s.tailQuantile > 0.5) {
        os << ", p" << static_cast<int>(std::lround(s.tailQuantile * 100))
           << ' ' << s.tail;
    }
    os << ", n=" << s.count << ')';
    return os.str();
}

// ---- Host-time spans -----------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanRecorder::begin(std::string name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run_;
    s.startNs = nowNs();
    s.endNs = s.startNs;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    if (index < 0)
        return;
    if (open_.empty() || open_.back() != index)
        fatal("SpanRecorder: span '", spans_[static_cast<std::size_t>(index)].name,
              "' closed out of order");
    spans_[static_cast<std::size_t>(index)].endNs = nowNs();
    open_.pop_back();
}

int
SpanRecorder::add(std::string name, std::int64_t start_ns,
                  std::int64_t end_ns, int parent)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.run = run_;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

SpanRecorder::Scope::Scope(SpanRecorder &rec, std::string name)
    : rec_(rec), index_(rec.begin(std::move(name)))
{}

SpanRecorder::Scope::~Scope() { rec_.end(index_); }

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.seconds());
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByName() const
{
    // Children of one parent do not overlap (single recording thread),
    // so the covered part of a span is the sum of its children.
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += spans_[i].seconds() - child_seconds[i];
    return out;
}

std::map<std::string, double>
SpanRecorder::selfSecondsByLayer() const
{
    std::map<std::string, double> out;
    for (const auto &[name, seconds] : selfSecondsByName())
        out[name.substr(0, name.find('.'))] += seconds;
    return out;
}

void
SpanRecorder::writeChromeTrace(std::ostream &os) const
{
    obs::Tracer tracer;
    tracer.setProcessName(0, "perfbench");
    tracer.setThreadName(0, 0, "caller");
    for (const Span &s : spans_) {
        tracer.complete(0, 0, s.name,
                        static_cast<std::uint64_t>(s.startNs / 1000),
                        static_cast<std::uint64_t>((s.endNs - s.startNs) / 1000),
                        {{"parent", static_cast<double>(s.parent)},
                         {"run", static_cast<double>(s.run)}});
    }
    tracer.writeChromeTrace(os);
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

// ---- Output digests --------------------------------------------------

ReferenceDigests
ReferenceDigests::load(const std::string &path)
{
    ReferenceDigests ref;
    std::ifstream in(path);
    if (!in)
        return ref;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        std::uint64_t seed = 0;
        std::string workload;
        std::size_t item = 0;
        std::string hex;
        if (!(fields >> seed)) {
            if (line.find_first_not_of(" \t\r") == std::string::npos)
                continue;
            fatal(path, ":", lineno, ": malformed reference line");
        }
        if (!(fields >> workload >> item >> hex))
            fatal(path, ":", lineno, ": malformed reference line");
        std::uint64_t digest = 0;
        const char *first = hex.data();
        if (hex.rfind("0x", 0) == 0)
            first += 2;
        const auto [ptr, ec] =
            std::from_chars(first, hex.data() + hex.size(), digest, 16);
        if (ec != std::errc() || ptr != hex.data() + hex.size())
            fatal(path, ":", lineno, ": bad digest '", hex, "'");
        ref.table_[{seed, workload, item}] = digest;
    }
    return ref;
}

std::optional<std::uint64_t>
ReferenceDigests::find(std::uint64_t seed, const std::string &workload,
                       std::size_t item) const
{
    const auto it = table_.find({seed, workload, item});
    if (it == table_.end())
        return std::nullopt;
    return it->second;
}

void
ReferenceDigests::set(std::uint64_t seed, const std::string &workload,
                      const std::vector<std::uint64_t> &digests)
{
    std::erase_if(table_, [&](const auto &entry) {
        return std::get<0>(entry.first) == seed &&
               std::get<1>(entry.first) == workload;
    });
    for (std::size_t i = 0; i < digests.size(); ++i)
        table_[{seed, workload, i}] = digests[i];
}

void
ReferenceDigests::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write reference digests to ", path);
    out << "# <seed> <workload> <item> <digest>: output digests of each "
           "work item.\n"
           "# Regenerate with run.py --write-reference only after a "
           "deliberate change\n# of modeled behaviour.\n";
    for (const auto &[key, digest] : table_) {
        char hex[17] = {};
        std::to_chars(hex, hex + 16, digest, 16);
        out << std::get<0>(key) << ' ' << std::get<1>(key) << ' '
            << std::get<2>(key) << " 0x" << hex << '\n';
    }
}

DigestChecker::DigestChecker(const ReferenceDigests &ref, std::uint64_t seed,
                             std::string workload)
    : ref_(ref), seed_(seed), workload_(std::move(workload))
{}

bool
DigestChecker::check(std::size_t item, std::uint64_t digest)
{
    bool ok = true;
    if (const auto expected = ref_.find(seed_, workload_, item)) {
        if (!first_.count(item))
            ++referenceItems_;
        ok = *expected == digest;
    }
    const auto [it, inserted] = first_.emplace(item, digest);
    if (!inserted && it->second != digest)
        ok = false;
    return ok;
}

std::vector<std::uint64_t>
DigestChecker::firstDigests() const
{
    std::vector<std::uint64_t> out;
    for (const auto &[item, digest] : first_)
        out.push_back(digest);
    return out;
}

// ---- Host fingerprint and process stats ----------------------------

namespace {

std::string
cpuBrand()
{
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

} // namespace

HostInfo
hostInfo()
{
    HostInfo h;
    h.cpu = cpuBrand();
    h.nproc = std::thread::hardware_concurrency();
    h.backend = std::string(dnn::activeBackend().name());
    if (h.backend == "reference") {
        h.isa = "scalar";
    } else {
        // The AVX-512 GEMM tier runs only when its translation unit was
        // built and the CPU supports it (the registry's runtime gate).
        __builtin_cpu_init();
        h.isa = PERFBENCH_AVX512_TU && __builtin_cpu_supports("avx512f")
                    ? "avx2+avx512f"
                    : "avx2";
    }
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    h.buildType = PERFBENCH_BUILD_TYPE;
    return h;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---- Metric record ---------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        fatal("jsonNumber: non-finite metric value");
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, ptr);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + '"';
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}}";
}

} // namespace vboost::perfbench
