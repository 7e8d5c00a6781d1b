/**
 * @file
 * Measurement plumbing of the vboost benchmark: sample summaries
 * (median and the highest percentile with ten samples beyond it), host
 * wall-clock spans recorded around the benchmark's own calls into each
 * simulator layer (with parent links, run ids, per-layer self time and
 * a Chrome trace export through obs::Tracer), output-digest checking
 * against the reference values kept with the benchmark, the host
 * fingerprint, and the flat metric record every run prints.
 *
 * Nothing here reaches inside the simulator: spans wrap public calls
 * from the outside, so tracing is a property of the benchmark, not of
 * the code it measures.
 */

#ifndef VBOOST_PERFBENCH_HARNESS_HPP
#define VBOOST_PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace vboost::perfbench {

/** Worker threads every workload and probe runs at (fixed by the
 *  workload definitions; 3 of the defining host's 4 vCPUs). */
inline constexpr int kWorkloadThreads = 3;

// ---- Sample summaries ----------------------------------------------

/**
 * Percentile q in [0, 1] of `values` by linear interpolation between
 * closest ranks (the numpy/statistics "inclusive" definition). Fatal on
 * an empty sample.
 */
double percentile(std::vector<double> values, double q);

/** Median of `values` (percentile 0.5). */
double median(const std::vector<double> &values);

/** A timing sample reported as a median plus the highest standard
 *  percentile (90th, 99th) that still has at least ten samples beyond
 *  it, with the sample count. */
struct Summary
{
    std::size_t count = 0;
    double median = 0.0;
    /** Highest supported percentile as a fraction (0.5 when the sample
     *  is too small for a tail percentile). */
    double tailQuantile = 0.5;
    double tail = 0.0;
};

Summary summarize(const std::vector<double> &values);

/** "812.3 (p50, n=24)" style rendering of a summary. */
std::string describe(const Summary &s, int digits = 3);

// ---- Host-time spans -----------------------------------------------

/** One recorded host wall-clock span. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in SpanRecorder::spans(), or -1. */
    int parent = -1;
    /** Work unit (sweep / window replay / training round / probe) the
     *  span belongs to. */
    std::uint64_t run = 0;

    double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

/**
 * Records nested spans on the calling thread. Disabled recorders make
 * scopes no-ops (no clock reads), which is how the untraced runs that
 * produce the end-to-end metrics stay untouched.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = true);

    void setEnabled(bool on) { enabled_ = on; }

    /** Work unit id stamped on spans opened from now on. */
    void setRun(std::uint64_t run) { run_ = run; }

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_ = -1;
    };

    /** Open a span explicitly; returns its index (-1 when disabled). */
    int begin(std::string name);
    /** Close span `index` (no-op for -1). Spans close innermost first. */
    void end(int index);

    /** Append an already-measured span under `parent` (-1 = root);
     *  returns its index. */
    int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
            int parent);

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations in seconds of every closed span named `name`. */
    std::vector<double> durations(const std::string &name) const;

    /** Self time per span name: each span's duration minus the part of
     *  its interval its child spans cover, summed over spans. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Self time per layer: the span-name prefix before the first '.'
     *  ("dnn.backend.gemm" -> "dnn"). */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Chrome trace_event JSON of every span (microsecond timestamps
     *  relative to the first span; parent and run as arguments). */
    void writeChromeTrace(std::ostream &os) const;

    /** Nanoseconds on the steady clock since the recorder was made. */
    std::int64_t nowNs() const;

  private:
    bool enabled_;
    std::uint64_t run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::chrono::steady_clock::time_point origin_;
};

/** Seconds elapsed since `t0` on the steady clock. */
double secondsSince(std::chrono::steady_clock::time_point t0);

// ---- Output digests --------------------------------------------------

/**
 * Reference digests kept with the benchmark: one line per work item,
 * `<seed> <workload> <item> <hex digest>`; '#' starts a comment.
 */
class ReferenceDigests
{
  public:
    /** Parse `path`; a missing file yields an empty table. Fatal on a
     *  malformed line. */
    static ReferenceDigests load(const std::string &path);

    std::optional<std::uint64_t> find(std::uint64_t seed,
                                      const std::string &workload,
                                      std::size_t item) const;

    /** Lines for (seed, workload), replacing earlier ones, in the file
     *  format; used to regenerate the table after a deliberate change
     *  of modeled behaviour. */
    void set(std::uint64_t seed, const std::string &workload,
             const std::vector<std::uint64_t> &digests);
    void save(const std::string &path) const;

  private:
    std::map<std::tuple<std::uint64_t, std::string, std::size_t>,
             std::uint64_t>
        table_;
};

/**
 * Checks the digest of each work item against the reference table and
 * against the first time the same item ran in this process (repeated
 * units must reproduce bit for bit, for any seed).
 */
class DigestChecker
{
  public:
    DigestChecker(const ReferenceDigests &ref, std::uint64_t seed,
                  std::string workload);

    /** Record item `item`'s digest; false on a mismatch. */
    bool check(std::size_t item, std::uint64_t digest);

    /** Digests in item order from the first occurrence of each item. */
    std::vector<std::uint64_t> firstDigests() const;

    std::size_t referenceItems() const { return referenceItems_; }

  private:
    const ReferenceDigests &ref_;
    std::uint64_t seed_;
    std::string workload_;
    std::map<std::size_t, std::uint64_t> first_;
    std::size_t referenceItems_ = 0;
};

// ---- Host fingerprint and process stats ----------------------------

/** Where a number was measured; printed with every result so figures
 *  from different hosts are never compared silently. */
struct HostInfo
{
    std::string cpu;
    unsigned nproc = 0;
    std::string backend;
    std::string isa;
    std::string compiler;
    std::string buildType;
};

HostInfo hostInfo();

/** Peak resident set size of this process in MiB (getrusage). */
double peakRssMiB();


// ---- Metric record ---------------------------------------------------

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Ordered name -> metric record. */
using Metrics = std::map<std::string, Metric>;

/** Shortest round-trip decimal rendering of a double (JSON number). */
std::string jsonNumber(double v);

/** Minimal JSON string escaping. */
std::string jsonString(const std::string &s);

/** The single-line result object of a run. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics &metrics);

} // namespace vboost::perfbench

#endif // VBOOST_PERFBENCH_HARNESS_HPP
