/**
 * @file
 * Deterministic metrics registry (DESIGN.md §11): named counters,
 * double-precision sums, gauges and fixed-bucket histograms with
 * hierarchical dotted names and ordered label sets
 * (`serve.queue.depth`, `resil.retry.count{bank=3}`). The registry is
 * the shared instrumentation substrate of the fi, resilience and serve
 * stacks, so it obeys the §7 determinism discipline end to end:
 *
 *  - **Ordered containers only.** Metrics live in a `std::map` keyed
 *    by (name, labels); labels are a `std::map` themselves. Iteration,
 *    serialization and the fingerprint are pure functions of the
 *    registry contents, never of hash-table internals.
 *  - **Mergeable in caller-fixed order.** merge() combines another
 *    registry key-ordered; callers that fan work out must merge
 *    per-job registries back in job order (the same contract as
 *    `ResilienceStats::merge`), which makes every floating-point sum
 *    order-fixed and the result thread-count invariant.
 *  - **Bitwise fingerprint.** fingerprint() is an FNV-1a digest over
 *    every metric (key order, raw double bits). Two runs with equal
 *    fingerprints produced bitwise identical telemetry — the
 *    determinism acceptance check for observability output. Metrics
 *    fed by wall-clock state (e.g. the log rate limiter) are excluded
 *    via excludeFromFingerprint() so they stay visible in artifacts
 *    without breaking the invariance contract.
 *
 * Handles (Counter/Sum/Gauge/Histogram) wrap stable `std::map` node
 * pointers, so hot paths resolve a metric once and bump it cheaply.
 */

#ifndef VBOOST_OBS_METRICS_HPP
#define VBOOST_OBS_METRICS_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace vboost::obs {

/** Ordered label set attached to a metric instance. */
using Labels = std::map<std::string, std::string>;

/** `labels` plus every label of `base` they do not set: a sink's
 *  attached base labels under a metric's own (which win). */
Labels withBase(Labels labels, const Labels &base);

/** The four metric families of the registry. */
enum class MetricKind
{
    /** Monotone integer event count. */
    Counter,
    /** Monotone double accumulator (energy in joules, tick totals). */
    Sum,
    /** Last-written double sample (final queue depth, a percentile). */
    Gauge,
    /** Fixed-bucket distribution of double observations. */
    Histogram,
};

/** Display name of a metric kind ("counter"/"sum"/"gauge"/"histogram"). */
const char *toString(MetricKind kind);

/** Canonical metric identity: dotted name plus ordered labels. */
struct MetricKey
{
    std::string name;
    Labels labels;

    /** Canonical rendering: `name` or `name{k=v,k2=v2}` (key order). */
    std::string render() const;

    friend bool operator==(const MetricKey &, const MetricKey &) = default;
    friend bool
    operator<(const MetricKey &a, const MetricKey &b)
    {
        return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
    }
};

/**
 * Storage of one metric instance. Exposed read-only through
 * MetricsRegistry::metrics() so serializers (bench JSON writers) can
 * walk the registry without a visitor API; mutate only through the
 * typed handles.
 */
struct Metric
{
    MetricKind kind = MetricKind::Counter;
    /** Counter value / histogram observation count. */
    std::uint64_t count = 0;
    /** Sum value / gauge value / histogram observation sum. */
    double sum = 0.0;
    /** Whether a gauge was ever set (merge takes set gauges only). */
    bool gaugeSet = false;
    /** Histogram upper bounds, strictly increasing; the final bucket
     *  is the implicit +inf overflow. */
    std::vector<double> bounds;
    /** Per-bucket counts; size bounds.size() + 1. */
    std::vector<std::uint64_t> buckets;
    /** Smallest / largest histogram observation (count > 0 only). */
    double min = 0.0;
    double max = 0.0;
};

class MetricsRegistry;

/** Handle to a monotone integer counter. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { m_->count += n; }
    std::uint64_t value() const { return m_->count; }

  private:
    friend class MetricsRegistry;
    explicit Counter(Metric *m) : m_(m) {}
    Metric *m_;
};

/** Handle to a monotone double accumulator. */
class Sum
{
  public:
    void add(double v) { m_->sum += v; }
    double value() const { return m_->sum; }

  private:
    friend class MetricsRegistry;
    explicit Sum(Metric *m) : m_(m) {}
    Metric *m_;
};

/** Handle to a last-written-sample gauge. */
class Gauge
{
  public:
    void
    set(double v)
    {
        m_->sum = v;
        m_->gaugeSet = true;
    }
    double value() const { return m_->sum; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(Metric *m) : m_(m) {}
    Metric *m_;
};

/** Handle to a fixed-bucket histogram. */
class Histogram
{
  public:
    /** Record one observation into its bucket. */
    void observe(double v);

    std::uint64_t count() const { return m_->count; }
    double sum() const { return m_->sum; }
    const std::vector<std::uint64_t> &buckets() const
    { return m_->buckets; }

  private:
    friend class MetricsRegistry;
    explicit Histogram(Metric *m) : m_(m) {}
    Metric *m_;
};

/** `n` evenly spaced upper bounds from `lo` to `hi` inclusive. */
std::vector<double> linearBounds(double lo, double hi, int n);

/** `n` geometric upper bounds: lo, lo*factor, lo*factor^2, ... */
std::vector<double> exponentialBounds(double lo, double factor, int n);

/**
 * The registry. Metrics are created on first access (name + labels +
 * kind); re-accessing an existing key with a different kind or
 * different histogram bounds is a fatal() configuration error, so two
 * subsystems can never silently alias one metric with two meanings.
 */
class MetricsRegistry
{
  public:
    /** Get-or-create a counter. */
    Counter counter(const std::string &name, const Labels &labels = {});

    /** Get-or-create a double sum. */
    Sum sum(const std::string &name, const Labels &labels = {});

    /** Get-or-create a gauge. */
    Gauge gauge(const std::string &name, const Labels &labels = {});

    /**
     * Get-or-create a histogram with the given upper bounds (must be
     * non-empty and strictly increasing; an existing histogram must
     * have identical bounds).
     */
    Histogram histogram(const std::string &name,
                        const std::vector<double> &bounds,
                        const Labels &labels = {});

    /**
     * Combine another registry into this one, key-ordered: counters,
     * sums and histograms add; set gauges overwrite. Callers own the
     * §7 obligation to merge per-job registries in job order.
     */
    void merge(const MetricsRegistry &other);

    /**
     * FNV-1a digest over every non-excluded metric: key rendering,
     * kind, and raw value bits, in key order. Equal fingerprints mean
     * bitwise identical telemetry.
     */
    std::uint64_t fingerprint() const;

    /**
     * Exclude every metric instance named `name` from fingerprint().
     * For telemetry that is legitimately wall-clock coupled (log
     * rate-limiter totals): visible in artifacts, outside the
     * determinism contract. The exclusion set merges with merge().
     */
    void excludeFromFingerprint(const std::string &name);

    /** All metrics, key-ordered (serialization surface). */
    const std::map<MetricKey, Metric> &metrics() const
    { return metrics_; }

    /** Names excluded from the fingerprint. */
    const std::set<std::string> &fingerprintExclusions() const
    { return excluded_; }

    /** Number of metric instances. */
    std::size_t size() const { return metrics_.size(); }

    bool empty() const { return metrics_.empty(); }

    /**
     * Deterministic text dump, one metric per line in key order
     * (`counter fi.trials{kind=resilient} 12`). The human-readable
     * counterpart of the benches' JSON artifact.
     */
    void writeText(std::ostream &os) const;

  private:
    Metric &get(MetricKind kind, const std::string &name,
                const Labels &labels, const std::vector<double> *bounds);

    std::map<MetricKey, Metric> metrics_;
    std::set<std::string> excluded_;
};

} // namespace vboost::obs

#endif // VBOOST_OBS_METRICS_HPP
