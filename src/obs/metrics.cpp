#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/fnv.hpp"
#include "common/logging.hpp"

namespace vboost::obs {

namespace {

/** The bytes, then the length: ("ab", "c") and ("a", "bc") differ. */
void
hashString(std::uint64_t &h, const std::string &s)
{
    fnv::mixBytes(h, s);
    fnv::mixU64(h, s.size());
}

bool
validName(const std::string &name)
{
    if (name.empty())
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        const bool alnum = (c >= 'a' && c <= 'z') ||
                           (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
        return alnum || c == '.' || c == '_' || c == '-';
    });
}

} // namespace

Labels
withBase(Labels labels, const Labels &base)
{
    // insert() keeps existing keys, so the explicit labels win.
    labels.insert(base.begin(), base.end());
    return labels;
}

const char *
toString(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Sum: return "sum";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "unknown";
}

std::string
MetricKey::render() const
{
    std::string out = name;
    if (labels.empty())
        return out;
    out.push_back('{');
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out.push_back(',');
        first = false;
        out += k;
        out.push_back('=');
        out += v;
    }
    out.push_back('}');
    return out;
}

void
Histogram::observe(double v)
{
    const auto &bounds = m_->bounds;
    std::size_t bucket = bounds.size();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (v <= bounds[i]) {
            bucket = i;
            break;
        }
    }
    m_->buckets[bucket] += 1;
    if (m_->count == 0) {
        m_->min = v;
        m_->max = v;
    } else {
        m_->min = std::min(m_->min, v);
        m_->max = std::max(m_->max, v);
    }
    m_->count += 1;
    m_->sum += v;
}

std::vector<double>
linearBounds(double lo, double hi, int n)
{
    if (n < 1)
        fatal("linearBounds: need at least one bound, got ", n);
    if (!(lo < hi) && n > 1)
        fatal("linearBounds: lo ", lo, " must be below hi ", hi);
    std::vector<double> bounds;
    bounds.reserve(static_cast<std::size_t>(n));
    if (n == 1) {
        bounds.push_back(hi);
        return bounds;
    }
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (int i = 0; i < n; ++i)
        bounds.push_back(lo + step * static_cast<double>(i));
    return bounds;
}

std::vector<double>
exponentialBounds(double lo, double factor, int n)
{
    if (n < 1)
        fatal("exponentialBounds: need at least one bound, got ", n);
    if (lo <= 0.0 || factor <= 1.0) {
        fatal("exponentialBounds: need lo > 0 and factor > 1, got ", lo,
              " / ", factor);
    }
    std::vector<double> bounds;
    bounds.reserve(static_cast<std::size_t>(n));
    double v = lo;
    for (int i = 0; i < n; ++i) {
        bounds.push_back(v);
        v *= factor;
    }
    return bounds;
}

Counter
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    return Counter(&get(MetricKind::Counter, name, labels, nullptr));
}

Sum
MetricsRegistry::sum(const std::string &name, const Labels &labels)
{
    return Sum(&get(MetricKind::Sum, name, labels, nullptr));
}

Gauge
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    return Gauge(&get(MetricKind::Gauge, name, labels, nullptr));
}

Histogram
MetricsRegistry::histogram(const std::string &name,
                           const std::vector<double> &bounds,
                           const Labels &labels)
{
    if (bounds.empty())
        fatal("metric '", name, "': histogram needs at least one bound");
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        if (!(bounds[i - 1] < bounds[i])) {
            fatal("metric '", name, "': histogram bounds must be strictly",
                  " increasing (bound ", i, ": ", bounds[i - 1], " then ",
                  bounds[i], ")");
        }
    }
    return Histogram(&get(MetricKind::Histogram, name, labels, &bounds));
}

Metric &
MetricsRegistry::get(MetricKind kind, const std::string &name,
                     const Labels &labels, const std::vector<double> *bounds)
{
    if (!validName(name)) {
        fatal("invalid metric name '", name,
              "': want non-empty [a-zA-Z0-9._-]");
    }
    MetricKey key{name, labels};
    auto it = metrics_.find(key);
    if (it == metrics_.end()) {
        Metric m;
        m.kind = kind;
        if (bounds) {
            m.bounds = *bounds;
            m.buckets.assign(bounds->size() + 1, 0);
        }
        it = metrics_.emplace(std::move(key), std::move(m)).first;
    } else {
        Metric &m = it->second;
        if (m.kind != kind) {
            fatal("metric '", key.render(), "' already registered as ",
                  toString(m.kind), ", requested as ", toString(kind));
        }
        if (bounds && m.bounds != *bounds)
            fatal("metric '", key.render(), "': histogram bounds mismatch");
    }
    return it->second;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (const auto &[key, src] : other.metrics_) {
        Metric &dst = get(src.kind, key.name, key.labels,
                          src.kind == MetricKind::Histogram ? &src.bounds
                                                            : nullptr);
        switch (src.kind) {
          case MetricKind::Counter:
            dst.count += src.count;
            break;
          case MetricKind::Sum:
            dst.sum += src.sum;
            break;
          case MetricKind::Gauge:
            if (src.gaugeSet) {
                dst.sum = src.sum;
                dst.gaugeSet = true;
            }
            break;
          case MetricKind::Histogram:
            for (std::size_t i = 0; i < src.buckets.size(); ++i)
                dst.buckets[i] += src.buckets[i];
            if (src.count > 0) {
                dst.min = dst.count == 0 ? src.min
                                         : std::min(dst.min, src.min);
                dst.max = dst.count == 0 ? src.max
                                         : std::max(dst.max, src.max);
            }
            dst.count += src.count;
            dst.sum += src.sum;
            break;
        }
    }
    excluded_.insert(other.excluded_.begin(), other.excluded_.end());
}

std::uint64_t
MetricsRegistry::fingerprint() const
{
    std::uint64_t h = fnv::kTruncatedBasis;
    for (const auto &[key, m] : metrics_) {
        if (excluded_.count(key.name) > 0)
            continue;
        hashString(h, key.render());
        fnv::mixU64(h, static_cast<std::uint64_t>(m.kind));
        fnv::mixU64(h, m.count);
        fnv::mixDouble(h, m.sum);
        fnv::mixU64(h, m.gaugeSet ? 1 : 0);
        fnv::mixU64(h, m.bounds.size());
        for (const double b : m.bounds)
            fnv::mixDouble(h, b);
        for (const std::uint64_t c : m.buckets)
            fnv::mixU64(h, c);
        fnv::mixDouble(h, m.min);
        fnv::mixDouble(h, m.max);
    }
    return h;
}

void
MetricsRegistry::excludeFromFingerprint(const std::string &name)
{
    excluded_.insert(name);
}

void
MetricsRegistry::writeText(std::ostream &os) const
{
    os << "# " << metrics_.size() << " metrics, fingerprint "
       << fingerprint() << "\n";
    for (const auto &[key, m] : metrics_) {
        os << toString(m.kind) << " " << key.render() << " ";
        switch (m.kind) {
          case MetricKind::Counter:
            os << m.count;
            break;
          case MetricKind::Sum:
          case MetricKind::Gauge:
            os << m.sum;
            break;
          case MetricKind::Histogram:
            os << "count=" << m.count << " sum=" << m.sum;
            if (m.count > 0)
                os << " min=" << m.min << " max=" << m.max;
            break;
        }
        if (excluded_.count(key.name) > 0)
            os << " (unfingerprinted)";
        os << "\n";
    }
}

} // namespace vboost::obs
