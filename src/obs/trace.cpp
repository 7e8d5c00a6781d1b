#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
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

/** Minimal JSON string escaper (control chars, quote, backslash). */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeJsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

void
writeArgs(std::ostream &os, const TraceEvent &e)
{
    os << "\"args\":{";
    bool first = true;
    for (const auto &[k, v] : e.numArgs) {
        if (!first)
            os << ',';
        first = false;
        writeJsonString(os, k);
        os << ':';
        writeJsonNumber(os, v);
    }
    for (const auto &[k, v] : e.strArgs) {
        if (!first)
            os << ',';
        first = false;
        writeJsonString(os, k);
        os << ':';
        writeJsonString(os, v);
    }
    os << '}';
}

} // namespace

void
Tracer::setProcessName(std::uint64_t pid, const std::string &name)
{
    processNames_[pid] = name;
}

void
Tracer::setThreadName(std::uint64_t pid, std::uint64_t tid,
                      const std::string &name)
{
    threadNames_[{pid, tid}] = name;
}

Tracer::SpanId
Tracer::begin(std::uint64_t pid, std::uint64_t tid, const std::string &name,
              std::uint64_t ts)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.open = true;
    events_.push_back(std::move(e));
    return events_.size() - 1;
}

void
Tracer::end(SpanId id, std::uint64_t ts)
{
    if (id >= events_.size())
        panic("Tracer::end: span id ", id, " out of range");
    TraceEvent &e = events_[id];
    if (!e.open)
        panic("Tracer::end: span '", e.name, "' already closed");
    if (ts < e.ts) {
        panic("Tracer::end: span '", e.name, "' ends at tick ", ts,
              " before its begin tick ", e.ts);
    }
    e.dur = ts - e.ts;
    e.open = false;
}

void
Tracer::complete(std::uint64_t pid, std::uint64_t tid,
                 const std::string &name, std::uint64_t ts,
                 std::uint64_t dur,
                 const std::map<std::string, double> &num_args,
                 const std::map<std::string, std::string> &str_args)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'X';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.dur = dur;
    e.numArgs = num_args;
    e.strArgs = str_args;
    events_.push_back(std::move(e));
}

void
Tracer::instant(std::uint64_t pid, std::uint64_t tid,
                const std::string &name, std::uint64_t ts,
                const std::map<std::string, double> &num_args,
                const std::map<std::string, std::string> &str_args)
{
    TraceEvent e;
    e.name = name;
    e.phase = 'i';
    e.pid = pid;
    e.tid = tid;
    e.ts = ts;
    e.numArgs = num_args;
    e.strArgs = str_args;
    events_.push_back(std::move(e));
}

void
Tracer::setNumArg(SpanId id, const std::string &key, double value)
{
    if (id >= events_.size())
        panic("Tracer::setNumArg: span id ", id, " out of range");
    events_[id].numArgs[key] = value;
}

void
Tracer::merge(const Tracer &other)
{
    if (&other == this)
        panic("Tracer::merge: cannot merge a tracer into itself");
    events_.insert(events_.end(), other.events_.begin(),
                   other.events_.end());
    for (const auto &[pid, name] : other.processNames_)
        processNames_[pid] = name;
    for (const auto &[key, name] : other.threadNames_)
        threadNames_[key] = name;
}

std::size_t
Tracer::openSpans() const
{
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [](const TraceEvent &e) { return e.open; }));
}

std::uint64_t
Tracer::fingerprint() const
{
    std::uint64_t h = fnv::kTruncatedBasis;
    for (const auto &[pid, name] : processNames_) {
        fnv::mixU64(h, pid);
        hashString(h, name);
    }
    for (const auto &[key, name] : threadNames_) {
        fnv::mixU64(h, key.first);
        fnv::mixU64(h, key.second);
        hashString(h, name);
    }
    for (const TraceEvent &e : events_) {
        hashString(h, e.name);
        fnv::mixU64(h, static_cast<std::uint64_t>(e.phase));
        fnv::mixU64(h, e.pid);
        fnv::mixU64(h, e.tid);
        fnv::mixU64(h, e.ts);
        fnv::mixU64(h, e.dur);
        fnv::mixU64(h, e.open ? 1 : 0);
        for (const auto &[k, v] : e.numArgs) {
            hashString(h, k);
            fnv::mixDouble(h, v);
        }
        for (const auto &[k, v] : e.strArgs) {
            hashString(h, k);
            hashString(h, v);
        }
    }
    return h;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",";
        first = false;
        os << "\n";
    };
    for (const auto &[pid, name] : processNames_) {
        sep();
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"args\":{\"name\":";
        writeJsonString(os, name);
        os << "}}";
    }
    for (const auto &[key, name] : threadNames_) {
        sep();
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
           << ",\"tid\":" << key.second << ",\"args\":{\"name\":";
        writeJsonString(os, name);
        os << "}}";
    }
    for (const TraceEvent &e : events_) {
        sep();
        os << "{\"name\":";
        writeJsonString(os, e.name);
        os << ",\"ph\":\"" << e.phase << "\",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts;
        if (e.phase == 'X')
            os << ",\"dur\":" << e.dur;
        if (e.phase == 'i')
            os << ",\"s\":\"t\"";
        os << ',';
        writeArgs(os, e);
        os << '}';
    }
    os << "\n]}\n";
}

void
Tracer::writeTextSummary(std::ostream &os) const
{
    struct NameStats
    {
        std::uint64_t count = 0;
        std::uint64_t totalTicks = 0;
        std::uint64_t minTicks = 0;
        std::uint64_t maxTicks = 0;
    };
    std::map<std::string, NameStats> byName;
    for (const TraceEvent &e : events_) {
        if (e.phase != 'X' && e.phase != 'i')
            continue;
        NameStats &s = byName[e.name];
        if (s.count == 0) {
            s.minTicks = e.dur;
            s.maxTicks = e.dur;
        } else {
            s.minTicks = std::min(s.minTicks, e.dur);
            s.maxTicks = std::max(s.maxTicks, e.dur);
        }
        s.count += 1;
        s.totalTicks += e.dur;
    }
    os << "# " << events_.size() << " trace events, fingerprint "
       << fingerprint() << "\n";
    for (const auto &[name, s] : byName) {
        os << name << " count=" << s.count << " total=" << s.totalTicks
           << " min=" << s.minTicks << " max=" << s.maxTicks << "\n";
    }
}

} // namespace vboost::obs
