/**
 * @file
 * bench_compare: the perf-trajectory regression gate (README
 * "Performance trajectory"). Compares a freshly produced
 * BENCH_perf.json against the committed baseline and enforces the
 * per-entry gate policy:
 *
 *  - `hard` kernel entries FAIL the run when the current ns/op
 *    regresses more than the tolerance (default 15%) over baseline.
 *  - `hard` derived entries (value + min_gate, e.g. the fig14
 *    speedup ratio) FAIL when the current value drops below
 *    min_gate * (1 - tolerance).
 *  - `soft` entries only emit a GitHub Actions `::warning`
 *    annotation on regression — they cover kernels whose ns/op is
 *    too noise-prone on shared CI runners for a hard gate.
 *  - An entry present in the baseline but missing from the current
 *    run is always an error (a silently dropped kernel would make
 *    the gate vacuous).
 *
 * Entries are matched by (kernel, backend, threads). Both files' host
 * fingerprints (the `host` object: CPU model, ISA tier, compiler,
 * build type) are printed, and a mismatch is flagged with a
 * `::warning`: absolute ns/op figures do not transfer across hosts.
 * The flag changes no gate. Exit status 0 when every hard gate
 * passes, 1 otherwise. Usage:
 *
 *   bench_compare <baseline.json> <current.json> [--tolerance 0.15]
 *
 * The parser below covers exactly the JSON dialect bench/json_writer
 * emits (objects, arrays, strings, numbers, bools, null — no
 * escapes beyond \" \\ \/ \b \f \n \r \t \uXXXX).
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ------------------------------------------------------ tiny JSON

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &f : fields)
            if (f.first == key)
                return &f.second;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::fprintf(stderr, "bench_compare: JSON parse error at byte %zu: %s\n",
                     pos_, why.c_str());
        std::exit(2);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("bad literal, expected ") + word);
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The writer never emits non-ASCII; keep it simple.
                out += static_cast<char>(code < 128 ? code : '?');
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    value()
    {
        switch (peek()) {
        case '{': {
            JsonValue v;
            v.kind = JsonValue::Kind::Object;
            ++pos_;
            if (consume('}'))
                return v;
            while (true) {
                std::string key = string();
                expect(':');
                v.fields.emplace_back(std::move(key), value());
                if (consume('}'))
                    return v;
                expect(',');
            }
        }
        case '[': {
            JsonValue v;
            v.kind = JsonValue::Kind::Array;
            ++pos_;
            if (consume(']'))
                return v;
            while (true) {
                v.items.push_back(value());
                if (consume(']'))
                    return v;
                expect(',');
            }
        }
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.text = string();
            return v;
        }
        case 't': {
            literal("true");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        case 'f': {
            literal("false");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        case 'n': {
            literal("null");
            return {};
        }
        default: {
            const std::size_t start = pos_;
            while (pos_ < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '-' || text_[pos_] == '+' ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == 'E'))
                ++pos_;
            if (pos_ == start)
                fail("unexpected character");
            JsonValue v;
            v.kind = JsonValue::Kind::Number;
            v.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                   nullptr);
            return v;
        }
        }
    }

    std::string text_;
    std::size_t pos_ = 0;
};

// ------------------------------------------------------ comparison

struct Entry
{
    std::string kernel, backend, gate;
    long long threads = 0;
    std::optional<double> nsPerOp;
    std::optional<double> value;
    std::optional<double> minGate;
};

using EntryKey = std::tuple<std::string, std::string, long long>;

std::string
str(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::String) {
        std::fprintf(stderr, "bench_compare: entry missing string field %s\n",
                     key);
        std::exit(2);
    }
    return v->text;
}

/** One BENCH_perf.json: its entries and its host fingerprint. */
struct PerfFile
{
    std::map<EntryKey, Entry> entries;
    /** "cpu=...; isa=...; compiler=...; build_type=...", or "not
     *  recorded" for files written before the host object existed. */
    std::string host = "not recorded";
};

std::string
hostLine(const JsonValue &host)
{
    std::string line;
    for (const char *key : {"cpu", "isa", "compiler", "build_type"}) {
        const JsonValue *v = host.find(key);
        if (!line.empty())
            line += "; ";
        line += std::string(key) + "=" +
                (v != nullptr && v->kind == JsonValue::Kind::String
                     ? v->text
                     : std::string("?"));
    }
    return line;
}

PerfFile
loadPerfFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "bench_compare: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonParser parser(buf.str());
    const JsonValue doc = parser.parse();
    const JsonValue *schema = doc.find("schema");
    if (schema == nullptr || schema->text != "vboost-bench-perf/1") {
        std::fprintf(stderr,
                     "bench_compare: %s: unsupported or missing schema "
                     "(want vboost-bench-perf/1)\n",
                     path.c_str());
        std::exit(2);
    }
    const JsonValue *entries = doc.find("entries");
    if (entries == nullptr || entries->kind != JsonValue::Kind::Array) {
        std::fprintf(stderr, "bench_compare: %s: no entries array\n",
                     path.c_str());
        std::exit(2);
    }
    PerfFile file;
    if (const JsonValue *host = doc.find("host");
        host != nullptr && host->kind == JsonValue::Kind::Object)
        file.host = hostLine(*host);
    std::map<EntryKey, Entry> &out = file.entries;
    for (const JsonValue &e : entries->items) {
        Entry entry;
        entry.kernel = str(e, "kernel");
        entry.backend = str(e, "backend");
        entry.gate = str(e, "gate");
        if (const JsonValue *t = e.find("threads"))
            entry.threads = static_cast<long long>(t->number);
        if (const JsonValue *v = e.find("ns_per_op"))
            entry.nsPerOp = v->number;
        if (const JsonValue *v = e.find("value"))
            entry.value = v->number;
        if (const JsonValue *v = e.find("min_gate"))
            entry.minGate = v->number;
        out[{entry.kernel, entry.backend, entry.threads}] = entry;
    }
    return file;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baseline_path, current_path;
    double tolerance = 0.15;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "bench_compare: --tolerance needs a value\n");
                return 2;
            }
            tolerance = std::strtod(argv[++i], nullptr);
            if (!(tolerance >= 0.0 && tolerance < 1.0)) {
                std::fprintf(stderr,
                             "bench_compare: tolerance must be in [0, 1)\n");
                return 2;
            }
        } else if (baseline_path.empty()) {
            baseline_path = arg;
        } else if (current_path.empty()) {
            current_path = arg;
        } else {
            std::fprintf(stderr, "bench_compare: unexpected argument %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (current_path.empty()) {
        std::fprintf(stderr,
                     "usage: bench_compare <baseline.json> <current.json> "
                     "[--tolerance 0.15]\n");
        return 2;
    }

    const PerfFile baseline_file = loadPerfFile(baseline_path);
    const PerfFile current_file = loadPerfFile(current_path);
    std::printf("baseline host: %s\n", baseline_file.host.c_str());
    std::printf("current host:  %s\n", current_file.host.c_str());
    if (baseline_file.host != current_file.host)
        std::printf("::warning title=bench_compare::host mismatch: the "
                    "baseline was measured on a different host (or build); "
                    "ns/op ratios below compare unlike machines\n");
    const auto &baseline = baseline_file.entries;
    const auto &current = current_file.entries;

    int hard_failures = 0, warnings = 0, checked = 0;
    for (const auto &[key, base] : baseline) {
        const auto it = current.find(key);
        const std::string label = base.kernel + " [" + base.backend +
                                  ", threads=" +
                                  std::to_string(base.threads) + "]";
        if (it == current.end()) {
            std::fprintf(stderr,
                         "FAIL %s: present in baseline but missing from "
                         "current run\n",
                         label.c_str());
            ++hard_failures;
            continue;
        }
        const Entry &cur = it->second;
        ++checked;

        if (base.value && base.minGate) {
            // Derived ratio entry: gate on the floor, not the baseline
            // (a faster-than-baseline reference leg must not fail a
            // still-passing ratio).
            if (!cur.value) {
                std::fprintf(stderr, "FAIL %s: current entry lost its value\n",
                             label.c_str());
                ++hard_failures;
                continue;
            }
            const double floor = *base.minGate * (1.0 - tolerance);
            const bool ok = *cur.value >= floor;
            std::printf("%s %s: value %.3f (gate >= %.3f, min_gate %.2f)\n",
                        ok ? "ok  " : "FAIL", label.c_str(), *cur.value,
                        floor, *base.minGate);
            if (!ok)
                ++hard_failures;
            continue;
        }

        if (!base.nsPerOp || !cur.nsPerOp) {
            std::fprintf(stderr, "FAIL %s: entry without ns_per_op\n",
                         label.c_str());
            ++hard_failures;
            continue;
        }
        const double limit = *base.nsPerOp * (1.0 + tolerance);
        const double ratio = *cur.nsPerOp / *base.nsPerOp;
        const bool regressed = *cur.nsPerOp > limit;
        if (!regressed) {
            std::printf("ok   %s: %.1f ns/op vs baseline %.1f (%.2fx)\n",
                        label.c_str(), *cur.nsPerOp, *base.nsPerOp, ratio);
        } else if (base.gate == "hard") {
            std::printf("FAIL %s: %.1f ns/op vs baseline %.1f (%.2fx > "
                        "%.2f tolerance)\n",
                        label.c_str(), *cur.nsPerOp, *base.nsPerOp, ratio,
                        1.0 + tolerance);
            ++hard_failures;
        } else {
            // Soft gate: annotate, do not fail. The ::warning line is
            // surfaced by GitHub Actions; plain terminals just see it.
            std::printf("::warning title=bench_compare::%s regressed: "
                        "%.1f ns/op vs baseline %.1f (%.2fx)\n",
                        label.c_str(), *cur.nsPerOp, *base.nsPerOp, ratio);
            ++warnings;
        }
    }

    std::printf("bench_compare: %d entries checked, %d hard failure(s), "
                "%d warning(s), tolerance %.0f%%\n",
                checked, hard_failures, warnings, tolerance * 100.0);
    return hard_failures == 0 ? 0 : 1;
}
