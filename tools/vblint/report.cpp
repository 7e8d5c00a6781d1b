#include "report.hpp"

#include "bench/json_writer.hpp"

namespace vboost::vblint {

namespace {

const char *
statusName(DiagStatus s)
{
    switch (s) {
      case DiagStatus::Active:
        return "active";
      case DiagStatus::Suppressed:
        return "suppressed";
    }
    return "?";
}

/** Escape a workflow-command data value (message text). */
std::string
ghEscapeData(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '%':
            out += "%25";
            break;
          case '\r':
            out += "%0D";
            break;
          case '\n':
            out += "%0A";
            break;
          default:
            out.push_back(c);
        }
    }
    return out;
}

/** Escape a workflow-command property value (file=, title=). */
std::string
ghEscapeProperty(const std::string &s)
{
    std::string out;
    for (char c : ghEscapeData(s)) {
        if (c == ',')
            out += "%2C";
        else if (c == ':')
            out += "%3A";
        else
            out.push_back(c);
    }
    return out;
}

} // namespace

void
printGithubAnnotations(std::ostream &os, const RepoReport &report)
{
    for (const Diagnostic &d : report.diagnostics) {
        if (d.status != DiagStatus::Active)
            continue;
        os << "::error file=" << ghEscapeProperty(d.file)
           << ",line=" << d.line << ",title="
           << ghEscapeProperty("vblint " + ruleName(d.rule)) << "::"
           << ghEscapeData(d.message) << "\n";
    }
}

void
printText(std::ostream &os, const RepoReport &report, bool all)
{
    for (const Diagnostic &d : report.diagnostics) {
        if (!all && d.status != DiagStatus::Active)
            continue;
        os << d.file << ":" << d.line << ": " << ruleName(d.rule) << ": "
           << d.message;
        if (d.status != DiagStatus::Active)
            os << " [" << statusName(d.status) << "]";
        os << "\n";
        if (!d.sourceLine.empty())
            os << "    " << d.sourceLine << "\n";
    }
}

void
printSuppressions(std::ostream &os, const RepoReport &report)
{
    if (report.suppressions.empty()) {
        os << "no vblint suppressions in the scanned tree\n";
        return;
    }
    for (const Suppression &s : report.suppressions) {
        os << s.file << ":" << s.line << ": " << ruleName(s.rule)
           << " waived";
        if (s.targetLine != s.line)
            os << " (line " << s.targetLine << ")";
        os << ": " << (s.reason.empty() ? "<no reason given>" : s.reason)
           << (s.used ? "" : " [UNUSED]") << "\n";
    }
}

void
printSummary(std::ostream &os, const RepoReport &report)
{
    const int active = report.countWithStatus(DiagStatus::Active);
    const int suppressed = report.countWithStatus(DiagStatus::Suppressed);
    os << "vblint: " << report.filesScanned << " files, "
       << (active + suppressed) << " diagnostics (" << active
       << " active, " << suppressed << " suppressed inline)\n";
}

void
writeJson(std::ostream &os, const RepoReport &report,
          const std::string &root)
{
    bench::JsonWriter j(os);
    j.beginObject()
        .field("tool", "vblint")
        .field("formatVersion", std::int64_t{1})
        .field("root", root)
        .field("filesScanned", std::int64_t{report.filesScanned});

    j.beginObjectField("summary")
        .field("total", std::int64_t(report.diagnostics.size()))
        .field("active",
               std::int64_t{report.countWithStatus(DiagStatus::Active)})
        .field("suppressed",
               std::int64_t{report.countWithStatus(DiagStatus::Suppressed)})
        .endObject();

    j.beginArrayField("rules");
    for (Rule r : allRules()) {
        j.beginObject()
            .field("id", ruleName(r))
            .field("summary", ruleSummary(r))
            .endObject();
    }
    j.endArray();

    j.beginArrayField("diagnostics");
    for (const Diagnostic &d : report.diagnostics) {
        j.beginObject()
            .field("file", d.file)
            .field("line", std::int64_t{d.line})
            .field("rule", ruleName(d.rule))
            .field("status", statusName(d.status))
            .field("message", d.message)
            .field("sourceLine", d.sourceLine)
            .endObject();
    }
    j.endArray();

    j.beginArrayField("suppressions");
    for (const Suppression &s : report.suppressions) {
        j.beginObject()
            .field("file", s.file)
            .field("line", std::int64_t{s.line})
            .field("targetLine", std::int64_t{s.targetLine})
            .field("rule", ruleName(s.rule))
            .field("reason", s.reason)
            .field("used", s.used)
            .endObject();
    }
    j.endArray();

    j.endObject();
}

} // namespace vboost::vblint
