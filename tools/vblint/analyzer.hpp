/**
 * @file
 * vblint analysis engine (DESIGN.md §10): two passes over the scanned
 * file set. Pass 1 (project_model.hpp) lexes every file once and
 * builds the project model — include graph plus symbol index. Pass 2
 * runs the per-file rules (VB001, VB002, VB004, VB005, here) and the
 * project rules (VB006–VB009, project_rules.hpp) over that model, then
 * resolves `// vblint:` suppressions. Exposed as a library so
 * tests/test_vblint.cpp feeds synthetic snippets through the exact
 * production code path, and so the CLI stays a thin shell.
 *
 * Scoping is path-based and uniform: VB001/VB004 and the project
 * rules apply to all model code (paths under src/, no per-directory
 * lists); VB002 applies everywhere scanned; VB005 to headers. Paths
 * are repo-relative, which keeps diagnostics stable regardless of the
 * invocation directory.
 */

#ifndef VBOOST_VBLINT_ANALYZER_HPP
#define VBOOST_VBLINT_ANALYZER_HPP

#include <string>
#include <vector>

#include "rules.hpp"

namespace vboost::vblint {

/** Lifecycle of one finding through the waiver machinery. */
enum class DiagStatus { Active, Suppressed };

struct Diagnostic
{
    std::string file; ///< repo-relative path
    int line = 0;
    Rule rule = Rule::VB001;
    std::string message;
    DiagStatus status = DiagStatus::Active;
    /** Trimmed source text of the flagged line. */
    std::string sourceLine;
};

/** One parsed suppression, for the auditable waiver inventory. */
struct Suppression
{
    std::string file;
    int line = 0;      ///< line of the annotation comment
    int targetLine = 0; ///< line it suppresses
    Rule rule = Rule::VB001;
    std::string reason;
    bool used = false;
};

struct FileAnalysis
{
    std::vector<Diagnostic> diagnostics;
    std::vector<Suppression> suppressions;
};

/**
 * Analyze one source file.
 *
 * @param path repo-relative path (drives rule scoping).
 * @param content full source text.
 * @param sibling_header content of the paired header (same stem) when
 *        analyzing a .cpp — its declarations seed the per-file type
 *        environment (unordered containers) so member iterations in
 *        the .cpp resolve correctly.
 */
FileAnalysis analyzeSource(const std::string &path,
                           const std::string &content,
                           const std::string &sibling_header = "");

/** Aggregated result over a file set. */
struct RepoReport
{
    std::vector<Diagnostic> diagnostics;
    std::vector<Suppression> suppressions;
    int filesScanned = 0;

    int countWithStatus(DiagStatus s) const;
    /** Diagnostics not suppressed inline. */
    int activeCount() const { return countWithStatus(DiagStatus::Active); }
};

/**
 * Analyze a set of already-loaded files. Inputs must be ordered
 * (path, content[, sibling]) triples; the report keeps that order.
 * Used by both the CLI (which loads from disk) and the self-check
 * test.
 */
struct SourceInput
{
    std::string path;
    std::string content;
    std::string siblingHeader;
};

RepoReport analyzeAll(const std::vector<SourceInput> &inputs);

} // namespace vboost::vblint

#endif // VBOOST_VBLINT_ANALYZER_HPP
