/**
 * @file
 * Output back end of vblint: compiler-style text diagnostics, the
 * auditable suppression inventory, and the machine-readable JSON
 * report (emitted through the same bench/json_writer.hpp the smoke
 * benches use, so CI artifacts share one JSON dialect).
 */

#ifndef VBOOST_VBLINT_REPORT_HPP
#define VBOOST_VBLINT_REPORT_HPP

#include <ostream>

#include "analyzer.hpp"

namespace vboost::vblint {

/** Compiler-style `file:line: RULE: message` lines. When `all` is
 *  false only active (build-failing) diagnostics are printed. */
void printText(std::ostream &os, const RepoReport &report, bool all);

/** One line per suppression: location, rule, reason, liveness. */
void printSuppressions(std::ostream &os, const RepoReport &report);

/** Summary counts (always printed after the diagnostics). */
void printSummary(std::ostream &os, const RepoReport &report);

/** Full machine-readable report. */
void writeJson(std::ostream &os, const RepoReport &report,
               const std::string &root);

/** GitHub Actions workflow commands: `::error file=,line=,title=` for
 *  every active diagnostic, so findings surface as inline PR
 *  annotations (same pattern as tools/bench_compare). Values are escaped per the workflow-command
 *  rules (%25 %0D %0A, plus %2C %3A in properties). */
void printGithubAnnotations(std::ostream &os, const RepoReport &report);

} // namespace vboost::vblint

#endif // VBOOST_VBLINT_REPORT_HPP
