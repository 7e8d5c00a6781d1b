/**
 * @file
 * Pass 2 project rules of vblint v2 (DESIGN.md §10): the cross-file
 * checks that need the project model — VB006 (include-graph layering),
 * VB007 (RNG-stream discipline), VB008 (fingerprint hygiene) and VB009
 * (shared-mutable captures into thread-pool lambdas). Per-file rules
 * VB001, VB002, VB004 and VB005 stay in analyzer.cpp; analyzeAll
 * merges both diagnostic streams before waiver resolution.
 */

#ifndef VBOOST_VBLINT_PROJECT_RULES_HPP
#define VBOOST_VBLINT_PROJECT_RULES_HPP

#include <vector>

#include "analyzer.hpp"
#include "project_model.hpp"

namespace vboost::vblint {

/** Run VB006–VB009 over the model; diagnostics are appended to `out`
 *  (Active status; annotation resolution happens later). */
void runProjectRules(const ProjectModel &model,
                     std::vector<Diagnostic> &out);

} // namespace vboost::vblint

#endif // VBOOST_VBLINT_PROJECT_RULES_HPP
