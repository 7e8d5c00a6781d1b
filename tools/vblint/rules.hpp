/**
 * @file
 * Rule registry of vblint: identifiers, one-line summaries and the
 * long-form rationale printed by `vblint --explain <rule>`. The rule
 * set encodes the repo's §7 determinism discipline (DESIGN.md) as
 * named, suppressible diagnostics.
 */

#ifndef VBOOST_VBLINT_RULES_HPP
#define VBOOST_VBLINT_RULES_HPP

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace vboost::vblint {

enum class Rule {
    VB001, ///< banned nondeterminism source in model code
    VB002, ///< iteration over an unordered container
    VB004, ///< mutable static / global state
    VB005, ///< header hygiene (guard, using-namespace)
    VB006, ///< module layering violation in the include graph
    VB007, ///< RNG-stream discipline (std RNG / ad-hoc seed arithmetic)
    VB008, ///< fingerprint hygiene (wall-clock metrics, parallel sums)
    VB009, ///< shared-mutable capture into a thread-pool lambda
    VB900, ///< unused vblint suppression
    VB901, ///< malformed vblint annotation
};

/** Canonical name, e.g. "VB001". */
std::string ruleName(Rule r);

/** Parse "VB001" (case-insensitive) back to a rule. */
std::optional<Rule> ruleFromName(const std::string &name);

/** One-line summary used in reports. */
std::string ruleSummary(Rule r);

/** Long-form rationale + how to fix / waive, for --explain. */
std::string ruleExplanation(Rule r);

/** Every rule, in report order. */
const std::vector<Rule> &allRules();

/** Free functions whose call is a banned nondeterminism source under
 *  VB001 (rand(), time(), ...). Shared with the project-model taint
 *  analysis, which marks files containing any of these as
 *  wall-clock-coupled for VB008. */
const std::set<std::string> &bannedCallIdents();

/** Type names that are banned nondeterminism sources under VB001
 *  (random_device, system_clock, ...). */
const std::set<std::string> &bannedTypeIdents();

} // namespace vboost::vblint

#endif // VBOOST_VBLINT_RULES_HPP
