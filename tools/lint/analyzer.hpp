// ppdc_lint — the repo's dependency-free determinism & domain-rule
// static analyzer (DESIGN.md §13).
//
// The tool lexes every project source file (tools/lint/lex.hpp) and runs
// a registry of token-level rules enforcing contracts the compiler
// cannot: determinism (no unordered iteration in solver/sim accumulation
// paths, no wall-clock or libc entropy sources), index-domain hygiene
// (no untyped subscripts through the StrongId layer), and include
// hygiene (spell what you use, respect the directory layering DAG).
// Findings can be silenced inline with
//     // ppdc-lint: allow(rule-name reason)
// on the offending line or the line above, or grandfathered in a
// committed baseline file of `path:line:rule` entries.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lex.hpp"

namespace ppdc::lint {

struct Finding {
  std::string path;  // root-relative, '/' separators
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string name;
  std::string rationale;  // one line, printed with every finding
};

/// One lexed source file, path normalised relative to the lint root.
struct FileUnit {
  std::string path;
  LexedFile lex;
};

/// Cross-file state shared by the rules.
struct ProjectContext {
  /// include-spell: project type symbol -> src-relative declaring header
  /// (e.g. "CostModel" -> "core/cost_model.hpp").
  std::map<std::string, std::string> symbol_header;
  /// Direct project includes per root-relative file path (own-header
  /// credit: a .cpp inherits its own .hpp's direct includes).
  std::map<std::string, std::set<std::string>> direct_includes;
  /// Namespace-scope aliases of IndexedVector found in src headers
  /// (e.g. "CandidateRow"), so consumers of the alias are covered too.
  std::set<std::string> indexed_vector_aliases;
  /// Same for unordered containers (none expected; defensive).
  std::set<std::string> unordered_aliases;
};

struct LintOptions {
  std::string root = ".";
  /// Files or directories, relative to root. Empty = the default scan
  /// set: src tests bench tools examples.
  std::vector<std::string> paths;
  /// Rule names to run. Empty = every registered rule.
  std::vector<std::string> rules;
  /// Baseline file (root-relative or absolute); "" = no baseline.
  std::string baseline_path;
  bool apply_suppressions = true;
};

struct LintResult {
  std::vector<Finding> findings;   // active: fail the gate
  std::vector<Finding> suppressed; // silenced by ppdc-lint: allow(...)
  std::vector<Finding> baselined;  // grandfathered by the baseline file
  /// Baseline entries that matched no finding (candidates for removal).
  std::vector<std::string> stale_baseline;
};

/// Every registered rule, in deterministic registry order.
const std::vector<RuleInfo>& rule_registry();

/// Runs the selected rules over one lexed file. Exposed for the fixture
/// self-test; run_lint is the end-to-end entry point.
std::vector<Finding> run_rules(const FileUnit& file, const ProjectContext& ctx,
                               const std::set<std::string>& enabled);

/// Builds the cross-file context (symbol map) from `root`/src headers.
ProjectContext build_context(const std::string& root);

LintResult run_lint(const LintOptions& options);

/// Renders findings as a SARIF 2.1.0 log (one run, one ppdc_lint driver).
std::string to_sarif(const std::vector<Finding>& findings);

/// `path:line:col: rule: message` + the rule's one-line rationale.
std::string format_text(const Finding& finding);

/// Serialises findings in baseline format (`path:line:rule`, sorted).
std::string to_baseline(const std::vector<Finding>& findings);

}  // namespace ppdc::lint
