// Self-test for ppdc_lint (DESIGN.md §13), driving the analyzer library
// over the annotated fixture tree in tests/lint_corpus/. The corpus is
// its own lint root: every `// expect-finding(rule)` annotation must
// match exactly one finding on that line, and every finding must be
// annotated — so false negatives AND false positives fail the same
// equality check. Separate cases pin the suppression and baseline
// filters, SARIF well-formedness, and — explicitly — that the two
// check.sh grep bans this tool replaced (stage 4's mutable
// vector<MigrationPolicy*>, stage 4b's system_clock) are still caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyzer.hpp"

namespace {

namespace fs = std::filesystem;
using ppdc::lint::Finding;
using ppdc::lint::LintOptions;
using ppdc::lint::LintResult;

std::string corpus_root() { return PPDC_LINT_CORPUS_DIR; }

LintResult run_corpus(bool apply_suppressions = true,
                      const std::string& baseline = "") {
  LintOptions options;
  options.root = corpus_root();
  options.apply_suppressions = apply_suppressions;
  options.baseline_path = baseline;
  return ppdc::lint::run_lint(options);
}

std::string key_of(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ":" + f.rule;
}

std::vector<std::string> keys_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(key_of(f));
  std::sort(out.begin(), out.end());
  return out;
}

/// Scans every fixture for `expect-finding(rule)` annotations and
/// returns their `path:line:rule` keys, sorted like keys_of().
std::vector<std::string> expected_keys() {
  std::vector<std::string> out;
  const fs::path root(corpus_root());
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    std::ifstream in(entry.path());
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      static const std::string marker = "expect-finding(";
      std::size_t pos = 0;
      while ((pos = line.find(marker, pos)) != std::string::npos) {
        pos += marker.size();
        const std::size_t end = line.find(')', pos);
        if (end == std::string::npos) {  // ASSERT_* needs a void function
          ADD_FAILURE() << rel << ":" << lineno << ": unterminated annotation";
          break;
        }
        out.push_back(rel + ":" + std::to_string(lineno) + ":" +
                      line.substr(pos, end - pos));
        pos = end;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Minimal JSON validity checker (objects, arrays, strings, numbers,
/// keywords) — enough to prove the SARIF renderer emits parseable
/// output without pulling in a JSON dependency.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse_document() {
    if (!parse_value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
            s_[i_] == '\t')) {
      ++i_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool parse_string() {
    skip_ws();
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }

  bool parse_keyword(const std::string& word) {
    if (s_.compare(i_, word.size(), word) != 0) return false;
    i_ += word.size();
    return true;
  }

  bool parse_value() {
    skip_ws();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      if (consume('}')) return true;
      do {
        if (!parse_string() || !consume(':') || !parse_value()) return false;
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      ++i_;
      if (consume(']')) return true;
      do {
        if (!parse_value()) return false;
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') return parse_string();
    if (c == 't') return parse_keyword("true");
    if (c == 'f') return parse_keyword("false");
    if (c == 'n') return parse_keyword("null");
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0) {
      ++i_;
      while (i_ < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
              s_[i_] == '+' || s_[i_] == '-')) {
        ++i_;
      }
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(LintCorpus, FindingsMatchAnnotationsExactly) {
  const LintResult result = run_corpus();
  const std::vector<std::string> expected = expected_keys();
  ASSERT_FALSE(expected.empty()) << "annotation scan found nothing — is "
                                 << corpus_root() << " the fixture tree?";
  // Equality both ways: a missed annotation is a false negative, an
  // unannotated finding is a false positive.
  EXPECT_EQ(keys_of(result.findings), expected);
}

TEST(LintCorpus, FormerGrepBansStillCaught) {
  const LintResult result = run_corpus();
  bool stage4 = false;
  bool stage4b = false;
  for (const Finding& f : result.findings) {
    if (f.rule == "policy-prototype-const" &&
        f.path == "src/sim/policy_list.cpp") {
      stage4 = true;
    }
    if (f.rule == "steady-clock-only" && f.path == "src/core/clocks.cpp") {
      stage4b = true;
    }
  }
  EXPECT_TRUE(stage4) << "stage-4 grep pattern (mutable "
                         "vector<MigrationPolicy*>) no longer caught";
  EXPECT_TRUE(stage4b) << "stage-4b grep pattern (system_clock) "
                          "no longer caught";
}

TEST(LintCorpus, SuppressionMovesFindingAside) {
  const LintResult result = run_corpus();
  for (const Finding& f : result.findings) {
    EXPECT_NE(f.path, "src/core/suppressed.cpp")
        << "suppressed fixture leaked into active findings: " << key_of(f);
  }
  bool found = false;
  for (const Finding& f : result.suppressed) {
    if (f.path == "src/core/suppressed.cpp" && f.rule == "no-float") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "allow(no-float ...) comment was not honoured";
}

TEST(LintCorpus, NoSuppressResurfacesTheFinding) {
  const LintResult result = run_corpus(/*apply_suppressions=*/false);
  bool found = false;
  for (const Finding& f : result.findings) {
    if (f.path == "src/core/suppressed.cpp" && f.rule == "no-float") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(LintCorpus, BaselineFiltersAndFlagsStaleEntries) {
  const LintResult base = run_corpus();
  const Finding* grandfathered = nullptr;
  for (const Finding& f : base.findings) {
    if (f.path == "src/util/precision.cpp" && f.rule == "no-float") {
      grandfathered = &f;
    }
  }
  ASSERT_NE(grandfathered, nullptr);
  const std::string live_key = key_of(*grandfathered);
  const std::string stale_key = "src/never/exists.cpp:1:no-float";

  const fs::path tmp =
      fs::temp_directory_path() / "ppdc_lint_test.baseline";
  {
    std::ofstream out(tmp);
    out << "# test baseline\n" << live_key << "\n" << stale_key << "\n";
  }
  const LintResult filtered = run_corpus(true, tmp.string());
  fs::remove(tmp);

  EXPECT_EQ(filtered.findings.size(), base.findings.size() - 1);
  for (const Finding& f : filtered.findings) {
    EXPECT_NE(key_of(f), live_key);
  }
  ASSERT_EQ(filtered.baselined.size(), 1u);
  EXPECT_EQ(key_of(filtered.baselined.front()), live_key);
  ASSERT_EQ(filtered.stale_baseline.size(), 1u);
  EXPECT_EQ(filtered.stale_baseline.front(), stale_key);
}

TEST(LintCorpus, StaleEntriesNeedTheirRuleAndFileScanned) {
  const LintResult base = run_corpus();
  const Finding* grandfathered = nullptr;
  for (const Finding& f : base.findings) {
    if (f.path == "src/util/precision.cpp" && f.rule == "no-float") {
      grandfathered = &f;
    }
  }
  ASSERT_NE(grandfathered, nullptr);
  const std::string live_key = key_of(*grandfathered);
  const std::string stale_key = "src/never/exists.cpp:1:no-float";

  const fs::path tmp =
      fs::temp_directory_path() / "ppdc_lint_test_subset.baseline";
  {
    std::ofstream out(tmp);
    out << live_key << "\n" << stale_key << "\n";
  }
  const auto lint = [&](std::vector<std::string> rules,
                        std::vector<std::string> paths) {
    LintOptions options;
    options.root = corpus_root();
    options.rules = std::move(rules);
    options.paths = std::move(paths);
    options.baseline_path = tmp.string();
    return ppdc::lint::run_lint(options);
  };
  // A rule subset that leaves no-float out cannot judge either entry.
  const LintResult other_rule = lint({"no-clock"}, {});
  // A path subset that leaves out src/util and src/never neither.
  const LintResult other_dir = lint({}, {"src/core"});
  // A run over the entries' rule and directory still flags the dead one.
  const LintResult covering = lint({"no-float"}, {"./src/"});
  fs::remove(tmp);

  EXPECT_TRUE(other_rule.stale_baseline.empty());
  EXPECT_TRUE(other_dir.stale_baseline.empty());
  ASSERT_EQ(covering.stale_baseline.size(), 1u);
  EXPECT_EQ(covering.stale_baseline.front(), stale_key);
  ASSERT_EQ(covering.baselined.size(), 1u);
  EXPECT_EQ(key_of(covering.baselined.front()), live_key);
}

TEST(LintCorpus, SarifIsWellFormed) {
  const LintResult result = run_corpus();
  const std::string sarif = ppdc::lint::to_sarif(result.findings);
  JsonParser parser(sarif);
  EXPECT_TRUE(parser.parse_document()) << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // Every registered rule is described in the driver block, and every
  // finding's ruleId appears in the results block.
  for (const auto& rule : ppdc::lint::rule_registry()) {
    EXPECT_NE(sarif.find("\"id\": \"" + rule.name + "\""), std::string::npos)
        << rule.name;
  }
  for (const Finding& f : result.findings) {
    EXPECT_NE(sarif.find("\"ruleId\": \"" + f.rule + "\""),
              std::string::npos);
  }
}

TEST(LintRegistry, NamesAreStable) {
  const std::vector<std::string> expected = {
      "unordered-iteration",    "nondet-source", "steady-clock-only",
      "no-clock",               "pointer-hash-order",
      "policy-prototype-const",
      "raw-index",              "no-new-delete", "no-float",
      "include-spell",          "include-layering",
  };
  std::vector<std::string> actual;
  for (const auto& rule : ppdc::lint::rule_registry()) {
    actual.push_back(rule.name);
    EXPECT_FALSE(rule.rationale.empty()) << rule.name;
  }
  EXPECT_EQ(actual, expected);
}

TEST(LintRegistry, FormatTextCarriesRationale) {
  Finding f;
  f.path = "src/util/precision.cpp";
  f.line = 5;
  f.col = 3;
  f.rule = "no-float";
  f.message = "'float' narrows the double-only cost arithmetic";
  const std::string text = ppdc::lint::format_text(f);
  EXPECT_NE(text.find("src/util/precision.cpp:5:3: no-float:"),
            std::string::npos);
  EXPECT_NE(text.find("rationale:"), std::string::npos);
}

}  // namespace
