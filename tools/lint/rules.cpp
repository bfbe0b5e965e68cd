// Rule registry and implementations for ppdc_lint (DESIGN.md §13).
//
// Every rule is a token-level scan over one lexed file plus the shared
// ProjectContext. Rules fire deterministically (registry order, then
// token order) and each carries a one-line rationale that is printed
// with the finding — a finding must explain the contract it protects.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"

namespace ppdc::lint {

namespace {

using Tokens = std::vector<Token>;

bool id_is(const Token& tk, const char* s) {
  return tk.kind == TokKind::kIdentifier && tk.text == s;
}

bool punct_is(const Token& tk, const char* s) {
  return tk.kind == TokKind::kPunct && tk.text == s;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// Returns the index one past the '>' matching the '<' at `i`, or
/// tokens.size() when unbalanced (lenient: malformed files are the
/// compiler's problem).
std::size_t skip_template_args(const Tokens& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (punct_is(t[i], "<")) ++depth;
    if (punct_is(t[i], ">") && --depth == 0) return i + 1;
    // Parenthesised expressions inside template args (rare) would need
    // full expression parsing; none of the tracked types use them.
  }
  return t.size();
}

/// Names of variables (locals, members, parameters) declared — in this
/// file — with a type that instantiates one of `type_names` or spells
/// one of `alias_names`. Also fills `new_aliases` with `using A = ...`
/// aliases of those types found in this file.
std::set<std::string> collect_typed_vars(const Tokens& t,
                                         const std::set<std::string>& type_names,
                                         const std::set<std::string>& alias_names,
                                         std::set<std::string>* new_aliases) {
  std::set<std::string> vars;
  std::set<std::string> aliases = alias_names;
  // Pass 1: `using A = [std::]Type<...>` file-local aliases.
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (!id_is(t[i], "using") || t[i + 1].kind != TokKind::kIdentifier ||
        !punct_is(t[i + 2], "=")) {
      continue;
    }
    std::size_t j = i + 3;
    if (j + 1 < t.size() && id_is(t[j], "std") && punct_is(t[j + 1], "::")) {
      j += 2;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdentifier &&
        (type_names.count(t[j].text) != 0 || aliases.count(t[j].text) != 0)) {
      aliases.insert(t[i + 1].text);
      if (new_aliases != nullptr) new_aliases->insert(t[i + 1].text);
    }
  }
  // Pass 2: declarations `Type<...> [cv/ref/ptr] name` and `Alias name`.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    std::size_t j = 0;
    if (type_names.count(t[i].text) != 0) {
      if (i + 1 >= t.size() || !punct_is(t[i + 1], "<")) continue;
      j = skip_template_args(t, i + 1);
    } else if (aliases.count(t[i].text) != 0) {
      j = i + 1;
    } else {
      continue;
    }
    while (j < t.size() &&
           (punct_is(t[j], "&") || punct_is(t[j], "*") || id_is(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdentifier &&
        t[j].text != "operator") {
      vars.insert(t[j].text);
    }
  }
  return vars;
}

// ---------------------------------------------------------------------------
// Determinism rules
// ---------------------------------------------------------------------------

constexpr const char* kUnorderedTypes[] = {"unordered_map", "unordered_set",
                                           "unordered_multimap",
                                           "unordered_multiset"};

bool in_deterministic_scope(const std::string& path) {
  return starts_with(path, "src/sim/") || starts_with(path, "src/core/") ||
         starts_with(path, "src/fault/");
}

/// unordered-iteration: range-for or iterator walks over hash containers
/// in the solver/sim/fault accumulation paths. Membership tests
/// (insert/find/count) are fine — iteration order is not.
void rule_unordered_iteration(const FileUnit& f, const ProjectContext& ctx,
                              std::vector<Finding>* out) {
  if (!in_deterministic_scope(f.path)) return;
  const Tokens& t = f.lex.tokens;
  std::set<std::string> types(std::begin(kUnorderedTypes),
                              std::end(kUnorderedTypes));
  const std::set<std::string> vars =
      collect_typed_vars(t, types, ctx.unordered_aliases, nullptr);
  if (vars.empty()) return;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    // Range-for whose range expression mentions an unordered variable.
    if (id_is(t[i], "for") && punct_is(t[i + 1], "(")) {
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (punct_is(t[j], "(")) ++depth;
        if (punct_is(t[j], ")") && --depth == 0) break;
        if (depth == 1 && punct_is(t[j], ";")) break;  // classic for
        if (depth == 1 && punct_is(t[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon != 0) {
        int d = 1;
        for (std::size_t j = colon + 1; j < t.size() && d > 0; ++j) {
          if (punct_is(t[j], "(")) ++d;
          if (punct_is(t[j], ")")) --d;
          if (d >= 1 && t[j].kind == TokKind::kIdentifier &&
              vars.count(t[j].text) != 0) {
            out->push_back({f.path, t[i].line, t[i].col, "unordered-iteration",
                            "range-for over unordered container '" +
                                t[j].text + "'"});
            break;
          }
        }
      }
    }
    // Explicit iterator walks: var.begin() and friends.
    if (t[i].kind == TokKind::kIdentifier && vars.count(t[i].text) != 0 &&
        i + 3 < t.size() && punct_is(t[i + 1], ".") &&
        (id_is(t[i + 2], "begin") || id_is(t[i + 2], "cbegin") ||
         id_is(t[i + 2], "rbegin") || id_is(t[i + 2], "crbegin")) &&
        punct_is(t[i + 3], "(")) {
      out->push_back({f.path, t[i].line, t[i].col, "unordered-iteration",
                      "iterator walk over unordered container '" + t[i].text +
                          "'"});
    }
  }
}

/// nondet-source: libc entropy and wall-clock sources.
void rule_nondet_source(const FileUnit& f, const ProjectContext&,
                        std::vector<Finding>* out) {
  const Tokens& t = f.lex.tokens;
  static const std::set<std::string> bare = {"random_device"};
  static const std::set<std::string> call = {
      "rand",    "srand",        "rand_r",    "drand48", "lrand48",
      "mrand48", "random_shuffle", "time",    "clock",   "gettimeofday",
      "getrandom", "localtime",  "gmtime"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    if (bare.count(t[i].text) != 0) {
      out->push_back({f.path, t[i].line, t[i].col, "nondet-source",
                      "'" + t[i].text + "' draws entropy from the host"});
      continue;
    }
    if (call.count(t[i].text) == 0) continue;
    if (i + 1 >= t.size() || !punct_is(t[i + 1], "(")) continue;
    // Member calls (x.time(...)) and declarations (`double time(...)`,
    // preceding type identifier) are not the libc function.
    if (i > 0 && (punct_is(t[i - 1], ".") || punct_is(t[i - 1], "->") ||
                  t[i - 1].kind == TokKind::kIdentifier)) {
      continue;
    }
    out->push_back({f.path, t[i].line, t[i].col, "nondet-source",
                    "call to '" + t[i].text +
                        "' is nondeterministic across runs"});
  }
}

/// steady-clock-only: the stage-4b grep ban, as a rule.
void rule_steady_clock_only(const FileUnit& f, const ProjectContext&,
                            std::vector<Finding>* out) {
  for (const Token& tk : f.lex.tokens) {
    if (id_is(tk, "system_clock")) {
      out->push_back({f.path, tk.line, tk.col, "steady-clock-only",
                      "std::chrono::system_clock is not monotonic"});
    }
  }
}

/// no-clock: the library reads no clock. Solver bounds are counts, so a
/// clock under src/ could only make a result depend on the host.
void rule_no_clock(const FileUnit& f, const ProjectContext&,
                   std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  for (const Token& tk : f.lex.tokens) {
    if (id_is(tk, "steady_clock") || id_is(tk, "system_clock") ||
        id_is(tk, "high_resolution_clock")) {
      out->push_back({f.path, tk.line, tk.col, "no-clock",
                      "std::chrono::" + tk.text + " spelled in the library"});
    }
  }
}

/// pointer-hash-order: pointer identity leaking into hashes or keys.
void rule_pointer_hash_order(const FileUnit& f, const ProjectContext&,
                             std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (id_is(t[i], "hash") && punct_is(t[i + 1], "<")) {
      const std::size_t end = skip_template_args(t, i + 1);
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (punct_is(t[j], "*")) {
          out->push_back({f.path, t[i].line, t[i].col, "pointer-hash-order",
                          "std::hash over a pointer type keys on addresses"});
          break;
        }
      }
    }
    if (id_is(t[i], "reinterpret_cast") && punct_is(t[i + 1], "<")) {
      const std::size_t end = skip_template_args(t, i + 1);
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (id_is(t[j], "uintptr_t") || id_is(t[j], "intptr_t")) {
          out->push_back({f.path, t[i].line, t[i].col, "pointer-hash-order",
                          "pointer identity cast into an integer key"});
          break;
        }
      }
    }
  }
}

/// policy-prototype-const: the stage-4 grep ban, as a rule.
void rule_policy_prototype_const(const FileUnit& f, const ProjectContext&,
                                 std::vector<Finding>* out) {
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (id_is(t[i], "vector") && punct_is(t[i + 1], "<") &&
        id_is(t[i + 2], "MigrationPolicy") && punct_is(t[i + 3], "*")) {
      out->push_back({f.path, t[i].line, t[i].col, "policy-prototype-const",
                      "mutable std::vector<MigrationPolicy*> policy list"});
    }
  }
}

// ---------------------------------------------------------------------------
// Domain rules
// ---------------------------------------------------------------------------

/// raw-index: untyped subscripts that bypass the StrongId layer.
void rule_raw_index(const FileUnit& f, const ProjectContext& ctx,
                    std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  const Tokens& t = f.lex.tokens;
  const std::set<std::string> types = {"IndexedVector"};
  const std::set<std::string> vars =
      collect_typed_vars(t, types, ctx.indexed_vector_aliases, nullptr);
  if (vars.empty()) return;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier || vars.count(t[i].text) == 0) {
      continue;
    }
    // var.raw()[...]: unwrapping the typed container just to subscript it.
    if (i + 5 < t.size() && punct_is(t[i + 1], ".") && id_is(t[i + 2], "raw") &&
        punct_is(t[i + 3], "(") && punct_is(t[i + 4], ")") &&
        punct_is(t[i + 5], "[")) {
      out->push_back({f.path, t[i].line, t[i].col, "raw-index",
                      "'" + t[i].text +
                          ".raw()[...]' bypasses the typed subscript"});
      continue;
    }
    // var[<integer literal>]: a bare number is never a StrongId.
    if (i + 2 < t.size() && punct_is(t[i + 1], "[") &&
        t[i + 2].kind == TokKind::kNumber) {
      out->push_back({f.path, t[i].line, t[i].col, "raw-index",
                      "untyped literal subscript into IndexedVector '" +
                          t[i].text + "'"});
    }
  }
}

/// no-new-delete: all ownership flows through containers / smart ptrs.
void rule_no_new_delete(const FileUnit& f, const ProjectContext&,
                        std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  const Tokens& t = f.lex.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool is_new = id_is(t[i], "new");
    const bool is_delete = id_is(t[i], "delete");
    if (!is_new && !is_delete) continue;
    if (i > 0 && id_is(t[i - 1], "operator")) continue;  // operator new/delete
    if (is_delete && i > 0 && punct_is(t[i - 1], "=")) continue;  // = delete
    out->push_back({f.path, t[i].line, t[i].col, "no-new-delete",
                    std::string("raw '") + (is_new ? "new" : "delete") +
                        "' expression"});
  }
}

/// no-float: cost arithmetic is double-only.
void rule_no_float(const FileUnit& f, const ProjectContext&,
                   std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  for (const Token& tk : f.lex.tokens) {
    if (id_is(tk, "float")) {
      out->push_back({f.path, tk.line, tk.col, "no-float",
                      "'float' narrows the double-only cost arithmetic"});
    }
  }
}

// ---------------------------------------------------------------------------
// Hygiene rules
// ---------------------------------------------------------------------------

/// include-spell: spelling a project type requires a direct include of
/// its declaring header (own-header includes count for a .cpp).
void rule_include_spell(const FileUnit& f, const ProjectContext& ctx,
                        std::vector<Finding>* out) {
  if (!starts_with(f.path, "src/")) return;
  const std::string self = f.path.substr(4);  // src-relative spelling
  std::set<std::string> direct;
  if (const auto it = ctx.direct_includes.find(f.path);
      it != ctx.direct_includes.end()) {
    direct = it->second;
  }
  if (self.size() > 4 && self.compare(self.size() - 4, 4, ".cpp") == 0) {
    const std::string own = self.substr(0, self.size() - 4) + ".hpp";
    if (direct.count(own) != 0) {
      if (const auto it = ctx.direct_includes.find("src/" + own);
          it != ctx.direct_includes.end()) {
        direct.insert(it->second.begin(), it->second.end());
      }
    }
  }
  const Tokens& t = f.lex.tokens;
  std::set<std::string> reported;  // one finding per missing header
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdentifier) continue;
    const auto it = ctx.symbol_header.find(t[i].text);
    if (it == ctx.symbol_header.end()) continue;
    const std::string& header = it->second;
    if (header == self || direct.count(header) != 0 ||
        reported.count(header) != 0) {
      continue;
    }
    // Declaration mentions (class X; / friend class X / enum class X)
    // are forward declarations, not uses of the definition.
    if (i > 0 && (id_is(t[i - 1], "class") || id_is(t[i - 1], "struct") ||
                  id_is(t[i - 1], "enum"))) {
      continue;
    }
    reported.insert(header);
    out->push_back({f.path, t[i].line, t[i].col, "include-spell",
                    "spells '" + t[i].text + "' but does not include \"" +
                        header + "\" directly"});
  }
}

/// include-layering: the committed directory DAG. A file under
/// src/<dir>/ may only include project headers from the listed
/// directories; everything else is a new architecture edge that needs a
/// deliberate decision (and a table update), not an accidental include.
/// Note the core -> workload edge deliberately carries the sharded cost
/// model's dependency on workload/streaming.hpp (FlowChurn), and sim ->
/// workload carries the streaming epoch loop — neither is a new edge.
void rule_include_layering(const FileUnit& f, const ProjectContext&,
                           std::vector<Finding>* out) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"util", {"util"}},
      {"graph", {"graph", "util"}},
      {"flow", {"flow", "util"}},
      {"topology", {"topology", "graph", "util"}},
      {"workload", {"workload", "topology", "graph", "util"}},
      {"core", {"core", "workload", "topology", "graph", "util"}},
      {"net", {"net", "core", "workload", "topology", "graph", "util"}},
      {"baselines",
       {"baselines", "core", "flow", "workload", "topology", "graph", "util"}},
      {"fault", {"fault", "topology", "graph", "util"}},
      {"io", {"io", "core", "workload", "topology", "graph", "util"}},
      {"sim",
       {"sim", "baselines", "core", "fault", "flow", "io", "workload",
        "topology", "graph", "util"}},
  };
  // Private libstdc++ headers are banned everywhere we scan.
  for (const Include& inc : f.lex.includes) {
    if (inc.angled && starts_with(inc.path, "bits/")) {
      out->push_back({f.path, inc.line, 1, "include-layering",
                      "private <bits/...> header"});
    }
  }
  if (!starts_with(f.path, "src/")) return;
  const std::string rest = f.path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string::npos) return;
  const std::string dir = rest.substr(0, slash);
  const auto allowed = kAllowed.find(dir);
  if (allowed == kAllowed.end()) return;
  for (const Include& inc : f.lex.includes) {
    if (inc.angled) continue;
    const std::size_t s = inc.path.find('/');
    if (s == std::string::npos) continue;
    const std::string target = inc.path.substr(0, s);
    if (kAllowed.count(target) == 0) continue;  // not a project dir
    if (allowed->second.count(target) == 0) {
      out->push_back({f.path, inc.line, 1, "include-layering",
                      "src/" + dir + " may not include \"" + inc.path +
                          "\" (layer '" + target + "' is above it)"});
    }
  }
}

struct Rule {
  RuleInfo info;
  std::function<void(const FileUnit&, const ProjectContext&,
                     std::vector<Finding>*)>
      fn;
};

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {{"unordered-iteration",
        "hash-container iteration order varies across libraries and runs; "
        "accumulating in it breaks bit-identical results (DESIGN.md §9)"},
       rule_unordered_iteration},
      {{"nondet-source",
        "host entropy / wall-clock reads make runs non-reproducible; use "
        "util/rng.hpp streams and steady_clock"},
       rule_nondet_source},
      {{"steady-clock-only",
        "deadlines must use std::chrono::steady_clock — system_clock jumps "
        "under NTP slews and manual clock changes"},
       rule_steady_clock_only},
      {{"no-clock",
        "no clock value may feed a result: every solver bound is a count, so "
        "a run is the same on any host, at any thread count and on resume"},
       rule_no_clock},
      {{"pointer-hash-order",
        "allocation addresses differ run to run; hashing or keying on them "
        "makes iteration and tie-breaks nondeterministic"},
       rule_pointer_hash_order},
      {{"policy-prototype-const",
        "pass policies as std::vector<const MigrationPolicy*> prototypes — "
        "each SimJob clones its own instance (sim/policy.hpp)"},
       rule_policy_prototype_const},
      {{"raw-index",
        "IndexedVector subscripts carry the index domain in the type; "
        "untyped access reintroduces cross-domain mixups (DESIGN.md §8)"},
       rule_raw_index},
      {{"no-new-delete",
        "raw new/delete bypasses the containers-and-values ownership model; "
        "leaks surface only under ASan"},
       rule_no_new_delete},
      {{"no-float",
        "cost arithmetic is double-only: float intermediates change "
        "tie-breaks and break bit-exact equivalence tests"},
       rule_no_float},
      {{"include-spell",
        "types must be included from their declaring header, not picked up "
        "transitively — refactors of an unrelated header break the build"},
       rule_include_spell},
      {{"include-layering",
        "the src directory DAG (util < graph < ... < sim) keeps lower "
        "layers reusable; new upward edges need a deliberate decision"},
       rule_include_layering},
  };
  return kRules;
}

}  // namespace

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kInfos = [] {
    std::vector<RuleInfo> v;
    for (const Rule& r : rules()) v.push_back(r.info);
    return v;
  }();
  return kInfos;
}

std::vector<Finding> run_rules(const FileUnit& file, const ProjectContext& ctx,
                               const std::set<std::string>& enabled) {
  std::vector<Finding> out;
  for (const Rule& r : rules()) {
    if (!enabled.empty() && enabled.count(r.info.name) == 0) continue;
    r.fn(file, ctx, &out);
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace ppdc::lint
