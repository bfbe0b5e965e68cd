// Driver for ppdc_lint: file discovery, cross-file context (the
// symbol→header map behind include-spell), suppression and baseline
// filtering, and the text / SARIF / baseline renderers.
#include "analyzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace ppdc::lint {

namespace fs = std::filesystem;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string slashed(const fs::path& p) {
  return p.generic_string();
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + slashed(p));
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Collects .hpp/.cpp files under root/rel (or the single file), sorted,
/// skipping the lint fixture corpus (its files violate on purpose).
void collect_sources(const fs::path& root, const std::string& rel,
                     std::vector<std::string>* out) {
  const fs::path p = root / rel;
  if (fs::is_regular_file(p)) {
    out->push_back(rel);
    return;
  }
  if (!fs::is_directory(p)) return;
  for (const auto& entry : fs::recursive_directory_iterator(p)) {
    if (!entry.is_regular_file()) continue;
    const std::string path = slashed(fs::relative(entry.path(), root));
    if (path.find("lint_corpus") != std::string::npos) continue;
    if (ends_with(path, ".hpp") || ends_with(path, ".cpp")) {
      out->push_back(path);
    }
  }
}

/// Namespace-scope symbol extraction from one src header: class/struct
/// and enum definitions plus `using X = ...` aliases, brace-tracked so
/// nested types and template parameters are not registered.
void extract_symbols(const std::string& header_rel, const LexedFile& lexed,
                     ProjectContext* ctx) {
  const std::vector<Token>& t = lexed.tokens;
  enum class Scope { kNamespace, kOther };
  std::vector<Scope> stack;
  Scope next_brace = Scope::kOther;
  bool next_brace_pending = false;
  auto at_namespace_scope = [&] {
    for (const Scope s : stack) {
      if (s != Scope::kNamespace) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tk = t[i];
    if (tk.kind == TokKind::kPunct) {
      if (tk.text == "{") {
        stack.push_back(next_brace_pending ? next_brace : Scope::kOther);
        next_brace_pending = false;
      } else if (tk.text == "}") {
        if (!stack.empty()) stack.pop_back();
      }
      continue;
    }
    if (tk.kind != TokKind::kIdentifier) continue;
    // Skip template parameter lists entirely: `template <class T>` must
    // not look like a class definition of T.
    if (tk.text == "template" && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::kPunct && t[i + 1].text == "<") {
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (t[j].kind == TokKind::kPunct && t[j].text == "<") ++depth;
        if (t[j].kind == TokKind::kPunct && t[j].text == ">" && --depth == 0) {
          break;
        }
      }
      i = j;
      continue;
    }
    if (tk.text == "namespace") {
      next_brace = Scope::kNamespace;
      next_brace_pending = true;
      continue;
    }
    const bool is_class = tk.text == "class" || tk.text == "struct";
    const bool is_enum = tk.text == "enum";
    if (is_class || is_enum) {
      std::size_t j = i + 1;
      if (is_enum && j < t.size() &&
          (t[j].text == "class" || t[j].text == "struct")) {
        ++j;
      }
      if (j >= t.size() || t[j].kind != TokKind::kIdentifier) {
        // Anonymous struct/enum: the next '{' is still a type body.
        next_brace = Scope::kOther;
        next_brace_pending = true;
        continue;
      }
      const std::string name = t[j].text;
      ++j;
      if (j < t.size() && t[j].kind == TokKind::kIdentifier &&
          t[j].text == "final") {
        ++j;
      }
      const bool fwd_decl =
          j < t.size() && t[j].kind == TokKind::kPunct && t[j].text == ";";
      next_brace = Scope::kOther;
      next_brace_pending = true;
      if (!fwd_decl && at_namespace_scope() && !name.empty() &&
          std::isupper(static_cast<unsigned char>(name[0])) != 0) {
        ctx->symbol_header.emplace(name, header_rel);
      }
      continue;
    }
    if (tk.text == "using" && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::kIdentifier &&
        t[i + 2].kind == TokKind::kPunct && t[i + 2].text == "=" &&
        at_namespace_scope()) {
      const std::string name = t[i + 1].text;
      if (!name.empty() &&
          std::isupper(static_cast<unsigned char>(name[0])) != 0) {
        ctx->symbol_header.emplace(name, header_rel);
      }
      // Alias of a tracked container type? Feed the cross-file alias sets.
      std::size_t j = i + 3;
      if (j + 1 < t.size() && t[j].kind == TokKind::kIdentifier &&
          t[j].text == "std" && t[j + 1].kind == TokKind::kPunct &&
          t[j + 1].text == "::") {
        j += 2;
      }
      if (j < t.size() && t[j].kind == TokKind::kIdentifier) {
        if (t[j].text == "IndexedVector") {
          ctx->indexed_vector_aliases.insert(name);
        }
        if (t[j].text.rfind("unordered_", 0) == 0) {
          ctx->unordered_aliases.insert(name);
        }
      }
    }
  }
}

/// Suppressions: `ppdc-lint: allow(rule reason)` comments. A comment
/// covers findings on its own line(s) and on the line directly below it.
struct Suppression {
  std::string rule;
  int first_line = 0;
  int last_line = 0;  // inclusive; findings up to last_line+1 are covered
};

std::vector<Suppression> parse_suppressions(const LexedFile& lexed) {
  std::vector<Suppression> out;
  for (const Comment& c : lexed.comments) {
    std::size_t pos = c.text.find("ppdc-lint:");
    if (pos == std::string::npos) continue;
    while ((pos = c.text.find("allow(", pos)) != std::string::npos) {
      pos += 6;
      std::size_t end = pos;
      while (end < c.text.size() && c.text[end] != ' ' &&
             c.text[end] != ')') {
        ++end;
      }
      if (end > pos) {
        out.push_back({c.text.substr(pos, end - pos), c.line, c.end_line});
      }
      pos = end;
    }
  }
  return out;
}

bool is_suppressed(const Finding& f, const std::vector<Suppression>& sups) {
  for (const Suppression& s : sups) {
    if (s.rule != f.rule) continue;
    if (f.line >= s.first_line && f.line <= s.last_line + 1) return true;
  }
  return false;
}

/// True when scanning `paths` (root-relative files or directories)
/// visits `file` if it exists.
bool scan_covers(const std::vector<std::string>& paths,
                 const std::string& file) {
  for (std::string p : paths) {
    while (p.size() >= 2 && p.compare(0, 2, "./") == 0) p.erase(0, 2);
    while (!p.empty() && p.back() == '/') p.pop_back();
    if (p.empty() || p == "." || p == file) return true;
    if (file.size() > p.size() && file.compare(0, p.size(), p) == 0 &&
        file[p.size()] == '/') {
      return true;
    }
  }
  return false;
}

std::string baseline_key(const Finding& f) {
  return f.path + ":" + std::to_string(f.line) + ":" + f.rule;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const RuleInfo* find_rule(const std::string& name) {
  for (const RuleInfo& r : rule_registry()) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

}  // namespace

ProjectContext build_context(const std::string& root) {
  ProjectContext ctx;
  std::vector<std::string> headers;
  collect_sources(root, "src", &headers);
  std::sort(headers.begin(), headers.end());
  for (const std::string& rel : headers) {
    const LexedFile lexed = lex(read_file(fs::path(root) / rel));
    std::set<std::string> incs;
    for (const Include& inc : lexed.includes) {
      if (!inc.angled) incs.insert(inc.path);
    }
    ctx.direct_includes.emplace(rel, std::move(incs));
    if (ends_with(rel, ".hpp")) {
      // Headers are spelled src-relative in include directives.
      extract_symbols(rel.substr(4), lexed, &ctx);
    }
  }
  return ctx;
}

LintResult run_lint(const LintOptions& options) {
  const fs::path root(options.root);
  std::vector<std::string> paths = options.paths;
  if (paths.empty()) {
    paths = {"src", "tests", "bench", "tools", "examples"};
  }
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    collect_sources(root, p, &files);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  const ProjectContext ctx = build_context(options.root);
  const std::set<std::string> enabled(options.rules.begin(),
                                      options.rules.end());
  for (const std::string& name : enabled) {
    if (find_rule(name) == nullptr) {
      throw std::runtime_error("unknown rule: " + name);
    }
  }

  std::set<std::string> baseline;
  if (!options.baseline_path.empty()) {
    const fs::path bp = fs::path(options.baseline_path).is_absolute()
                            ? fs::path(options.baseline_path)
                            : root / options.baseline_path;
    std::ifstream in(bp);
    if (!in) {
      throw std::runtime_error("cannot read baseline " + slashed(bp));
    }
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      baseline.insert(line);
    }
  }

  LintResult result;
  std::set<std::string> used_baseline;
  for (const std::string& rel : files) {
    FileUnit unit;
    unit.path = rel;
    unit.lex = lex(read_file(root / rel));
    const std::vector<Suppression> sups =
        options.apply_suppressions ? parse_suppressions(unit.lex)
                                   : std::vector<Suppression>{};
    for (Finding& f : run_rules(unit, ctx, enabled)) {
      if (is_suppressed(f, sups)) {
        result.suppressed.push_back(std::move(f));
        continue;
      }
      const std::string key = baseline_key(f);
      if (baseline.count(key) != 0) {
        used_baseline.insert(key);
        result.baselined.push_back(std::move(f));
        continue;
      }
      result.findings.push_back(std::move(f));
    }
  }
  // An unused entry is stale only if this run could have matched it: its
  // rule ran and the scan covered its file. A --rules subset or a narrower
  // path list says nothing about the entries it skipped.
  for (const std::string& entry : baseline) {
    if (used_baseline.count(entry) != 0) continue;
    const std::size_t rule_at = entry.rfind(':');
    const std::size_t line_at = rule_at == std::string::npos || rule_at == 0
                                    ? std::string::npos
                                    : entry.rfind(':', rule_at - 1);
    if (line_at == std::string::npos) {
      result.stale_baseline.push_back(entry);  // not path:line:rule
      continue;
    }
    const std::string rule = entry.substr(rule_at + 1);
    if (!enabled.empty() && enabled.count(rule) == 0) continue;
    if (scan_covers(paths, entry.substr(0, line_at))) {
      result.stale_baseline.push_back(entry);
    }
  }
  return result;
}

std::string format_text(const Finding& finding) {
  std::string out = finding.path + ":" + std::to_string(finding.line) + ":" +
                    std::to_string(finding.col) + ": " + finding.rule + ": " +
                    finding.message;
  if (const RuleInfo* info = find_rule(finding.rule)) {
    out += "\n    rationale: " + info->rationale;
  }
  return out;
}

std::string to_sarif(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"ppdc_lint\",\n"
     << "          \"informationUri\": "
        "\"https://example.invalid/ppdc/tools/lint\",\n"
     << "          \"rules\": [\n";
  const auto& registry = rule_registry();
  for (std::size_t i = 0; i < registry.size(); ++i) {
    os << "            {\"id\": \"" << json_escape(registry[i].name)
       << "\", \"shortDescription\": {\"text\": \""
       << json_escape(registry[i].rationale) << "\"}}"
       << (i + 1 < registry.size() ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\"ruleId\": \"" << json_escape(f.rule)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.path) << "\"}, \"region\": {\"startLine\": " << f.line
       << ", \"startColumn\": " << f.col << "}}}]}"
       << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::string to_baseline(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(baseline_key(f));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string out =
      "# ppdc_lint baseline: grandfathered findings (path:line:rule).\n"
      "# Regenerate with: ppdc_lint --write-baseline <file>\n";
  for (const std::string& k : keys) {
    out += k;
    out += '\n';
  }
  return out;
}

}  // namespace ppdc::lint
