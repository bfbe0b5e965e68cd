#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "util/require.hpp"

namespace ppdc {

namespace {

/// `text` as one whole integer; throws naming --key otherwise.
std::int64_t parse_int(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(text.c_str(), &end, 10);
  PPDC_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
               "option --" + key + " expects an integer, got '" + text + "'");
  PPDC_REQUIRE(errno != ERANGE, "option --" + key + " value '" + text +
                                    "' is outside the 64-bit integer range");
  return v;
}

/// `text` as one whole number; throws naming --key otherwise.
double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  PPDC_REQUIRE(!text.empty() && end != nullptr && *end == '\0',
               "option --" + key + " expects a number, got '" + text + "'");
  return v;
}

/// Every comma-separated item of `csv` (empty ones included) through
/// `parse_item`.
template <class T, class Parse>
std::vector<T> parse_list(const std::string& csv, Parse&& parse_item) {
  std::vector<T> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = csv.find(',', begin);
    out.push_back(parse_item(csv.substr(begin, comma - begin)));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

}  // namespace

Options Options::parse(int argc, const char* const* argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    PPDC_REQUIRE(arg.rfind("--", 0) == 0, "options must start with --: " + arg);
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opts.kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      opts.kv_[arg] = argv[++i];
    } else {
      opts.kv_[arg] = "true";  // bare flag
    }
  }
  return opts;
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_int(key, it->second);
}

int Options::get_int32(const std::string& key, int fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string option = "option --" + key;
  return checked_cast<int>(parse_int(key, it->second), option.c_str());
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_double(key, it->second);
}

std::vector<int> Options::get_int_list(const std::string& key,
                                       const std::vector<int>& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string option = "option --" + key;
  return parse_list<int>(it->second, [&](const std::string& item) {
    return checked_cast<int>(parse_int(key, item), option.c_str());
  });
}

std::vector<double> Options::get_double_list(
    const std::string& key, const std::vector<double>& fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_list<double>(it->second, [&](const std::string& item) {
    return parse_double(key, item);
  });
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw PpdcError("option --" + key + " expects a boolean, got " + v);
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> ks;
  ks.reserve(kv_.size());
  for (const auto& [k, v] : kv_) ks.push_back(k);
  return ks;
}

void Options::restrict_to(const std::vector<std::string>& allowed) const {
  for (const auto& [k, v] : kv_) {
    PPDC_REQUIRE(std::find(allowed.begin(), allowed.end(), k) != allowed.end(),
                 "unknown option --" + k);
  }
}

}  // namespace ppdc
