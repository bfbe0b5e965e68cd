// Minimal command-line option parsing for benches and examples.
//
// Supports `--key=value` and `--key value` pairs plus boolean `--flag`.
// Unknown keys are rejected so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppdc {

/// Parsed command-line options with typed accessors and defaults.
class Options {
 public:
  /// Parses argv; throws PpdcError on malformed input.
  static Options parse(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// An int-sized option (an arity, a count, a thread number): get_int
  /// range-checked into int, so 4294967300 throws a PpdcError that names
  /// the key instead of wrapping.
  int get_int32(const std::string& key, int fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// Comma-separated lists ("3,5,7"). Every item must parse whole: an
  /// empty item ("5,,7", "5,") or a malformed one ("x", "7x") throws a
  /// PpdcError that names the key.
  std::vector<int> get_int_list(const std::string& key,
                                const std::vector<int>& fallback) const;
  std::vector<double> get_double_list(
      const std::string& key, const std::vector<double>& fallback) const;

  /// Keys observed on the command line (for --help style listings).
  std::vector<std::string> keys() const;

  /// Throws if any provided key is outside `allowed`.
  void restrict_to(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace ppdc
