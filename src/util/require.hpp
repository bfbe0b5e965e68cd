// Lightweight precondition / invariant checking for the ppdc library.
//
// The library throws `ppdc::PpdcError` (derived from std::runtime_error) on
// contract violations instead of asserting, so misuse is testable and never
// silently ignored in release builds.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace ppdc {

/// Exception type thrown on any contract violation inside the library.
class PpdcError : public std::runtime_error {
 public:
  explicit PpdcError(const std::string& what) : std::runtime_error(what) {}
};

/// A failure worth retrying: the operation may succeed on a rerun because
/// the cause is environmental (wall-clock pathology, external solver
/// hiccup, resource pressure), not a deterministic contract violation.
/// The experiment runner retries jobs that fail with TransientError up to
/// ExperimentConfig::retry_limit extra attempts (sim/experiment.hpp);
/// plain PpdcError never triggers a retry.
class TransientError : public PpdcError {
 public:
  using PpdcError::PpdcError;
};

namespace detail {
[[noreturn]] void throw_requirement_failed(const char* expr, const char* file,
                                           int line, const std::string& msg);
[[noreturn]] void throw_narrowing_failed(long long value, const char* context);
[[noreturn]] void throw_narrowing_failed(unsigned long long value,
                                         const char* context);
}  // namespace detail

/// Overflow-checked integer narrowing: static_cast that throws PpdcError
/// when `value` is not representable in `To` (e.g. a container size
/// narrowed to a NodeId). `context` names the quantity in the error.
template <class To, class From>
constexpr To checked_cast(From value, const char* context = "integer value") {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_cast converts between integer types only");
  if (!std::in_range<To>(value)) {
    if constexpr (std::is_signed_v<From>) {
      detail::throw_narrowing_failed(static_cast<long long>(value), context);
    } else {
      detail::throw_narrowing_failed(static_cast<unsigned long long>(value),
                                     context);
    }
  }
  return static_cast<To>(value);
}

}  // namespace ppdc

/// Checks `cond`; throws ppdc::PpdcError with context when it is false.
/// Enabled in all build types (these guard API misuse, not hot loops).
#define PPDC_REQUIRE(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::ppdc::detail::throw_requirement_failed(#cond, __FILE__, __LINE__,  \
                                               (msg));                     \
    }                                                                      \
  } while (false)
