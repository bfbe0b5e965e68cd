// perfbench: end-to-end benchmark of the dynamic placement loop.
//
//   perfbench --workload shard_resolve|churn_hold|fig11_faults --seed N
//             --seconds S --trace 0|1 [--spans FILE] [--tiny]
//
// Prints the build provenance and thread settings, one line per metric,
// and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status is 0 only when every correctness check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "harness.hpp"

namespace {

/// Shortest decimal form that reads back as the same double.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void print_provenance(const std::string& workload, const perfbench::RunArgs& a) {
  const ppdc::bench::BenchBuildInfo b = ppdc::bench::bench_build_info();
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  std::printf("build: type=%s flags='%s' compiler='%s' native=%d\n",
              b.build_type.c_str(), b.cxx_flags.c_str(), b.compiler.c_str(),
              b.native ? 1 : 0);
  std::printf(
      "threads: nproc=%u pool=%d omp_max_threads=%d OMP_NUM_THREADS=%s "
      "seed=%llu workload=%s seconds=%g trace=%d%s\n",
      std::thread::hardware_concurrency(), a.threads, b.threads,
      omp_env != nullptr ? omp_env : "(unset)",
      static_cast<unsigned long long>(a.seed), workload.c_str(), a.seconds,
      a.trace ? 1 : 0, a.tiny ? " tiny" : "");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const ppdc::Options opts = ppdc::Options::parse(argc, argv);
    opts.restrict_to(
        {"workload", "seed", "seconds", "trace", "spans", "tiny"});
    const std::string workload = opts.get_string("workload", "");
    RunArgs args;
    args.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
    args.seconds = opts.get_double("seconds", 10.0);
    args.trace = opts.get_int("trace", 0) != 0;
    args.tiny = opts.get_bool("tiny", false);
    args.spans_path = opts.get_string("spans", "");
    if (args.seconds <= 0.0) {
      std::fprintf(stderr, "error: --seconds must be positive\n");
      return 2;
    }
    print_provenance(workload, args);

    Report rep;
    if (workload == "shard_resolve" || workload == "churn_hold") {
      rep = run_sharded(workload, args);
    } else if (workload == "fig11_faults") {
      rep = run_fig11_faults(args);
    } else {
      std::fprintf(stderr,
                   "error: unknown --workload '%s' (shard_resolve, "
                   "churn_hold, fig11_faults)\n",
                   workload.c_str());
      return 2;
    }

    for (const std::string& e : rep.errors) {
      std::printf("CHECK FAILED: %s\n", e.c_str());
    }
    std::printf("fail_frac = %s ratio (%ld failed / %ld attempted)\n",
                num(static_cast<double>(rep.failed) /
                    static_cast<double>(rep.attempted > 0 ? rep.attempted : 1))
                    .c_str(),
                rep.failed, rep.attempted);
    for (const Metric& m : rep.metrics) {
      std::printf("%s = %s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
    const bool correct = rep.errors.empty() && rep.failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted > 0 ? rep.attempted : 1);
    json += ", \"failed\": " + std::to_string(rep.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const Metric& m = rep.metrics[i];
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
