// Fig. 8: the daily VM traffic-rate pattern of Eq. 9 — N = 12 working
// hours, τ_min = 0.2, and the 3-hour east/west coast offset. Prints the
// per-hour scale factors for both coasts and the fleet average, which is
// exactly the curve plotted in the paper.
#include <iostream>

#include "bench_common.hpp"
#include "workload/diurnal.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace ppdc;
  const Options opts = Options::parse(argc, argv);
  opts.restrict_to({"hours", "tau_min", "offset", "csv"});
  DiurnalModel model;
  model.hours_per_day = opts.get_int32("hours", 12);
  model.tau_min = opts.get_double("tau_min", 0.2);
  model.coast_offset = opts.get_int32("offset", 3);

  bench::header(
      "Fig. 8 — daily traffic rate pattern (Eq. 9)",
      "N=" + std::to_string(model.hours_per_day) +
          ", tau_min=" + TablePrinter::num(model.tau_min, 2) +
          ", west coast lags " + std::to_string(model.coast_offset) + "h");

  TablePrinter table({"hour", "tau_h (Eq.9)", "east-coast scale",
                      "west-coast scale", "fleet average"});
  for (int h = 0; h <= model.hours_per_day; ++h) {
    const Hour hour{h};
    const double east = model.scale_for_flow(hour, FlowId{0});
    const double west = model.scale_for_flow(hour, FlowId{1});
    table.add_row({std::to_string(h), TablePrinter::num(model.tau(hour), 3),
                   TablePrinter::num(east, 3), TablePrinter::num(west, 3),
                   TablePrinter::num(0.5 * (east + west), 3)});
  }
  if (opts.get_bool("csv", false)) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\npaper shape: ramp from tau_min at 6AM to 1.0 at noon and "
               "back, west coast shifted 3 hours.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ppdc::guarded_main(bench_main, argc, argv);
}
