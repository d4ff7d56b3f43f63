// harvest_planner: a downstream use of the library's public API — size a
// desktop-grid (BOINC/Condor-style) deployment on the monitored classrooms.
//
// Runs the monitoring experiment, derives per-hour harvestable capacity
// from the cluster-equivalence profile, and answers: how long would a batch
// of N CPU-hours (normalised to a dedicated reference machine) take if
// submitted at hour H, with and without occupied machines?
//
//   $ ./harvest_planner [batch_cpu_hours] [days]
#include <iostream>

#include "labmon/core/experiment.hpp"
#include "labmon/core/report.hpp"
#include "labmon/util/cli.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

namespace {

using namespace labmon;

/// Walks the weekly equivalence profile from `start_bin`, accumulating
/// dedicated-cluster hours until `batch_hours` are served.
double HoursToDrain(const stats::WeeklyProfile& profile, std::size_t start_bin,
                    double batch_machine_hours, double fleet_machines) {
  const double bin_hours = profile.bin_minutes() / 60.0;
  double served = 0.0;
  double elapsed = 0.0;
  std::size_t bin = start_bin;
  // Cap at 8 weeks of walking: a batch that large simply doesn't fit.
  const std::size_t max_steps = profile.bin_count() * 8;
  for (std::size_t step = 0; step < max_steps; ++step) {
    served += profile.Mean(bin) * fleet_machines * bin_hours;
    elapsed += bin_hours;
    if (served >= batch_machine_hours) return elapsed;
    bin = (bin + 1) % profile.bin_count();
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const double batch_hours =
      argc > 1 ? util::DoubleArg("batch_cpu_hours", argv[1], 0.0, 1e9)
               : 2000.0;
  core::ExperimentConfig config;
  if (argc > 2) {
    config.campus.days =
        static_cast<int>(util::IntArg("days", argv[2], 1, 5000));
  }

  std::cout << "Planning a " << util::FormatFixed(batch_hours, 0)
            << " machine-hour batch on the simulated classrooms...\n\n";
  const auto result = core::Experiment::Run(config);
  const core::Report report(result);
  const auto& eq = report.equivalence();

  std::cout << "Average harvestable capacity (dedicated-machine equivalents "
               "of the 169-box fleet):\n";
  std::cout << "  user-free machines only: "
            << util::FormatFixed(eq.mean_free * 169.0, 1) << " machines\n";
  std::cout << "  including occupied machines: "
            << util::FormatFixed(eq.mean_total * 169.0, 1) << " machines\n\n";

  util::AsciiTable table(
      "Wall-clock hours to drain the batch, by submission time");
  table.SetHeader({"Submitted", "Free machines only", "Free + occupied"});
  const auto& total = eq.weekly_total;
  const auto& free = eq.weekly_free;
  for (const int day : {0, 4, 5, 6}) {
    for (const int hour : {9, 21}) {
      const auto t = util::MakeTime(day, hour);
      const auto bin = total.BinOf(t);
      const double with_occupied = HoursToDrain(total, bin, batch_hours, 169.0);
      const double free_only = HoursToDrain(free, bin, batch_hours, 169.0);
      table.AddRow({util::FormatTimestamp(t).substr(5, 9),
                    free_only < 0 ? "never"
                                  : util::FormatFixed(free_only, 1) + " h",
                    with_occupied < 0
                        ? "never"
                        : util::FormatFixed(with_occupied, 1) + " h"});
    }
  }
  std::cout << table.Render();
  std::cout << "\nNote: assumes perfect checkpointing across machine "
               "volatility (the paper's idleness is an upper bound on "
               "harvestable CPU).\n";
  return 0;
}
