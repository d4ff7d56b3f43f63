// Quickstart: run a one-week monitoring experiment on the paper's fleet and
// print the headline numbers.
//
//   $ ./quickstart [days]
#include <iostream>

#include "labmon/core/experiment.hpp"
#include "labmon/core/report.hpp"
#include "labmon/util/cli.hpp"
#include "labmon/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace labmon;

  core::ExperimentConfig config;
  config.campus.days =
      argc > 1 ? static_cast<int>(util::IntArg("days", argv[1], 1, 5000)) : 7;

  std::cout << "Simulating " << config.campus.days
            << " day(s) of 169 Windows 2000 classroom machines...\n\n";
  const auto result = core::Experiment::Run(config);
  const core::Report report(result);

  std::cout << report.Table1() << '\n';
  std::cout << report.Table2() << '\n';
  std::cout << "Iterations completed: " << result.run_stats.iterations
            << " (mean iteration length "
            << util::FormatFixed(result.run_stats.mean_iteration_s / 60.0, 1)
            << " min)\n";
  std::cout << "Ground truth: " << result.ground_truth.boots << " boots, "
            << result.ground_truth.TotalLogins() << " logins, "
            << result.ground_truth.forgotten_sessions
            << " forgotten sessions\n";
  return 0;
}
