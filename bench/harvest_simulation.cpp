// Extension bench: desktop-grid harvesting on the monitored classrooms
// (operationalising the paper's §6 conclusions). A bag of identical
// CPU-bound jobs (an edge-free JobDag) is scavenged from the fleet by the
// DagScheduler under different policies; the
// checkpointing sweep quantifies the "survival techniques" the paper says
// volatility demands, and the effective-machine count is directly
// comparable with Figure 6's equivalence ratio.
#include "bench_common.hpp"

#include "labmon/harvest/dag_scheduler.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"
#include "labmon/winsim/paper_specs.hpp"
#include "labmon/workload/driver.hpp"

int main() {
  using namespace labmon;
  bench::Banner("Harvest simulation: desktop-grid scavenging with checkpoints");

  const int days = std::min(bench::BenchDays(), 14);
  // Size the batch to roughly 60% of the horizon's expected idle capacity,
  // so completion times differentiate the policies.
  const double job_index_hours = 25.0;  // ~40 min on the fastest boxes
  harvest::DagJob job;
  job.index_seconds = job_index_hours * 3600.0;
  harvest::JobDag bag;
  bag.jobs.assign(static_cast<std::size_t>(days * 70), job);

  util::AsciiTable table(
      "Bag: " + std::to_string(bag.jobs.size()) + " jobs x " +
      util::FormatFixed(job_index_hours, 0) + " index-hours, " +
      std::to_string(days) + "-day horizon");
  table.SetHeader({"Policy", "Done", "Makespan (h)", "Waste (%)",
                   "Evict login", "Evict power", "Mean busy",
                   "Effective machines", "Equiv ratio"});

  const auto run = [&](bool occupied, double checkpoint_minutes,
                       bool backups = false) {
    // Fresh fleet + driver per run: identical behaviour (same seed), so
    // rows differ only by policy.
    util::Rng rng(bench::BenchSeed());
    winsim::Fleet fleet = winsim::MakePaperFleet(rng);
    workload::CampusConfig campus;
    campus.days = days;
    campus.seed = bench::BenchSeed();
    workload::WorkloadDriver driver(fleet, campus);

    harvest::DagPolicy policy;
    policy.grid.use_occupied_machines = occupied;
    policy.grid.checkpoint_interval_s = checkpoint_minutes * 60.0;
    policy.grid.speculative_backups = backups;
    harvest::DagScheduler scheduler(fleet, driver, policy);
    const auto result = scheduler.Run(bag, 0, campus.EndTime());
    table.AddRow(
        {harvest::DescribePolicy(policy.grid),
         std::to_string(result.jobs_completed) + "/" +
             std::to_string(result.jobs_total),
         result.dag_finished
             ? util::FormatFixed(result.makespan_s / 3600.0, 1)
             : "DNF",
         util::FormatFixed(100.0 * result.WasteFraction(), 1),
         std::to_string(result.evictions_login),
         std::to_string(result.evictions_poweroff),
         util::FormatFixed(result.mean_busy_machines, 1),
         util::FormatFixed(result.effective_dedicated_machines, 1),
         util::FormatFixed(
             bench::CompareWithFig6(result.effective_dedicated_machines,
                                    fleet.size(), bench::kPaperEquivalenceTotal)
                 .ratio,
             3)});
  };

  for (const double ckpt : {0.0, 60.0, 15.0, 5.0}) {
    run(false, ckpt);
  }
  for (const double ckpt : {0.0, 15.0}) {
    run(true, ckpt);
  }
  run(false, 15.0, /*backups=*/true);
  std::cout << table.Render();
  std::cout <<
      "\n'Effective machines' is useful work divided by elapsed time and the\n"
      "fleet-average NBench index — the realised counterpart of Figure 6's\n"
      "equivalence ratio x 169 (~83 machines as an upper bound). Checkpoints\n"
      "turn eviction losses into bounded waste; using occupied machines\n"
      "(stealing only their idle share) buys back the Figure 6 'occupied'\n"
      "contribution and ends login evictions, at the price of more\n"
      "power-off evictions.\n";
  return 0;
}
