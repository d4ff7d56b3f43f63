// nbench_host: run the real NBench/BYTEmark-style kernel suite on this
// machine — the same benchmark probe the authors pushed through DDC to fill
// Table 1's INT/FP columns.
//
//   $ ./nbench_host [seconds_per_kernel]
#include <iostream>

#include "labmon/ddc/nbench_probe.hpp"
#include "labmon/nbench/nbench.hpp"
#include "labmon/util/cli.hpp"
#include "labmon/util/strings.hpp"
#include "labmon/util/table.hpp"

int main(int argc, char** argv) {
  using namespace labmon;

  nbench::SuiteConfig config;
  config.min_seconds_per_kernel =
      argc > 1 ? util::DoubleArg("seconds_per_kernel", argv[1], 0.001, 3600.0)
               : 0.25;

  std::cout << "Running the 10 BYTEmark-style kernels ("
            << util::FormatFixed(config.min_seconds_per_kernel, 2)
            << " s each, self-validating)...\n\n";

  const auto scores = nbench::RunSuite(config);
  util::AsciiTable table("NBench kernel results");
  table.SetHeader({"Kernel", "Class", "Iterations/s", "Index vs baseline"});
  for (const auto& score : scores) {
    table.AddRow({nbench::KernelName(score.id),
                  nbench::IsIntegerKernel(score.id) ? "INT" : "FP",
                  util::FormatFixed(score.iterations_per_second, 2),
                  util::FormatFixed(score.iterations_per_second /
                                        nbench::BaselineRate(score.id),
                                    2)});
  }
  std::cout << table.Render() << '\n';

  const auto indexes = nbench::ComputeIndexes(scores);
  std::cout << "INTEGER index: " << util::FormatFixed(indexes.int_index, 2)
            << "\nFLOATING-POINT index: "
            << util::FormatFixed(indexes.fp_index, 2)
            << "\ncombined (50/50, as used for Fig 6 normalisation): "
            << util::FormatFixed(indexes.Combined(), 2) << "\n\n";

  std::cout << "Probe-format output (what DDC's post-collect code parses):\n"
            << ddc::NBenchProbe::RunOnHost("localhost", config);
  return 0;
}
