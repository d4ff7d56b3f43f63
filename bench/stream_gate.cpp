// stream_gate — CI comparator over BENCH_stream.json (see
// bench/stream_fleet).
//
//   stream_gate BENCH_stream.json
//
// Checks the streaming pipeline's contract against the materialised
// engine measured in the same bench run:
//   * the merged sample-stream hash is identical to the materialised
//     trace's (bit-identical streaming; compared as hex strings so no
//     bits are lost to double round-tripping)
//   * streamed peak RSS <= materialised peak RSS + 8 MiB of slack — the
//     streamed run must never out-eat the engine that holds the whole
//     trace (the slack absorbs allocator noise on tiny horizons, where
//     both footprints are dominated by the fleet itself). At CI's 7 days
//     both runs peak near 20 MiB, so the slack is tight enough to catch
//     the fold's per-machine weekly state growing back from 31.5 KiB to
//     the 157.5 KiB of five full WeeklyProfiles (a ~41 MiB streamed peak)
//   * streamed peak RSS is flat in the horizon: the 2x-horizon run stays
//     within 1.25x + 8 MiB of the 1x run (the O(block) memory claim)
//   * the 2x run actually streamed more blocks than the 1x run (the
//     flatness check is vacuous if everything fit in one block)
//   * streamed wall time within 2.5x + 1 s of materialised — segment
//     write/read and checksumming must not cripple throughput. The band
//     is wide because bench containers are noisy; the gate exists to
//     catch step regressions, not jitter.
//   * cross-codec stream identity: the LMSG1 run's hash equals the LMSG2
//     run's (and hence the materialised trace's) — compression must be
//     invisible to the decoded stream
//   * compression band: both codecs spilled real bytes; the LMSG2 run's
//     raw->disk compression ratio is >= 3x (the headline segment-size
//     claim, against raw columnar bytes); and the lmsg1/lmsg2 on-disk
//     ratio sits in [1.3, 50]. The cross-codec band is deliberately
//     modest: LMTR1 (LMSG1's payload) is itself per-machine delta+varint
//     coded, so LMSG2's incremental win over it is bounded (~1.5x
//     measured) even though its reduction versus raw bytes is ~6x. The
//     lower bounds catch a broken or disabled encoder, the loose upper
//     bound catches nonsense accounting.
//
// Exit code 0 = all checks pass; 1 = at least one FAIL (each printed).
#include <iostream>
#include <string>

#include "labmon/util/csv.hpp"
#include "labmon/util/json.hpp"
#include "labmon/util/strings.hpp"

namespace {

using namespace labmon;

int g_failures = 0;

void Check(bool ok, const std::string& what, const std::string& detail) {
  std::cout << (ok ? "PASS" : "FAIL") << ": " << what << " (" << detail
            << ")\n";
  if (!ok) ++g_failures;
}

std::string Mib(double bytes) {
  return util::FormatFixed(bytes / (1024.0 * 1024.0), 1) + " MiB";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: stream_gate BENCH_stream.json\n";
    return 2;
  }

  const auto text = util::ReadTextFile(argv[1]);
  if (!text.ok()) {
    std::cerr << "cannot read " << argv[1] << ": " << text.error() << "\n";
    return 2;
  }
  const auto doc = util::json::Parse(text.value());
  if (!doc.ok()) {
    std::cerr << "cannot parse " << argv[1] << ": " << doc.error() << "\n";
    return 2;
  }
  std::cout << "stream_gate: " << argv[1] << "\n";

  const auto& modes = doc.value()["modes"];
  const auto& mat = modes["materialized"];
  const auto& stream = modes["streamed"];
  const auto& stream2 = modes["streamed_2x"];

  const std::string mat_hash = mat["stream_hash"].AsString();
  const std::string stream_hash = stream["stream_hash"].AsString();
  Check(!mat_hash.empty() && mat_hash == stream_hash,
        "streamed hash matches materialised trace",
        stream_hash + " vs " + mat_hash);

  // Platforms without getrusage/VmHWM report peak_rss_supported=false (and
  // 0 bytes). Comparing 0-vs-0 would vacuously pass — or, with a partial
  // report, trip the gate on a measurement artefact — so the RSS checks are
  // skipped (not failed) unless every mode measured a real footprint.
  const double mat_rss = mat.Number("peak_rss_bytes", 0.0);
  const double stream_rss = stream.Number("peak_rss_bytes", 1e18);
  const double stream2_rss = stream2.Number("peak_rss_bytes", 1e18);
  const bool rss_supported =
      mat.Number("peak_rss_supported", mat_rss != 0.0 ? 1.0 : 0.0) != 0.0 &&
      stream.Number("peak_rss_supported", 1.0) != 0.0 &&
      stream2.Number("peak_rss_supported", 1.0) != 0.0 &&
      mat_rss > 0.0;
  const double slack = 8.0 * 1024.0 * 1024.0;
  if (rss_supported) {
    Check(stream_rss <= mat_rss + slack,
          "streamed peak RSS no worse than materialised",
          Mib(stream_rss) + " vs " + Mib(mat_rss));
    Check(stream2_rss <= stream_rss * 1.25 + slack,
          "streamed peak RSS flat in the horizon (2x days)",
          Mib(stream2_rss) + " vs " + Mib(stream_rss));
  } else {
    std::cout << "SKIP: peak RSS checks (platform cannot measure peak RSS; "
                 "peak_rss_supported=false)\n";
  }

  const double blocks1 = stream.Number("merged_blocks", 0.0);
  const double blocks2 = stream2.Number("merged_blocks", 0.0);
  Check(blocks1 >= 1.0 && blocks2 > blocks1,
        "2x-horizon run streamed more blocks",
        util::FormatFixed(blocks2, 0) + " vs " +
            util::FormatFixed(blocks1, 0));

  const double mat_wall = mat.Number("wall_s", 0.0);
  const double stream_wall = stream.Number("wall_s", 1e18);
  Check(stream_wall <= mat_wall * 2.5 + 1.0,
        "streamed wall within 2.5x of materialised",
        util::FormatFixed(stream_wall, 3) + " s vs " +
            util::FormatFixed(mat_wall, 3) + " s");

  // --- spill codec checks (LMSG2 tentpole) ---
  const auto& lmsg1 = modes["streamed_lmsg1"];
  const std::string lmsg1_hash = lmsg1["stream_hash"].AsString();
  Check(!lmsg1_hash.empty() && lmsg1_hash == stream_hash,
        "lmsg1 and lmsg2 runs decode identical streams",
        lmsg1_hash + " vs " + stream_hash);
  Check(lmsg1["spill_codec"].AsString() == "lmsg1" &&
            stream["spill_codec"].AsString() == "lmsg2",
        "modes ran under the codecs they claim",
        lmsg1["spill_codec"].AsString() + " / " +
            stream["spill_codec"].AsString());

  const auto& compression = doc.value()["compression"];
  const double lmsg1_bytes = compression.Number("lmsg1_segment_bytes", 0.0);
  const double lmsg2_bytes = compression.Number("lmsg2_segment_bytes", 0.0);
  Check(lmsg1_bytes > 0.0 && lmsg2_bytes > 0.0,
        "both codecs spilled real segment bytes",
        util::FormatFixed(lmsg1_bytes, 0) + " / " +
            util::FormatFixed(lmsg2_bytes, 0) + " bytes");
  const double raw_ratio = stream.Number("compression_ratio", 0.0);
  Check(raw_ratio >= 3.0,
        "lmsg2 raw->disk compression ratio >= 3x",
        util::FormatFixed(raw_ratio, 2) + "x");
  const double ratio =
      lmsg2_bytes > 0.0 ? lmsg1_bytes / lmsg2_bytes : 0.0;
  Check(ratio >= 1.3 && ratio <= 50.0,
        "lmsg1/lmsg2 segment-size ratio in [1.3, 50]",
        util::FormatFixed(ratio, 2) + "x");

  if (g_failures > 0) {
    std::cerr << g_failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
