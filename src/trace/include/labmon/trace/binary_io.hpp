// Compact binary trace format ("LMTR1").
//
// A 77-day trace holds ~580 k samples; as CSV that is ~70 MB. This format
// delta-encodes every numeric field against the machine's previous sample
// (timestamps, cumulative counters and near-constant levels all shrink to
// one or two bytes) and interns usernames in a string table, giving ~10x
// smaller files with exact round-trip fidelity.
//
// Layout:
//   magic "LMTR1"
//   varint machine_count, sample_count, iteration_count, user_count
//   user table: per user { varint len, bytes }
//   samples (in global append order): per sample, varint/zigzag deltas
//     against that machine's previous sample
//   iterations: delta-coded metadata rows
#pragma once

#include <string>
#include <string_view>

#include "labmon/trace/block.hpp"
#include "labmon/trace/trace_store.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::trace {

/// Serialises the full store or block (samples + iteration metadata).
[[nodiscard]] std::string SerializeTrace(const BlockView& trace);

/// Parses a binary trace; verifies magic, bounds and counts.
[[nodiscard]] util::Result<TraceStore> DeserializeTrace(
    std::string_view bytes);

/// Writes/reads a binary trace file.
[[nodiscard]] util::Result<bool> WriteTraceFile(const std::string& path,
                                                const TraceStore& store);
[[nodiscard]] util::Result<TraceStore> ReadTraceFile(const std::string& path);

}  // namespace labmon::trace
