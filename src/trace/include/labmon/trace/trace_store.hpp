// TraceStore — the collected monitoring trace.
//
// Stores every *successful* sample (the paper's 583,653 rows) plus
// per-iteration metadata, so attempt counts and response rates are exact
// without storing a row per timeout. Supports CSV round-trip for
// persistence and external analysis.
//
// Storage is columnar (structure-of-arrays): each probe field lives in its
// own contiguous vector, so an analysis pass that touches two or three
// fields of 10^5..10^6 samples streams only those columns through the
// cache instead of 100+-byte rows. User names are interned into a string
// table and referenced by id. The row-oriented API (`samples()`,
// `Sample(i)`) is preserved as a gather layer for convenience and
// compatibility; hot paths should read `columns()` directly.
//
// The per-machine sample index is maintained eagerly on Append and spans
// only the machine ids appended so far, so a store that collects one lab
// indexes that lab, not the fleet. Reads
// (`MachineSamples`, `ResponsesPerMachine`, `columns()`) never mutate the
// store, so a fully-collected trace is safe to share across analysis
// threads without synchronisation. (The previous lazy `EnsureIndex`
// rebuild was a data race when first touched under util::ParallelFor.)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "labmon/trace/sample_record.hpp"
#include "labmon/util/expected.hpp"

namespace labmon::trace {

/// Metadata of one coordinator iteration.
struct IterationInfo {
  std::uint64_t iteration = 0;
  std::int64_t start_t = 0;
  std::int64_t end_t = 0;
  std::uint32_t attempts = 0;
  std::uint32_t successes = 0;
};

class TraceStore {
 public:
  /// Sentinel user id of samples without an interactive session.
  static constexpr std::uint32_t kNoUser = 0xffffffffu;

  /// The columnar sample storage, one vector per probe field, all of
  /// length size(). Append order (chronological, iteration-major).
  struct Columns {
    std::vector<std::uint32_t> machine;
    std::vector<std::uint32_t> iteration;
    std::vector<std::int64_t> t;
    std::vector<std::int64_t> boot_time;
    std::vector<std::int64_t> uptime_s;
    std::vector<double> cpu_idle_s;
    std::vector<std::uint16_t> ram_mb;
    std::vector<std::uint8_t> mem_load_pct;
    std::vector<std::uint8_t> swap_load_pct;
    std::vector<std::uint64_t> disk_total_b;
    std::vector<std::uint64_t> disk_free_b;
    std::vector<std::uint64_t> smart_power_on_hours;
    std::vector<std::uint64_t> smart_power_cycles;
    std::vector<std::uint64_t> net_sent_b;
    std::vector<std::uint64_t> net_recv_b;
    std::vector<std::uint8_t> has_session;    ///< 0/1 flag column
    std::vector<std::int64_t> session_logon;  ///< 0 when no session
    std::vector<std::uint32_t> user_id;       ///< kNoUser when no session
  };

  /// Visits every column of `Columns` as a member pointer, in the canonical
  /// (wire/append) order. The single source of truth for "what columns
  /// exist": Reserve, AppendFrom, the block/segment codecs and the stream
  /// hash all iterate this list, so adding a column here updates every
  /// column-generic path at once instead of hand-maintained copies.
  template <typename Visitor>
  static constexpr void ForEachColumn(Visitor&& v) {
    v(&Columns::machine);
    v(&Columns::iteration);
    v(&Columns::t);
    v(&Columns::boot_time);
    v(&Columns::uptime_s);
    v(&Columns::cpu_idle_s);
    v(&Columns::ram_mb);
    v(&Columns::mem_load_pct);
    v(&Columns::swap_load_pct);
    v(&Columns::disk_total_b);
    v(&Columns::disk_free_b);
    v(&Columns::smart_power_on_hours);
    v(&Columns::smart_power_cycles);
    v(&Columns::net_sent_b);
    v(&Columns::net_recv_b);
    v(&Columns::has_session);
    v(&Columns::session_logon);
    v(&Columns::user_id);
  }

  explicit TraceStore(std::size_t machine_count = 0)
      : machine_count_(machine_count) {}

  void Reserve(std::size_t samples);

  /// Appends a successful sample (must be time-ordered per machine).
  /// Not thread-safe: collection is single-writer by design.
  void Append(const SampleRecord& record);
  /// Appends iteration metadata (in iteration order).
  void AppendIteration(IterationInfo info);

  /// Interns `user` exactly as Append does and returns its id — for bulk
  /// columnar appends (MergeTraces) that translate source-store user ids
  /// themselves instead of re-hashing the string per sample.
  [[nodiscard]] std::uint32_t InternUserId(const std::string& user) {
    return InternUser(user);
  }
  /// Columnar append of sample `i` of `src`, with `user_id` already
  /// translated into *this* store's table (kNoUser = no session). Skips
  /// the row gather + string re-intern of Append; the resulting store is
  /// byte-identical to appending the gathered SampleRecord.
  void AppendFrom(const Columns& src, std::size_t i, std::uint32_t user_id);

  /// Drops all samples, iterations and interned users but keeps the
  /// machine count — the spilling sink's "seal a block, start the next"
  /// reset. Column capacity is retained so steady-state block collection
  /// does not re-allocate.
  void ClearSamples();

  [[nodiscard]] std::size_t machine_count() const noexcept {
    return machine_count_;
  }
  void set_machine_count(std::size_t n) noexcept { machine_count_ = n; }

  [[nodiscard]] std::size_t size() const noexcept {
    return columns_.t.size();
  }
  [[nodiscard]] const Columns& columns() const noexcept { return columns_; }
  [[nodiscard]] std::span<const IterationInfo> iterations() const noexcept {
    return iterations_;
  }
  [[nodiscard]] std::uint64_t TotalAttempts() const noexcept;

  /// Gathers sample i back into a row (copies the interned user string).
  [[nodiscard]] SampleRecord Sample(std::size_t i) const;

  /// Interned user name of sample i ("" when no session).
  [[nodiscard]] std::string_view UserOf(std::size_t i) const noexcept;
  /// The interned user string table (index = user id).
  [[nodiscard]] std::span<const std::string> users() const noexcept {
    return users_;
  }

  // --- Column-based per-sample helpers (mirror SampleRecord's methods) ---

  /// Session age of sample i at probe time (0 when no session).
  [[nodiscard]] std::int64_t SessionSeconds(std::size_t i) const noexcept {
    return columns_.has_session[i] ? columns_.t[i] - columns_.session_logon[i]
                                   : 0;
  }
  /// Login-state classification of sample i (paper's 10-hour rule).
  [[nodiscard]] LoginClass Classify(
      std::size_t i,
      std::int64_t threshold_s = kForgottenThresholdSeconds) const noexcept {
    if (!columns_.has_session[i]) return LoginClass::kNoLogin;
    return SessionSeconds(i) >= threshold_s ? LoginClass::kForgotten
                                            : LoginClass::kWithLogin;
  }
  [[nodiscard]] bool CountsAsOccupied(
      std::size_t i,
      std::int64_t threshold_s = kForgottenThresholdSeconds) const noexcept {
    return Classify(i, threshold_s) == LoginClass::kWithLogin;
  }
  [[nodiscard]] std::uint64_t DiskUsedBytes(std::size_t i) const noexcept {
    return columns_.disk_total_b[i] - columns_.disk_free_b[i];
  }
  [[nodiscard]] double FreeRamMb(std::size_t i) const noexcept {
    return columns_.ram_mb[i] * (100.0 - columns_.mem_load_pct[i]) / 100.0;
  }

  /// Row-compat view over the columnar store: iterable, indexable, yields
  /// gathered SampleRecord values. Convenience/IO path — analysis hot
  /// loops should read columns() instead.
  class RowRange {
   public:
    class Iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = SampleRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const SampleRecord*;
      using reference = SampleRecord;

      Iterator(const TraceStore* store, std::size_t i)
          : store_(store), i_(i) {}
      [[nodiscard]] SampleRecord operator*() const {
        return store_->Sample(i_);
      }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      Iterator operator++(int) {
        Iterator copy = *this;
        ++i_;
        return copy;
      }
      [[nodiscard]] bool operator==(const Iterator& other) const noexcept {
        return i_ == other.i_;
      }
      [[nodiscard]] bool operator!=(const Iterator& other) const noexcept {
        return i_ != other.i_;
      }

     private:
      const TraceStore* store_;
      std::size_t i_;
    };

    [[nodiscard]] std::size_t size() const noexcept { return store_->size(); }
    [[nodiscard]] bool empty() const noexcept { return size() == 0; }
    [[nodiscard]] SampleRecord operator[](std::size_t i) const {
      return store_->Sample(i);
    }
    [[nodiscard]] Iterator begin() const noexcept {
      return Iterator(store_, 0);
    }
    [[nodiscard]] Iterator end() const noexcept {
      return Iterator(store_, store_->size());
    }

   private:
    friend class TraceStore;
    explicit RowRange(const TraceStore* store) : store_(store) {}
    const TraceStore* store_;
  };

  /// Row view of all samples (gathered on access).
  [[nodiscard]] RowRange samples() const noexcept { return RowRange(this); }

  /// Indices of one machine's samples, in time order. The index is built
  /// eagerly on Append, so this is a pure read (thread-safe on an
  /// immutable store).
  [[nodiscard]] std::span<const std::uint32_t> MachineSamples(
      std::size_t machine) const noexcept;

  /// Per-machine response (success) counts.
  [[nodiscard]] std::vector<std::uint32_t> ResponsesPerMachine() const;

  /// Serialises all samples to CSV text (with header).
  [[nodiscard]] std::string SamplesToCsv() const;
  /// Serialises iteration metadata to CSV text.
  [[nodiscard]] std::string IterationsToCsv() const;

  /// Parses a store back from the two CSV documents.
  [[nodiscard]] static util::Result<TraceStore> FromCsv(
      const std::string& samples_csv, const std::string& iterations_csv,
      std::size_t machine_count);

 private:
  [[nodiscard]] std::uint32_t InternUser(const std::string& user);
  /// Adds sample `index` to `machine`'s list, widening the indexed range.
  void IndexSample(std::uint32_t machine, std::uint32_t index);

  std::size_t machine_count_;
  Columns columns_;
  std::vector<IterationInfo> iterations_;
  std::vector<std::string> users_;
  std::unordered_map<std::string, std::uint32_t> user_ids_;
  /// Eager index: per_machine_[m - index_first_] lists machine m's samples.
  std::vector<std::vector<std::uint32_t>> per_machine_;
  std::size_t index_first_ = 0;
};

}  // namespace labmon::trace
