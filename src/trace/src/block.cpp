#include "labmon/trace/block.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

namespace labmon::trace {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// kFnvPrimePow[k] = kFnvPrime^k (mod 2^64).
constexpr std::array<std::uint64_t, 9> kFnvPrimePow = [] {
  std::array<std::uint64_t, 9> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * kFnvPrime;
  return pow;
}();

inline std::uint64_t FnvBytes(std::uint64_t h, const void* data,
                              std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over v's eight little-endian bytes. A zero byte's step is just
/// `h *= prime` (h ^ 0 == h), so once the remaining high bytes are all
/// zero their k steps collapse into one multiply by prime^k. Most column
/// values are small, which turns eight serial multiplies into two or
/// three.
inline std::uint64_t FnvU64(std::uint64_t h, std::uint64_t v) noexcept {
  std::size_t bytes = 0;
  for (; v != 0; v >>= 8, ++bytes) {
    h ^= v & 0xffu;
    h *= kFnvPrime;
  }
  return h * kFnvPrimePow[8 - bytes];
}

template <typename T>
std::uint64_t CanonicalU64(T v) noexcept {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else if constexpr (std::is_signed_v<T>) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

}  // namespace

void TraceBlock::AssignFrom(const TraceStore& store) {
  Clear();
  const TraceStore::Columns& src = store.columns();
  TraceStore::ForEachColumn([&](auto member) { cols.*member = src.*member; });
  users.assign(store.users().begin(), store.users().end());
  iterations.assign(store.iterations().begin(), store.iterations().end());
}

StoreReader::StoreReader(const TraceStore& store, std::size_t block_samples)
    : store_(&store), block_samples_(std::max<std::size_t>(1, block_samples)) {
  scratch_.users.assign(store.users().begin(), store.users().end());
}

const TraceBlock* StoreReader::Next() {
  if (pos_ >= store_->size()) return nullptr;
  const std::size_t end = std::min(pos_ + block_samples_, store_->size());
  TraceStore::ForEachColumn([&](auto member) { (scratch_.cols.*member).clear(); });
  const TraceStore::Columns& src = store_->columns();
  TraceStore::ForEachColumn([&](auto member) {
    (scratch_.cols.*member)
        .assign((src.*member).begin() + static_cast<std::ptrdiff_t>(pos_),
                (src.*member).begin() + static_cast<std::ptrdiff_t>(end));
  });
  pos_ = end;
  return &scratch_;
}

std::uint64_t HashBlockSamples(std::uint64_t h, const TraceBlock& block) {
  using Columns = TraceStore::Columns;
  for (std::size_t i = 0; i < block.size(); ++i) {
    TraceStore::ForEachColumn([&](auto member) {
      // user_id is interning-scheme-dependent; the user *string* is hashed
      // below instead.
      if constexpr (std::is_same_v<decltype(member),
                                   std::vector<std::uint32_t> Columns::*>) {
        if (member == &Columns::user_id) return;
      }
      h = FnvU64(h, CanonicalU64((block.cols.*member)[i]));
    });
    if (block.cols.has_session[i] != 0) {
      const std::string_view user = block.UserOf(i);
      h = FnvU64(h, user.size());
      h = FnvBytes(h, user.data(), user.size());
    }
  }
  return h;
}

std::uint64_t HashSampleStream(TraceReader& reader) {
  std::uint64_t h = kSampleStreamHashSeed;
  while (const TraceBlock* block = reader.Next()) {
    h = HashBlockSamples(h, *block);
  }
  return h;
}

}  // namespace labmon::trace
