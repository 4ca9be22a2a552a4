// Lock-striped hash cache for handlers that many threads call at once; its
// user is net::ResponseCache, in front of SocketServer's worker threads.
//
// One global mutex around a cache turns concurrent callers into a convoy:
// every worker serializes on the same lock even though nearly all lookups
// touch distinct keys. ShardedCache splits the key space over a
// power-of-two number of independently locked shards (shard = key & mask —
// keys are expected to be mixed already, see util/hash.hpp, so the low bits
// are well distributed). Workers contend only when they land on the same
// shard.
//
// Semantics:
//  - values are copied out on hit, so the caller can verify the entry's
//    identity against its full key material and count a mismatch via
//    note_collision;
//  - each shard clears itself when it grows past capacity/shard_count;
//  - the cache only avoids recomputing pure functions, so sharding changes
//    no result.
//
// Stats discipline: every lookup() increments exactly one of hits/misses,
// so for each shard — and for any sum over shards — hits + misses ==
// lookups. That conservation law is thread-count-invariant (asserted in
// tests) even though the individual hit/miss split is not: two workers can
// both miss the same key before either inserts.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::util {

/// Per-shard (and aggregated) counters. All monotone except `size`.
struct ShardedCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t collisions = 0;  ///< caller-reported key collisions
  std::uint64_t clears = 0;      ///< capacity-triggered shard resets
  std::size_t size = 0;          ///< current entry count (snapshot)
};

template <typename Value>
class ShardedCache {
 public:
  /// `shard_count` is rounded up to a power of two (minimum 1). `capacity`
  /// bounds the TOTAL entry count: each shard clears itself upon exceeding
  /// capacity / shard_count entries.
  explicit ShardedCache(std::size_t shard_count, std::size_t capacity)
      : mask_(round_up_pow2(shard_count) - 1),
        shard_capacity_(capacity / (mask_ + 1)) {
    if (shard_capacity_ == 0) shard_capacity_ = 1;
    shards_.reserve(mask_ + 1);
    for (std::size_t i = 0; i <= mask_; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  std::size_t shard_count() const { return mask_ + 1; }

  /// Returns a copy of the cached value, or nullopt on miss. Counts exactly
  /// one of hits/misses.
  std::optional<Value> lookup(std::uint64_t key) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mu);
    ++shard.stats.lookups;
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
      ++shard.stats.misses;
      return std::nullopt;
    }
    ++shard.stats.hits;
    return it->second;
  }

  /// Inserts (or overwrites) `key`. Clears the owning shard first when it is
  /// at capacity, preserving the legacy clear-on-limit bound.
  void insert(std::uint64_t key, Value value) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mu);
    if (shard.map.size() >= shard_capacity_ &&
        shard.map.find(key) == shard.map.end()) {
      shard.map.clear();
      ++shard.stats.clears;
    }
    shard.map.insert_or_assign(key, std::move(value));
    ++shard.stats.insertions;
  }

  /// Records that a hit's entry failed the caller's identity check (64-bit
  /// key collision); the caller then recomputes as if it had missed.
  void note_collision(std::uint64_t key) {
    Shard& shard = shard_for(key);
    MutexLock lock(shard.mu);
    ++shard.stats.collisions;
  }

  /// Snapshot of one shard's counters (shard < shard_count()).
  ShardedCacheStats shard_stats(std::size_t shard) const {
    Shard& s = *shards_[shard & mask_];
    MutexLock lock(s.mu);
    ShardedCacheStats out = s.stats;
    out.size = s.map.size();
    return out;
  }

  /// Sum of all shards' counters. Conservation (hits + misses == lookups)
  /// holds on the total because it holds per shard.
  ShardedCacheStats totals() const {
    ShardedCacheStats out;
    for (std::size_t i = 0; i <= mask_; ++i) {
      const ShardedCacheStats s = shard_stats(i);
      out.lookups += s.lookups;
      out.hits += s.hits;
      out.misses += s.misses;
      out.insertions += s.insertions;
      out.collisions += s.collisions;
      out.clears += s.clears;
      out.size += s.size;
    }
    return out;
  }

  std::size_t size() const { return totals().size; }

 private:
  // Individually heap-allocated (shards hold a mutex, so they cannot live
  // in a resizable vector directly) and cache-line aligned so adjacent
  // shards' mutexes do not false-share.
  struct alignas(64) Shard {
    mutable Mutex mu;
    std::unordered_map<std::uint64_t, Value> map MUSTAPLE_GUARDED_BY(mu);
    ShardedCacheStats stats MUSTAPLE_GUARDED_BY(mu);
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n && p < (std::size_t{1} << 20)) p <<= 1;
    return p;
  }

  Shard& shard_for(std::uint64_t key) { return *shards_[key & mask_]; }

  std::size_t mask_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace mustaple::util
