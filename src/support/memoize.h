// Thread-safe get-or-compute memoizer with per-entry once semantics.
//
// The single concurrency pattern behind both the workload registry and the
// harness's ArtifactCache: a mutex-guarded key → entry map where each entry
// is computed exactly once (concurrent first callers block until the one
// compute finishes; a throwing compute leaves the entry uncomputed so the
// next caller retries) and then shared immutably via shared_ptr. clear()
// drops the index only — values already handed out stay valid.
//
// An optional capacity bounds the index for resident services: when a new
// entry would push the index past the cap, the least-recently-used
// *computed* entry is evicted (entries still being computed are never
// candidates). A recency list kept in use order finds that victim without
// scanning the index: it is the first computed entry from the list's cold
// end, and only in-flight entries are ever skipped. Eviction only forgets —
// outstanding shared_ptrs stay valid, and a later request for the evicted
// key simply recomputes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>

namespace spmwcet::support {

/// Hit/miss counters shared by every Memoizer instantiation.
struct MemoStats {
  uint64_t hits = 0;      ///< served an already-computed value
  uint64_t misses = 0;    ///< ran the compute function
  uint64_t evictions = 0; ///< dropped an entry to respect the capacity
};

template <typename Key, typename Value>
class Memoizer {
public:
  using Stats = MemoStats;

  Memoizer() = default;
  /// `capacity` = maximum number of resident entries; 0 = unbounded.
  explicit Memoizer(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the value for `key`, running `make` on first use.
  std::shared_ptr<const Value> get(const Key& key,
                                   const std::function<Value()>& make) {
    const std::shared_ptr<Entry> entry = entry_for(key);
    bool computed = false;
    try {
      std::call_once(entry->once, [&] {
        entry->value = std::make_shared<const Value>(make());
        entry->ready.store(true, std::memory_order_release);
        computed = true;
      });
    } catch (...) {
      // Forget the failed entry: it would otherwise linger uncomputed —
      // invisible to LRU eviction — so a stream of throwing keys could
      // crowd out every useful entry and then grow the index unboundedly.
      // Concurrent waiters still holding the Entry retry through its
      // once_flag as before; a waiter that succeeds re-indexes the entry
      // on its way out (and one that already succeeded is left alone).
      const std::lock_guard<std::mutex> lk(mu_);
      const auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry &&
          !entry->ready.load(std::memory_order_acquire))
        unindex(it);
      throw;
    }
    const std::lock_guard<std::mutex> lk(mu_);
    if (computed) {
      ++stats_.misses;
      // A sibling whose earlier attempt threw may have detached this entry
      // (see the catch above) while we were still computing it; re-index
      // the success so it is served, not recomputed. A newer entry that
      // already took the key wins — latest insertion is authoritative.
      if (entries_.find(key) == entries_.end()) {
        evict_overflow(/*reserve=*/1);
        index(key, entry);
      }
    } else {
      ++stats_.hits;
    }
    // A detached entry (evicted or displaced meanwhile) has no place in
    // the recency order; an indexed one becomes the most recently used.
    if (entry->indexed) recency_.splice(recency_.end(), recency_, entry->pos);
    return entry->value;
  }

  Stats stats() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

  std::size_t capacity() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return capacity_;
  }

  /// Adjusts the cap; existing overflow is trimmed immediately (0 lifts the
  /// bound without dropping anything).
  void set_capacity(std::size_t capacity) {
    const std::lock_guard<std::mutex> lk(mu_);
    capacity_ = capacity;
    evict_overflow(/*reserve=*/0);
  }

  void clear() {
    const std::lock_guard<std::mutex> lk(mu_);
    for (auto& kv : entries_) kv.second->indexed = false;
    entries_.clear();
    recency_.clear();
    stats_ = {};
  }

private:
  struct Entry;
  using Index = std::map<Key, std::shared_ptr<Entry>>;
  using Recency = std::list<typename Index::iterator>;

  struct Entry {
    std::once_flag once;
    std::shared_ptr<const Value> value;
    /// Published after `value` is written inside call_once, so eviction can
    /// test "computed?" without racing the computing thread.
    std::atomic<bool> ready{false};
    /// Whether the entry is in the index, and so in recency_ at `pos`.
    /// Guarded by mu_.
    bool indexed = false;
    typename Recency::iterator pos;
  };

  std::shared_ptr<Entry> entry_for(const Key& key) {
    const std::lock_guard<std::mutex> lk(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
    // Make room before inserting so the fresh (still-computing) entry can
    // never be its own eviction victim.
    evict_overflow(/*reserve=*/1);
    const auto entry = std::make_shared<Entry>();
    index(key, entry);
    return entry;
  }

  /// Enters `entry` as the most recently used. Requires mu_ and no entry
  /// for `key` in the index.
  void index(const Key& key, const std::shared_ptr<Entry>& entry) {
    entry->pos =
        recency_.insert(recency_.end(), entries_.emplace(key, entry).first);
    entry->indexed = true;
  }

  /// Removes an indexed entry from the index and the recency order.
  /// Requires mu_.
  void unindex(typename Index::iterator it) {
    Entry& entry = *it->second;
    recency_.erase(entry.pos);
    entry.indexed = false;
    entries_.erase(it);
  }

  /// Drops least-recently-used computed entries until the index (plus
  /// `reserve` slots about to be filled) respects the capacity. Requires
  /// mu_.
  void evict_overflow(std::size_t reserve) {
    if (capacity_ == 0) return;
    while (entries_.size() + reserve > capacity_) {
      auto victim = recency_.begin();
      while (victim != recency_.end() &&
             !(*victim)->second->ready.load(std::memory_order_acquire))
        ++victim; // in flight: not a candidate
      if (victim == recency_.end()) return; // everything is in flight
      unindex(*victim);
      ++stats_.evictions;
    }
  }

  mutable std::mutex mu_;
  Index entries_;
  /// Indexed entries, least recently used first.
  Recency recency_;
  Stats stats_;
  std::size_t capacity_ = 0;
};

} // namespace spmwcet::support
