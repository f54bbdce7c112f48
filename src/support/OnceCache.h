//===- OnceCache.h - Build-once concurrent memo map -------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe map from keys to immutable, shareable values where each
/// value is built exactly once no matter how many threads request it
/// concurrently. The batch runtime's shared caches (transform results,
/// dependence graphs, static slices, compiled code) are instances of this
/// template.
///
/// Guarantees:
///  - the builder for a key runs exactly once; concurrent requesters of the
///    same key block until it finishes and then share the result;
///  - builders for *different* keys run in parallel (the map lock is never
///    held while building);
///  - hit/miss counters are exact: misses() equals the number of builder
///    invocations, hits() equals all other lookups;
///  - a builder returning null caches the failure (subsequent lookups
///    return null as hits without re-building);
///  - a builder that *throws* does not poison the slot: the exception
///    propagates to the caller that ran the builder, the slot is removed,
///    and concurrent or subsequent requesters retry the build;
///  - entries carry an optional byte weight and a last-build tick, so an
///    owner holding several caches can enforce a global byte budget by
///    evicting the oldest entries (see noteBytes/evictOldest/totalBytes).
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SUPPORT_ONCECACHE_H
#define GADT_SUPPORT_ONCECACHE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

namespace gadt {

/// One logical clock shared by every OnceCache instantiation in the
/// process, so "oldest entry" is comparable across caches of different
/// value types (the runtime budget enforcer needs exactly that).
inline std::atomic<uint64_t> &onceCacheClock() {
  static std::atomic<uint64_t> Clock{1};
  return Clock;
}

template <typename Key, typename T> class OnceCache {
public:
  using Builder = std::function<std::shared_ptr<const T>()>;

  /// Returns the value for \p K, invoking \p Build to create it if this is
  /// the first request. Thread-safe. When \p WasMiss is non-null it is set
  /// to whether *this* call ran the builder — the per-call view of the
  /// aggregate hit/miss counters, for callers that forward the outcome to
  /// telemetry.
  std::shared_ptr<const T> getOrBuild(const Key &K, const Builder &Build,
                                      bool *WasMiss = nullptr) {
    for (;;) {
      std::shared_ptr<Slot> S;
      bool Owner = false;
      {
        std::unique_lock<std::mutex> Lock(M);
        std::shared_ptr<Slot> &Entry = Slots[K];
        if (!Entry) {
          Entry = std::make_shared<Slot>();
          Owner = true;
        }
        S = Entry;
        if (!Owner && !S->Ready) {
          // Another thread is building this key. Wait until its slot is
          // published, or until it vanishes (builder threw, or the entry
          // was evicted mid-wait) — in which case retry from the top.
          CV.wait(Lock, [&] {
            auto It = Slots.find(K);
            return It == Slots.end() || It->second != S || S->Ready;
          });
          auto It = Slots.find(K);
          if (It == Slots.end() || It->second != S)
            continue;
        }
      }
      if (Owner) {
        std::shared_ptr<const T> V;
        try {
          V = Build();
        } catch (...) {
          // Un-poison: drop the slot (if it is still ours) and wake the
          // waiters so they retry; the exception goes to our caller.
          {
            std::lock_guard<std::mutex> Lock(M);
            auto It = Slots.find(K);
            if (It != Slots.end() && It->second == S)
              Slots.erase(It);
          }
          CV.notify_all();
          throw;
        }
        {
          std::lock_guard<std::mutex> Lock(M);
          S->V = std::move(V);
          S->Ready = true;
          S->Tick = onceCacheClock().fetch_add(1, std::memory_order_relaxed);
        }
        CV.notify_all();
        Misses.fetch_add(1, std::memory_order_relaxed);
        if (WasMiss)
          *WasMiss = true;
        return S->V;
      }
      Hits.fetch_add(1, std::memory_order_relaxed);
      if (WasMiss)
        *WasMiss = false;
      return S->V;
    }
  }

  /// The value already cached for \p K, or null (counts as neither hit nor
  /// miss; for inspection). Entries still being built read as absent.
  std::shared_ptr<const T> peek(const Key &K) const {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Slots.find(K);
    return It == Slots.end() || !It->second->Ready ? nullptr : It->second->V;
  }

  /// Records \p Bytes as the weight of the (ready) entry for \p K, for
  /// budget accounting. Typically called right after a miss.
  void noteBytes(const Key &K, size_t Bytes) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Slots.find(K);
    if (It == Slots.end() || !It->second->Ready)
      return;
    Total += Bytes - It->second->Bytes;
    It->second->Bytes = Bytes;
  }

  /// Sum of the recorded byte weights of all ready entries.
  size_t totalBytes() const {
    std::lock_guard<std::mutex> Lock(M);
    return Total;
  }

  /// The build tick of the least-recently-built ready entry, or UINT64_MAX
  /// when there is none. Comparable across caches via onceCacheClock().
  uint64_t oldestReadyTick() const {
    std::lock_guard<std::mutex> Lock(M);
    uint64_t Oldest = UINT64_MAX;
    for (const auto &KV : Slots)
      if (KV.second->Ready && KV.second->Tick < Oldest)
        Oldest = KV.second->Tick;
    return Oldest;
  }

  /// Evicts the least-recently-built ready entry. Entries still being built
  /// are never evicted. Returns the freed byte weight, or 0 if nothing was
  /// evictable. A shared_ptr handed out earlier keeps the value alive; only
  /// the cache's reference is dropped.
  size_t evictOldest() {
    std::lock_guard<std::mutex> Lock(M);
    auto Victim = Slots.end();
    uint64_t Oldest = UINT64_MAX;
    for (auto It = Slots.begin(); It != Slots.end(); ++It)
      if (It->second->Ready && It->second->Tick < Oldest) {
        Oldest = It->second->Tick;
        Victim = It;
      }
    if (Victim == Slots.end())
      return 0;
    size_t Freed = Victim->second->Bytes;
    Total -= Freed;
    Slots.erase(Victim);
    return Freed;
  }

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Slots.size();
  }

private:
  struct Slot {
    std::shared_ptr<const T> V;
    bool Ready = false;
    size_t Bytes = 0;
    uint64_t Tick = 0;
  };

  mutable std::mutex M;
  mutable std::condition_variable CV;
  std::map<Key, std::shared_ptr<Slot>> Slots;
  size_t Total = 0;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
};

} // namespace gadt

#endif // GADT_SUPPORT_ONCECACHE_H
