// Mutex-protected result cache for the batch engine.
//
// Keys are 128-bit digests (util/digest.hpp) streamed into two
// independent 64-bit lanes. A registry job's key is its name, options
// fingerprint and spec stamp (engine::registryKey), so a hit never
// expands the spec. Any other job's key is the content digest of its
// expanded outputs (engine::canonicalDigest): two such jobs that
// decompose the same Boolean functions under the same options get the
// same key, however their variables were named. A digest is not the
// content itself, so a false hit is improbable rather than impossible:
// the engine re-simulates every benchmark hit against the benchmark's
// reference before serving it, and a mismatch is a miss (counter
// cache.digest_mismatch).
//
// Concurrency protocol (one mutex over one map):
//   * find(key) ready      → hit: bump LRU stamp, return the value.
//   * find(key) in-flight  → hit: wait on the computing job's future
//                            outside the lock, then return its value.
//   * either, rejected     → the caller's accept() guard said no: a miss,
//                            and the caller computes without publishing.
//   * miss                 → the caller receives a Reservation and must
//                            compute; duplicates submitted meanwhile block
//                            on the reservation's future instead of
//                            recomputing. fulfill() publishes the value;
//                            destroying an unfulfilled Reservation (the
//                            computation threw) erases the entry and wakes
//                            waiters with nullptr, telling them to compute
//                            for themselves — failures are never cached.
//
// Eviction is least-recently-used over *ready* entries only; in-flight
// entries are pinned. At most `capacity` ready entries stay resident, and
// none is evicted while fewer than `capacity` distinct keys are live —
// warm batch reruns depend on that guarantee. A batch makes one lookup
// per job, so one lock is not a point of contention.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>
#include <vector>

#include "engine/job.hpp"
#include "util/digest.hpp"

namespace pd::engine {

class ResultCache {
public:
    using Key = util::Digest128;
    using Value = std::shared_ptr<const JobResult>;

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t restored = 0;  ///< entries adopted via restore()
        std::size_t entries = 0;
    };

    /// One ready entry as drained by snapshot() / takeFresh() and fed to
    /// restore().
    struct SnapshotEntry {
        Key key;
        std::shared_ptr<const JobResult> value;
        /// LRU stamp at snapshot time (larger = more recently used);
        /// meaningful only within one cache.
        std::uint64_t lastUse = 0;
    };

    /// RAII token for a reserved (in-flight) computation slot.
    class Reservation {
    public:
        Reservation(Reservation&& other) noexcept
            : cache_(other.cache_),
              key_(other.key_),
              promise_(std::move(other.promise_)),
              fulfilled_(other.fulfilled_) {
            // The moved-from object must be fully inert: a stray
            // fulfill() or dtor on it may touch neither the cache nor
            // the (moved-from) promise.
            other.cache_ = nullptr;
            other.fulfilled_ = true;
        }
        Reservation& operator=(Reservation&&) = delete;
        Reservation(const Reservation&) = delete;
        ~Reservation();

        /// Publishes the computed result and releases waiters. No-op on
        /// a moved-from reservation.
        void fulfill(Value v);

    private:
        friend class ResultCache;
        Reservation(ResultCache* cache, Key key, std::promise<Value> promise)
            : cache_(cache), key_(key), promise_(std::move(promise)) {}

        ResultCache* cache_;
        Key key_;
        std::promise<Value> promise_;
        bool fulfilled_ = false;
    };

    /// `capacity` = the most ready entries resident at once; LRU eviction
    /// keeps it. 0 disables caching: every lookup is a non-caching miss.
    explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

    /// Either a ready value (hit — may have blocked on an in-flight
    /// computation) or a Reservation the caller must fulfill, or
    /// std::monostate when caching is disabled, an in-flight computation
    /// failed, or `accept` rejected the value (compute, don't publish).
    using LookupResult = std::variant<Value, Reservation, std::monostate>;
    /// Guard run on a found value (outside the lock) before it is
    /// served; a rejected value counts as a miss.
    using Accept = std::function<bool(const JobResult&)>;
    [[nodiscard]] LookupResult lookupOrReserve(const Key& key,
                                               const Accept& accept = {});

    [[nodiscard]] Stats stats() const;

    /// Drains the *ready* entries (key + value) for
    /// persistence. In-flight computations are never snapshotted: their
    /// values don't exist yet, and waiting for them here would make a
    /// mid-batch flush block on the slowest job.
    [[nodiscard]] std::vector<SnapshotEntry> snapshot() const;

    /// The ready entry under `key` if this cache computed it itself and
    /// has not handed it out before (empty otherwise); restore()d entries
    /// never qualify. A read-only sharded worker hands it back with the
    /// answer of the job that computed the key (re-shipping the shared
    /// store's own entries from N workers would be N-fold wasted wire
    /// traffic).
    [[nodiscard]] std::vector<SnapshotEntry> takeFresh(const Key& key);

    /// Merge-on-load: adopts entries whose keys are not already present
    /// (live entries — ready or in-flight — win over the store, and the
    /// first of two equal keys wins), each with a fresh LRU stamp.
    /// Returns the number adopted. No-op when caching is disabled.
    std::size_t restore(std::vector<SnapshotEntry> entries);

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    struct Entry {
        std::shared_future<Value> future;
        bool ready = false;
        /// Computed by this process and not yet handed out by
        /// takeFresh(); restore()d entries never are.
        bool fresh = false;
        std::uint64_t lastUse = 0;
    };

    void publish(const Key& key, bool success);
    void evictIfNeeded();  // caller holds mutex_

    std::size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<Key, Entry, util::Digest128Hash> map_;
    std::uint64_t tick_ = 0;
    Stats stats_;  ///< stats_.entries counts the ready entries
};

}  // namespace pd::engine
