// Mutex-protected result cache for the batch engine, plus the
// name index in front of it.
//
// Keys are 128-bit content digests of the job (see engine::canonicalDigest
// and util/digest.hpp): the relabeled, per-output-sorted Reed-Muller term
// stream plus an options fingerprint, streamed into two independent
// 64-bit lanes. Two jobs that decompose the same Boolean functions under
// the same options get the same key, however their variables were named.
// A digest is not the content itself, so a false hit is improbable rather
// than impossible: the engine re-simulates every benchmark hit against the
// benchmark's reference before serving it, and a mismatch is a miss
// (counter cache.digest_mismatch).
//
// JobIndex maps (registry name + options fingerprint) → (spec stamp,
// digest), so a registry job can find its key without expanding its spec.
// The stamp hashes what the registry builds under that name; a stale
// entry is an index miss that costs one key recompute, never a wrong hit.
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
// warm batch reruns depend on that guarantee. A batch makes two lookups
// per job at most, so one lock is not a point of contention.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
    /// With `reserve` false a missing key returns std::monostate without
    /// reserving or counting a miss: a peek for a key the caller is not
    /// sure of, ahead of the lookup by its computed key.
    [[nodiscard]] LookupResult lookupOrReserve(const Key& key,
                                               const Accept& accept = {},
                                               bool reserve = true);

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

/// Thread-safe (registry name + options fingerprint) → (spec stamp,
/// digest) map; persisted with the store and shipped over the shard wire.
/// Equal names carry equal values wherever they were recorded: the
/// stamp and the digest are functions of the name.
class JobIndex {
public:
    struct Entry {
        std::string name;  ///< registry name + options fingerprint
        std::uint64_t stamp = 0;
        util::Digest128 digest;
    };

    /// The digest recorded for `name` under exactly `stamp`; nullopt when
    /// absent or stale.
    [[nodiscard]] std::optional<util::Digest128> find(
        const std::string& name, std::uint64_t stamp) const;

    /// Inserts, or overwrites an entry whose value differs. `restored`
    /// marks entries adopted from a store, which takeFresh() leaves out.
    void record(const Entry& e, bool restored = false);

    /// Every entry sorted by name.
    [[nodiscard]] std::vector<Entry> snapshot() const;

    /// The entries naming `digest` that were recorded (not restored) and
    /// not handed out before, sorted by name.
    [[nodiscard]] std::vector<Entry> takeFresh(const util::Digest128& digest);

    /// Number of record() calls that changed the map: a flush is due when
    /// it moved since the last one.
    [[nodiscard]] std::uint64_t changes() const;

private:
    struct Slot {
        std::uint64_t stamp = 0;
        util::Digest128 digest;
        bool fresh = false;  ///< recorded, not restored; not yet taken
    };
    mutable std::mutex mutex_;
    std::unordered_map<std::string, Slot> map_;
    std::uint64_t changes_ = 0;
};

}  // namespace pd::engine
