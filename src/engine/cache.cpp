#include "engine/cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace pd::engine {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
    if (shards == 0) shards = 1;
    shards = std::min(shards, std::max<std::size_t>(capacity, 1));
    // Per-shard bound equals the global capacity: hash skew must never
    // evict while fewer than `capacity` distinct keys are live (a warm
    // batch rerun relies on that). Worst-case residency is
    // capacity × shards; with a uniform hash the expected residency
    // tracks capacity.
    perShardCapacity_ = std::max<std::size_t>(1, capacity);
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::LookupResult ResultCache::lookupOrReserve(const Key& key,
                                                       const Accept& accept,
                                                       bool reserve) {
    if (capacity_ == 0) return std::monostate{};
    const std::size_t idx = shardOf(key);
    Shard& s = *shards_[idx];
    static auto& hits = obs::counter("cache.hit");
    static auto& misses = obs::counter("cache.miss");

    std::shared_future<Value> found;
    {
        std::lock_guard lock(s.mutex);
        const auto it = s.map.find(key);
        if (it == s.map.end()) {
            if (!reserve) return std::monostate{};
            ++s.stats.misses;
            misses.add();
            std::promise<Value> promise;
            Entry e;
            e.future = promise.get_future().share();
            e.lastUse = ++s.tick;
            s.map.emplace(key, std::move(e));
            return Reservation(this, idx, key, std::move(promise));
        }
        it->second.lastUse = ++s.tick;
        found = it->second.future;  // in-flight: wait outside the lock
    }
    Value v = found.get();
    // A failed in-flight computation left no value (its entry is gone):
    // compute locally without publishing — re-reserving here could
    // livelock with other failed waiters. A rejected value is a miss.
    const bool hit = v && (!accept || accept(*v));
    {
        std::lock_guard lock(s.mutex);
        ++(hit ? s.stats.hits : s.stats.misses);
    }
    (hit ? hits : misses).add();
    if (hit) return v;
    return std::monostate{};
}

void ResultCache::publish(std::size_t shard, const Key& key,
                          bool success) {
    Shard& s = *shards_[shard];
    std::lock_guard lock(s.mutex);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return;
    if (!success) {
        s.map.erase(it);
        return;
    }
    it->second.ready = true;
    it->second.fresh = true;
    it->second.lastUse = ++s.tick;
    ++s.stats.inserts;
    static auto& inserts = obs::counter("cache.insert");
    inserts.add();
    evictIfNeeded(s);
}

void ResultCache::evictIfNeeded(Shard& s) {
    std::size_t ready = 0;
    for (const auto& [k, e] : s.map) ready += e.ready ? 1 : 0;
    while (ready > perShardCapacity_) {
        auto victim = s.map.end();
        for (auto it = s.map.begin(); it != s.map.end(); ++it) {
            if (!it->second.ready) continue;
            if (victim == s.map.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (victim == s.map.end()) break;
        s.map.erase(victim);
        ++s.stats.evictions;
        static auto& evictions = obs::counter("cache.eviction");
        evictions.add();
        --ready;
    }
}

ResultCache::Reservation::~Reservation() {
    if (!cache_) return;
    if (!fulfilled_) {
        promise_.set_value(nullptr);  // wake waiters: compute yourselves
        cache_->publish(shard_, key_, /*success=*/false);
    }
}

void ResultCache::Reservation::fulfill(Value v) {
    if (!cache_) return;  // moved-from: inert
    promise_.set_value(std::move(v));
    fulfilled_ = true;
    cache_->publish(shard_, key_, /*success=*/true);
}

std::vector<ResultCache::SnapshotEntry> ResultCache::snapshot() const {
    std::vector<SnapshotEntry> out;
    for (const auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        for (const auto& [key, entry] : shard->map) {
            if (!entry.ready) continue;  // in-flight: value doesn't exist
            Value v = entry.future.get();
            if (v) out.push_back({key, std::move(v), entry.lastUse});
        }
    }
    return out;
}

std::vector<ResultCache::SnapshotEntry> ResultCache::takeFresh() {
    std::vector<SnapshotEntry> out;
    for (const auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        for (auto& [key, entry] : shard->map) {
            if (!std::exchange(entry.fresh, false)) continue;
            if (Value v = entry.future.get())
                out.push_back({key, std::move(v), entry.lastUse});
        }
    }
    return out;
}

std::size_t ResultCache::restore(std::vector<SnapshotEntry> entries) {
    if (capacity_ == 0) return 0;
    std::size_t adopted = 0;
    for (auto& e : entries) {
        if (!e.value) continue;
        Shard& s = *shards_[shardOf(e.key)];
        std::lock_guard lock(s.mutex);
        if (s.map.contains(e.key)) continue;  // live entry wins
        std::promise<Value> promise;
        promise.set_value(std::move(e.value));
        Entry entry;
        entry.future = promise.get_future().share();
        entry.ready = true;
        entry.lastUse = ++s.tick;  // stamps reset: restored ≙ just used
        s.map.emplace(e.key, std::move(entry));
        ++s.stats.restored;
        static auto& restored = obs::counter("cache.restored");
        restored.add();
        ++adopted;
        evictIfNeeded(s);
    }
    return adopted;
}

ResultCache::Stats ResultCache::stats() const {
    Stats total;
    for (const auto& shard : shards_) {
        std::lock_guard lock(shard->mutex);
        total.hits += shard->stats.hits;
        total.misses += shard->stats.misses;
        total.inserts += shard->stats.inserts;
        total.evictions += shard->stats.evictions;
        total.restored += shard->stats.restored;
        for (const auto& [k, e] : shard->map)
            total.entries += e.ready ? 1 : 0;
    }
    return total;
}

std::optional<util::Digest128> JobIndex::find(const std::string& name,
                                              std::uint64_t stamp) const {
    std::lock_guard lock(mutex_);
    const auto it = map_.find(name);
    if (it == map_.end() || it->second.stamp != stamp) return std::nullopt;
    return it->second.digest;
}

void JobIndex::record(const Entry& e, bool restored) {
    std::lock_guard lock(mutex_);
    const auto [it, fresh] = map_.try_emplace(e.name);
    if (!fresh && it->second.stamp == e.stamp && it->second.digest == e.digest)
        return;
    it->second = {e.stamp, e.digest, !restored};
    ++changes_;
}

std::vector<JobIndex::Entry> JobIndex::snapshot() const {
    std::vector<Entry> out;
    {
        std::lock_guard lock(mutex_);
        out.reserve(map_.size());
        for (const auto& [name, slot] : map_)
            out.push_back({name, slot.stamp, slot.digest});
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& x, const Entry& y) { return x.name < y.name; });
    return out;
}

std::vector<JobIndex::Entry> JobIndex::takeFresh() {
    std::vector<Entry> out;
    {
        std::lock_guard lock(mutex_);
        for (auto& [name, slot] : map_)
            if (std::exchange(slot.fresh, false))
                out.push_back({name, slot.stamp, slot.digest});
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& x, const Entry& y) { return x.name < y.name; });
    return out;
}

std::uint64_t JobIndex::changes() const {
    std::lock_guard lock(mutex_);
    return changes_;
}

}  // namespace pd::engine
