#include "engine/cache.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace pd::engine {

ResultCache::LookupResult ResultCache::lookupOrReserve(const Key& key,
                                                       const Accept& accept,
                                                       bool reserve) {
    if (capacity_ == 0) return std::monostate{};
    static auto& hits = obs::counter("cache.hit");
    static auto& misses = obs::counter("cache.miss");

    std::shared_future<Value> found;
    {
        std::lock_guard lock(mutex_);
        const auto it = map_.find(key);
        if (it == map_.end()) {
            if (!reserve) return std::monostate{};
            ++stats_.misses;
            misses.add();
            std::promise<Value> promise;
            Entry e;
            e.future = promise.get_future().share();
            e.lastUse = ++tick_;
            map_.emplace(key, std::move(e));
            return Reservation(this, key, std::move(promise));
        }
        it->second.lastUse = ++tick_;
        found = it->second.future;  // in-flight: wait outside the lock
    }
    Value v = found.get();
    // A failed in-flight computation left no value (its entry is gone):
    // compute locally without publishing — re-reserving here could
    // livelock with other failed waiters. A rejected value is a miss.
    const bool hit = v && (!accept || accept(*v));
    {
        std::lock_guard lock(mutex_);
        ++(hit ? stats_.hits : stats_.misses);
    }
    (hit ? hits : misses).add();
    if (hit) return v;
    return std::monostate{};
}

void ResultCache::publish(const Key& key, bool success) {
    std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return;
    if (!success) {
        map_.erase(it);
        return;
    }
    it->second.ready = true;
    it->second.fresh = true;
    it->second.lastUse = ++tick_;
    ++stats_.inserts;
    ++stats_.entries;
    static auto& inserts = obs::counter("cache.insert");
    inserts.add();
    evictIfNeeded();
}

void ResultCache::evictIfNeeded() {
    while (stats_.entries > capacity_) {
        auto victim = map_.end();
        for (auto it = map_.begin(); it != map_.end(); ++it) {
            if (!it->second.ready) continue;
            if (victim == map_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        map_.erase(victim);  // entries > 0 ready entries exist
        --stats_.entries;
        ++stats_.evictions;
        static auto& evictions = obs::counter("cache.eviction");
        evictions.add();
    }
}

ResultCache::Reservation::~Reservation() {
    if (!cache_) return;
    if (!fulfilled_) {
        promise_.set_value(nullptr);  // wake waiters: compute yourselves
        cache_->publish(key_, /*success=*/false);
    }
}

void ResultCache::Reservation::fulfill(Value v) {
    if (!cache_) return;  // moved-from: inert
    promise_.set_value(std::move(v));
    fulfilled_ = true;
    cache_->publish(key_, /*success=*/true);
}

std::vector<ResultCache::SnapshotEntry> ResultCache::snapshot() const {
    std::vector<SnapshotEntry> out;
    std::lock_guard lock(mutex_);
    for (const auto& [key, entry] : map_) {
        if (!entry.ready) continue;  // in-flight: value doesn't exist
        Value v = entry.future.get();
        if (v) out.push_back({key, std::move(v), entry.lastUse});
    }
    return out;
}

std::vector<ResultCache::SnapshotEntry> ResultCache::takeFresh(
    const Key& key) {
    std::vector<SnapshotEntry> out;
    std::lock_guard lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end() || !std::exchange(it->second.fresh, false))
        return out;
    if (Value v = it->second.future.get())
        out.push_back({key, std::move(v), it->second.lastUse});
    return out;
}

std::size_t ResultCache::restore(std::vector<SnapshotEntry> entries) {
    if (capacity_ == 0) return 0;
    std::size_t adopted = 0;
    std::lock_guard lock(mutex_);
    for (auto& e : entries) {
        if (!e.value || map_.contains(e.key)) continue;  // live entry wins
        std::promise<Value> promise;
        promise.set_value(std::move(e.value));
        Entry entry;
        entry.future = promise.get_future().share();
        entry.ready = true;
        entry.lastUse = ++tick_;  // stamps reset: restored ≙ just used
        map_.emplace(e.key, std::move(entry));
        ++stats_.restored;
        ++stats_.entries;
        static auto& restored = obs::counter("cache.restored");
        restored.add();
        ++adopted;
        evictIfNeeded();
    }
    return adopted;
}

ResultCache::Stats ResultCache::stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
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

std::vector<JobIndex::Entry> JobIndex::takeFresh(
    const util::Digest128& digest) {
    std::vector<Entry> out;
    {
        std::lock_guard lock(mutex_);
        for (auto& [name, slot] : map_)
            if (slot.digest == digest && std::exchange(slot.fresh, false))
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
