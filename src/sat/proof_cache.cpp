#include "sat/proof_cache.hpp"

#include <sstream>
#include <utility>

namespace pd::sat {
namespace {

// Same FNV-1a constants as engine/persist/format.hpp; duplicated here
// because the sat layer sits below the engine and must not include it.
// tests/sat_test.cpp pins the two implementations to each other.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

}  // namespace

std::uint64_t miterDigest(const DimacsProblem& problem) {
    std::ostringstream os;
    writeDimacs(os, problem);
    const std::string bytes = os.str();
    std::uint64_t h = kFnvOffset;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

std::optional<ProofEntry> ProofCache::lookup(std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(digest);
    if (it == map_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    return it->second.entry;
}

bool ProofCache::insert(std::uint64_t digest, const ProofEntry& entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, fresh] = map_.emplace(digest, Slot{entry, true});
    (void)it;
    if (fresh) {
        ++stats_.inserts;
        stats_.entries = map_.size();
    }
    return fresh;
}

std::size_t ProofCache::restore(const std::vector<SnapshotEntry>& entries) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t adopted = 0;
    for (const auto& e : entries)
        if (map_.emplace(e.digest, Slot{e.entry, false}).second) ++adopted;
    stats_.entries = map_.size();
    return adopted;
}

std::vector<ProofCache::SnapshotEntry> ProofCache::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SnapshotEntry> out;
    out.reserve(map_.size());
    for (const auto& [digest, slot] : map_) out.push_back({digest, slot.entry});
    return out;
}

std::vector<ProofCache::SnapshotEntry> ProofCache::takeFresh() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SnapshotEntry> out;
    for (auto& [digest, slot] : map_)
        if (std::exchange(slot.fresh, false))
            out.push_back({digest, slot.entry});
    return out;
}

ProofCache::Stats ProofCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace pd::sat
