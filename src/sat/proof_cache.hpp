// Content-addressed proof cache for SAT certification.
//
// buildMiterCnf is canonical down to the bytes (see miter.hpp), so the
// FNV-1a digest of a miter's DIMACS text identifies the verify
// obligation: two jobs whose raw-vs-mapped miters serialize identically
// are asking the solver the same question. This cache maps that digest
// to the completed refutation — the UNSAT verdict plus the winning
// searcher's aggregated statistics — so a warm batch can replay the
// proof instead of racing the portfolio again.
//
// Policy, enforced by checkEquivalentSat (equiv.cpp):
//   * only UNSAT (kEquivalent) results are ever published. kUnknown is a
//     truncated search and kDifferent carries a model, not a proof;
//     neither is a reusable certificate.
//   * trivially-UNSAT miters (MiterCnf::trivialUnsat) bypass the cache
//     entirely: their `problem` is truncated mid-construction, so its
//     bytes are not the canonical obligation text.
//   * replayed statistics describe the *original* solve — the consumer
//     (engine/report) marks them `proof_source: cache` so they are never
//     mistaken for work done by this process.
//
// Thread-safe (one mutex); persistence is layered on top by
// engine/persist/proof_store.{hpp,cpp} (format pd-proof-v1) via
// snapshot()/restore(), mirroring the ResultCache ↔ CacheStore split.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sat/dimacs.hpp"

namespace pd::sat {

/// One cached refutation: the aggregated portfolio statistics of the
/// solve that proved UNSAT. The verdict itself is implicit — only
/// proofs of equivalence are cacheable.
struct ProofEntry {
    std::uint64_t conflicts = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned = 0;
    /// Portfolio searcher whose answer won the original solve.
    int winner = 0;
};

/// FNV-1a (64-bit) digest of the canonical DIMACS serialization of
/// `problem` — the content address of a verify obligation.
[[nodiscard]] std::uint64_t miterDigest(const DimacsProblem& problem);

class ProofCache {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::size_t entries = 0;
    };

    struct SnapshotEntry {
        std::uint64_t digest = 0;
        ProofEntry entry;
    };

    /// Digest lookup. Counts a hit or a miss in stats().
    [[nodiscard]] std::optional<ProofEntry> lookup(std::uint64_t digest);

    /// Publishes a completed refutation. First write wins — the proof of
    /// a given obligation is unique, so a duplicate insert (same digest
    /// from a concurrent solve or a store restore) is dropped. Returns
    /// true iff the entry was adopted.
    bool insert(std::uint64_t digest, const ProofEntry& entry);

    /// Adopts entries loaded from a persistent store (or shipped by a
    /// shard worker). Live entries win, and so does the first of two equal
    /// digests. Returns the count adopted.
    std::size_t restore(const std::vector<SnapshotEntry>& entries);

    /// Drains the entries for persistence.
    [[nodiscard]] std::vector<SnapshotEntry> snapshot() const;

    /// The entries insert()ed since the previous call — what this process
    /// proved on top of its warm start, which is all a read-only sharded
    /// worker ships back. restore()d entries never qualify.
    [[nodiscard]] std::vector<SnapshotEntry> takeFresh();

    [[nodiscard]] Stats stats() const;

private:
    struct Slot {
        ProofEntry entry;
        /// Proved by this process and not yet handed out by takeFresh().
        bool fresh = false;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, Slot> map_;
    Stats stats_;
};

}  // namespace pd::sat
