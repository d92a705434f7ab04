// Versioned on-disk SAT proof store ("pd-proof-v1").
//
// Persists the content-addressed proof cache (sat/proof_cache.hpp):
// miter digest → completed-refutation statistics, so a warm batch can
// skip refutations it has already finished. File layout (little-endian,
// format.hpp primitives):
//
//   magic            8 bytes   "pdproof\0"
//   version          u32       kProofFormatVersion (1)
//   fingerprint      str       SAT-budget salt of the writer
//   entry count      u64
//   entry[count]     56 bytes fixed:
//     digest         u64       FNV-1a of the miter's canonical DIMACS
//     conflicts      u64
//     propagations   u64
//     restarts       u64
//     learned        u64
//     winner         u64       portfolio winner index, biased by one
//     checksum       u64       FNV-1a over the preceding 48 bytes
//
// The fingerprint is salted from the per-searcher SAT budgets only
// (proofFingerprint): budgets change which searcher wins and what its
// statistics are, so proofs minted under one budget must not replay
// under another. Searcher *count* is deliberately not in the salt — the
// portfolio contract makes the result bit-identical at any count.
//
// The trust ladder — header rejection, checksummed-prefix salvage with
// the clamped drop count, the trailing-bytes rule, atomic tmp+rename
// save — and the fault sites (persist.proof.load.flip,
// persist.proof.save.{enospc,short_write,rename}) belong to the shared
// record layer (record_file.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/persist/record_file.hpp"
#include "sat/proof_cache.hpp"

namespace pd::engine::persist {

inline constexpr std::string_view kProofFormatName = "pd-proof-v1";
inline constexpr std::uint32_t kProofFormatVersion = 1;
inline constexpr std::string_view kProofMagic{"pdproof\0", 8};

/// Bytes of a proof record's body; its checksum follows.
inline constexpr std::size_t kProofBodyBytes = 48;

/// The records a pd-proof load recovered.
struct ProofRecords {
    std::vector<sat::ProofCache::SnapshotEntry> entries;
};

/// A proof record's body: the six u64 fields above. The record checksum
/// covers exactly these bytes, and the shard wire's kProofEntry payload
/// is the same bytes.
void encodeProofBody(const sat::ProofCache::SnapshotEntry& e,
                     std::string& out);
[[nodiscard]] sat::ProofCache::SnapshotEntry decodeProofBody(ByteReader& r);

class ProofStore {
public:
    /// Reads and fully validates the store at `path`; `fingerprint` is
    /// the caller's SAT-budget salt. Never throws.
    [[nodiscard]] static Loaded<ProofRecords> load(
        const std::string& path, std::string_view fingerprint);

    /// Serializes `entries` under `fingerprint` and atomically replaces
    /// `path`. Callers wanting byte-identical stores across runs sort by
    /// digest first. Returns false (with `errorOut` set) on failure.
    static bool save(const std::string& path, std::string_view fingerprint,
                     std::span<const sat::ProofCache::SnapshotEntry> entries,
                     std::string* errorOut = nullptr);
};

}  // namespace pd::engine::persist
