// Versioned on-disk result store ("pd-cache-v4").
//
// File layout (all integers little-endian, see format.hpp):
//
//   magic            8 bytes   "pdcache\0"
//   version          u32       kFormatVersion (4)
//   fingerprint      str       options-fingerprint salt of the writer
//   entry count      u64
//   entry[count]:
//     key            16 bytes  job digest (lane a u64, lane b u64)
//     payload        str       serialized JobResult (serialize.hpp)
//     checksum       u64       FNV-1a over key bytes then payload bytes
//   index count      u64
//   index[count]:               name index (see engine/cache.hpp JobIndex)
//     name           str       registry name + options fingerprint
//     stamp          u64       spec stamp of the benchmark under that name
//     digest         16 bytes  the key of the job's entry above
//     checksum       u64       FNV-1a over the name, stamp and digest bytes
//
// load() never throws and never crashes on hostile input: a missing,
// wrong-magic, wrong-version or wrong-fingerprint file comes back as a
// non-ok LoadResult whose status/detail say loudly why, and the caller
// cold-starts. Damage in the entry region is recovered from, not
// punished: each entry carries its own checksum, so every entry before
// the first bad byte is provably intact — load() keeps that valid
// prefix (status kSalvaged, with the drop count and reason in
// detail/droppedEntries) and discards the rest, index included; damage
// inside the index section keeps every result entry and the index
// prefix before it (kSalvaged, droppedEntries 0). The header is held to
// the stricter standard: a store whose magic/version/fingerprint can't
// be trusted yields no salvage, and a salvage that recovers zero
// entries is reported as plain kCorrupt. Callers that only want
// perfect artifacts check ok(); callers happy with a warm prefix
// (the engine) check usable().
//
// save() is atomic: the bytes go to "<path>.tmp.<pid>" first and are
// renamed over the target, so readers never observe a half-written
// store and a crash mid-save leaves the previous version intact.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache.hpp"
#include "engine/job.hpp"

namespace pd::engine::persist {

inline constexpr std::string_view kFormatName = "pd-cache-v4";
// v4: keys are 16-byte job digests instead of full canonical-signature
// strings (a 33 MB default-batch store became tens of KB), and the name
// index section follows the entries; v3 stores cold-start as
// bad-version.
// v3: the JobResult payload gained the SAT-verification block
// (satVerify.*) and VerifyStatus::kSat.
inline constexpr std::uint32_t kFormatVersion = 4;
inline constexpr std::string_view kMagic{"pdcache\0", 8};

struct StoreEntry {
    util::Digest128 key;
    std::shared_ptr<const JobResult> result;
};

struct LoadResult {
    enum class Status : std::uint8_t {
        kLoaded,          ///< entries are valid and complete
        kNoFile,          ///< nothing at the path (normal first run)
        kBadMagic,        ///< not a pd cache store at all
        kBadVersion,      ///< written by a different format version
        kBadFingerprint,  ///< written under different options
        kCorrupt,         ///< damaged beyond salvage (no valid prefix)
        kSalvaged,        ///< valid prefix kept, damaged tail dropped
    };
    Status status = Status::kNoFile;
    std::string detail;  ///< human-readable reason when not kLoaded
    std::vector<StoreEntry> entries;
    std::vector<JobIndex::Entry> index;
    /// Declared entries lost to the damaged tail when kSalvaged.
    std::uint64_t droppedEntries = 0;

    [[nodiscard]] bool ok() const { return status == Status::kLoaded; }
    /// True when `entries` may be adopted: pristine or salvaged prefix.
    [[nodiscard]] bool usable() const {
        return status == Status::kLoaded || status == Status::kSalvaged;
    }
};

[[nodiscard]] std::string_view loadStatusName(LoadResult::Status s);

class CacheStore {
public:
    /// Reads and fully validates the store at `path`. `fingerprint` is
    /// the caller's options salt; a mismatch rejects the file.
    [[nodiscard]] static LoadResult load(const std::string& path,
                                         std::string_view fingerprint);

    /// Serializes `entries` and `index` under `fingerprint` and
    /// atomically replaces `path`. Returns false (with `errorOut` set) on
    /// I/O failure; never throws.
    static bool save(const std::string& path, std::string_view fingerprint,
                     std::span<const StoreEntry> entries,
                     std::span<const JobIndex::Entry> index,
                     std::string* errorOut = nullptr);
};

}  // namespace pd::engine::persist
