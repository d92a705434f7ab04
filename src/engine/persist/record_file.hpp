// The checksummed-record file under the pd-cache store: the trust
// ladder, the rules for which bytes of a store to trust.
//
// A record file is a header — magic (8 bytes), u32 version, str
// fingerprint — followed by one counted section (u64 count, then that
// many records), little-endian throughout (format.hpp). Every record
// carries its own checksum. store.hpp is the payload codec on top
// (pd-cache-v6: result entries): it says what a record holds and checks
// its checksum. Every rule about trusting the bytes lives here, once:
//
//   - loadRecords() never throws and never crashes on hostile input. A
//     missing file is kNoFile; a wrong magic, version or fingerprint
//     rejects the whole file (kBadMagic / kBadVersion / kBadFingerprint)
//     and the caller cold-starts.
//   - Damage inside the section is recovered from, not punished: every
//     record before the first bad byte passed its own checksum, so that
//     prefix is kept (kSalvaged) and the rest of the file is dropped.
//   - droppedEntries counts records lost to the damage, clamped to what
//     the remaining bytes could have held: a flipped count field would
//     otherwise publish a garbage number. The detail then says the
//     declared count is untrusted.
//   - Bytes after the last declared record also make the load
//     kSalvaged: the count field can't be trusted, the records can.
//   - A salvage that keeps no record is plain kCorrupt.
//   - saveFile() is atomic: the bytes go to "<path>.tmp.<pid>.<seq>"
//     first and are renamed over the target, so readers never observe a
//     half-written file and a crash mid-save leaves the previous version.
//
// Callers that only want perfect artifacts check ok(); callers happy
// with a warm prefix (the engine) check usable().
//
// Spans and counters persist.load and persist.save, counters
// persist.salvage and persist.salvage.dropped, and the fault sites
// persist.load.flip, persist.save.enospc, persist.save.short_write and
// persist.save.rename.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "engine/persist/format.hpp"

namespace pd::engine::persist {

inline constexpr std::string_view kFormatName = "pd-cache-v6";
// v6: a registry job's key is its name, options and spec stamp
// (engine::registryKey), so the name index section is gone; v5 stores
// cold-start as bad-version.
// v5: the JobResult payload loses the SAT block's portfolio winner (one
// u64); v4 stores cold-start as bad-version.
// v4: keys are 16-byte job digests instead of full canonical-signature
// strings (a 33 MB default-batch store became tens of KB), and the name
// index section follows the entries; v3 stores cold-start as
// bad-version.
// v3: the JobResult payload gained the SAT-verification block
// (satVerify.*) and VerifyStatus::kSat.
inline constexpr std::uint32_t kFormatVersion = 6;
inline constexpr std::string_view kMagic{"pdcache\0", 8};

enum class LoadStatus : std::uint8_t {
    kLoaded,          ///< records are valid and complete
    kNoFile,          ///< nothing at the path (normal first run)
    kBadMagic,        ///< not this kind of store at all
    kBadVersion,      ///< written by a different format version
    kBadFingerprint,  ///< written under different options
    kCorrupt,         ///< damaged beyond salvage (no valid prefix)
    kSalvaged,        ///< valid prefix kept, damaged tail dropped
    /// The engine did not read a configured store because result
    /// caching is off. Never returned by a load.
    kDisabled,
};

[[nodiscard]] std::string_view loadStatusName(LoadStatus s);

/// How a load went.
struct LoadOutcome {
    using Status = LoadStatus;
    Status status = Status::kNoFile;
    std::string detail;  ///< human-readable reason when not kLoaded
    /// Records lost to a damaged tail when kSalvaged.
    std::uint64_t droppedEntries = 0;

    [[nodiscard]] bool ok() const { return status == Status::kLoaded; }
    /// True when the records may be adopted: pristine or salvaged prefix.
    [[nodiscard]] bool usable() const {
        return status == Status::kLoaded || status == Status::kSalvaged;
    }
};

/// Decodes record `index`, checks its checksum, and throws on damage.
using ReadRecord = std::function<void(ByteReader&, std::uint64_t index)>;

/// Reads `path`, checks the header against `fingerprint`, and hands each
/// declared record to `readOne`. `minBytes` is the size of the smallest
/// intact record, which bounds the drop count. Never throws.
LoadOutcome loadRecords(const std::string& path, std::string_view fingerprint,
                        std::uint64_t minBytes, const ReadRecord& readOne);

/// Writes the header, lets `body` append the section to the file bytes
/// (returning a short summary for the save span), and atomically
/// replaces `path`. Returns false (with `errorOut` set) on I/O failure;
/// never throws.
bool saveFile(const std::string& path, std::string_view fingerprint,
              const std::function<std::string(std::string& bytes)>& body,
              std::string* errorOut);

}  // namespace pd::engine::persist
