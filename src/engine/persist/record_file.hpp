// The checksummed-record file under the pd-cache store: the trust
// ladder, the rules for which bytes of a store to trust.
//
// A record file is a header — magic (8 bytes), u32 version, str
// fingerprint — followed by counted sections (u64 count, then that many
// records), little-endian throughout (format.hpp). Every record carries
// its own checksum. store.hpp is the payload codec on top (pd-cache-v4:
// result entries, then the name index): it says what a record holds
// and checks its checksum. Every rule about trusting the bytes lives
// here, once:
//
//   - loadRecords() never throws and never crashes on hostile input. A
//     missing file is kNoFile; a wrong magic, version or fingerprint
//     rejects the whole file (kBadMagic / kBadVersion / kBadFingerprint)
//     and the caller cold-starts.
//   - Damage inside a section is recovered from, not punished: every
//     record before the first bad byte passed its own checksum, so that
//     prefix is kept (kSalvaged) and the rest of the file is dropped,
//     later sections included. Damage in a later section keeps all of
//     the first one.
//   - droppedEntries counts first-section records lost to the damage,
//     clamped to what the remaining bytes could have held: a flipped
//     count field would otherwise publish a garbage number. The detail
//     then says the declared count is untrusted.
//   - Bytes after the last declared record also make the load
//     kSalvaged: the count fields can't be trusted, the records can.
//   - A salvage that keeps no first-section record is plain kCorrupt.
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

inline constexpr std::string_view kFormatName = "pd-cache-v4";
// v4: keys are 16-byte job digests instead of full canonical-signature
// strings (a 33 MB default-batch store became tens of KB), and the name
// index section follows the entries; v3 stores cold-start as
// bad-version.
// v3: the JobResult payload gained the SAT-verification block
// (satVerify.*) and VerifyStatus::kSat.
inline constexpr std::uint32_t kFormatVersion = 4;
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
    /// First-section records lost to a damaged tail when kSalvaged.
    std::uint64_t droppedEntries = 0;

    [[nodiscard]] bool ok() const { return status == Status::kLoaded; }
    /// True when the records may be adopted: pristine or salvaged prefix.
    [[nodiscard]] bool usable() const {
        return status == Status::kLoaded || status == Status::kSalvaged;
    }
};

/// The body of a record file after its verified header.
class RecordReader {
public:
    using ReadOne = std::function<void(ByteReader&, std::uint64_t index)>;

    explicit RecordReader(ByteReader& r) : r_(r) {}

    /// Reads one counted section. `readOne` decodes record `index`,
    /// checks its checksum, and throws on damage; `minBytes` is the size
    /// of the smallest intact record, which bounds the drop count. Once
    /// a section is damaged, later calls read nothing.
    void section(std::string_view noun, std::uint64_t minBytes,
                 const ReadOne& readOne);

private:
    friend LoadOutcome loadRecords(const std::string&, std::string_view,
                                   const std::function<void(RecordReader&)>&);

    ByteReader& r_;
    std::string detail_;          ///< salvage reason; "" while intact
    std::string firstNoun_;       ///< noun of the first section
    std::uint64_t kept_ = 0;      ///< intact first-section records
    std::uint64_t dropped_ = 0;   ///< clamped first-section losses
    bool first_ = true;
};

/// Reads `path`, checks the header against `fingerprint`, and lets
/// `body` walk the sections. Never throws.
LoadOutcome loadRecords(const std::string& path, std::string_view fingerprint,
                        const std::function<void(RecordReader&)>& body);

/// Writes the header, lets `body` append the sections to the file bytes
/// (returning a short summary for the save span), and atomically
/// replaces `path`. Returns false (with `errorOut` set) on I/O failure;
/// never throws.
bool saveFile(const std::string& path, std::string_view fingerprint,
              const std::function<std::string(std::string& bytes)>& body,
              std::string* errorOut);

}  // namespace pd::engine::persist
