// Versioned on-disk result store ("pd-cache-v6").
//
// File layout (all integers little-endian, see format.hpp):
//
//   magic            8 bytes   "pdcache\0"
//   version          u32       kFormatVersion (6)
//   fingerprint      str       options-fingerprint salt of the writer
//   entry count      u64
//   entry[count]:
//     key            16 bytes  job key (lane a u64, lane b u64)
//     payload        str       serialized JobResult (serialize.hpp)
//     checksum       u64       FNV-1a over the key bytes, then the payload
//                               bytes (not the payload's length prefix)
//
// The trust ladder — header rejection, checksummed-prefix salvage with
// the clamped drop count, the trailing-bytes rule, atomic tmp+rename
// save — is the record layer's (record_file.hpp), which also holds the
// format constants.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/job.hpp"
#include "engine/persist/record_file.hpp"

namespace pd::engine::persist {

struct StoreEntry {
    util::Digest128 key;
    std::shared_ptr<const JobResult> result;
};

/// A load's outcome and the records it recovered, which are empty
/// unless usable().
struct LoadResult : LoadOutcome {
    std::vector<StoreEntry> entries;
};

class CacheStore {
public:
    /// Reads and fully validates the store at `path`. `fingerprint` is
    /// the caller's options salt; a mismatch rejects the file.
    [[nodiscard]] static LoadResult load(const std::string& path,
                                         std::string_view fingerprint);

    /// Serializes `entries` under `fingerprint` and atomically replaces
    /// `path`. Returns false (with `errorOut` set) on I/O failure; never
    /// throws.
    static bool save(const std::string& path, std::string_view fingerprint,
                     std::span<const StoreEntry> entries,
                     std::string* errorOut = nullptr);
};

}  // namespace pd::engine::persist
