// Versioned on-disk result store ("pd-cache-v5").
//
// File layout (all integers little-endian, see format.hpp):
//
//   magic            8 bytes   "pdcache\0"
//   version          u32       kFormatVersion (5)
//   fingerprint      str       options-fingerprint salt of the writer
//   entry count      u64
//   entry[count]:
//     key            16 bytes  job digest (lane a u64, lane b u64)
//     payload        str       serialized JobResult (serialize.hpp)
//     checksum       u64       FNV-1a over the key bytes, then the payload
//                               bytes (not the payload's length prefix)
//   index count      u64
//   index[count]:               name index (see engine/cache.hpp JobIndex)
//     name           str       registry name + options fingerprint
//     stamp          u64       spec stamp of the benchmark under that name
//     digest         16 bytes  the key of the job's entry above
//     checksum       u64       FNV-1a over the name, stamp and digest bytes
//
// The trust ladder — header rejection, checksummed-prefix salvage with
// the clamped drop count, the trailing-bytes rule, atomic tmp+rename
// save — is the record layer's (record_file.hpp), which also holds the
// format constants. The first section is the results: damage there
// drops the tail and the index with it. Damage inside the index keeps
// every result entry and the index prefix before it (kSalvaged,
// droppedEntries 0).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/cache.hpp"
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
    std::vector<JobIndex::Entry> index;
};

/// An index record's body: name, stamp, digest. The index checksum
/// covers exactly these bytes, and a shard kResult carries a job's index
/// records as the same bytes.
void encodeIndexBody(const JobIndex::Entry& e, std::string& out);
[[nodiscard]] JobIndex::Entry decodeIndexBody(ByteReader& r);

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
