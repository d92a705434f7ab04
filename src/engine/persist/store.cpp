#include "engine/persist/store.hpp"

#include "engine/persist/format.hpp"
#include "engine/persist/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pd::engine::persist {
namespace {

/// Smallest intact entry: key + empty payload + checksum.
constexpr std::uint64_t kMinEntryBytes = 16 + 4 + 8;

}  // namespace

LoadResult CacheStore::load(const std::string& path,
                            std::string_view fingerprint) {
    LoadResult out;
    static_cast<LoadOutcome&>(out) = loadRecords(
        path, fingerprint, kMinEntryBytes,
        [&](ByteReader& r, std::uint64_t i) {
            const std::string_view key = r.raw(16);
            const std::string_view payload = r.str();
            if (r.u64() != fnv1a(payload, fnv1a(key)))
                fail("persist",
                     "checksum mismatch on entry " + std::to_string(i));
            StoreEntry e;
            e.key = ByteReader(key).digest();
            e.result = deserializeJobResult(payload);
            out.entries.push_back(std::move(e));
        });
    if (!out.usable()) out.entries.clear();
    return out;
}

bool CacheStore::save(const std::string& path, std::string_view fingerprint,
                      std::span<const StoreEntry> entries,
                      std::string* errorOut) {
    static auto& entryBytes = obs::histogram("persist.entry.bytes");
    return saveFile(path, fingerprint, [&](std::string& bytes) {
        ByteWriter w(bytes);
        w.u64(entries.size());
        std::string key;
        std::string payload;
        for (const auto& e : entries) {
            key.clear();
            ByteWriter(key).digest(e.key);
            payload.clear();
            serializeJobResult(*e.result, payload);
            entryBytes.observe(payload.size());
            bytes.append(key);
            w.str(payload);
            w.u64(fnv1a(payload, fnv1a(key)));
        }
        return "entries=" + std::to_string(entries.size());
    }, errorOut);
}

}  // namespace pd::engine::persist
