#include "engine/persist/store.hpp"

#include "engine/persist/format.hpp"
#include "engine/persist/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pd::engine::persist {
namespace {

/// Smallest intact records: key + empty payload + checksum, and length
/// prefix + stamp + digest + checksum.
constexpr std::uint64_t kMinEntryBytes = 16 + 4 + 8;
constexpr std::uint64_t kMinIndexBytes = 4 + 8 + 16 + 8;

}  // namespace

void encodeIndexBody(const JobIndex::Entry& e, std::string& out) {
    ByteWriter w(out);
    w.str(e.name);
    w.u64(e.stamp);
    w.digest(e.digest);
}

JobIndex::Entry decodeIndexBody(ByteReader& r) {
    JobIndex::Entry e;
    e.name = std::string(r.str());
    e.stamp = r.u64();
    e.digest = r.digest();
    return e;
}

LoadResult CacheStore::load(const std::string& path,
                            std::string_view fingerprint) {
    LoadResult out;
    static_cast<LoadOutcome&>(out) = loadRecords(
        path, fingerprint, [&](RecordReader& rr) {
            rr.section("entry", kMinEntryBytes,
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
            // Index damage costs index entries only: every result above
            // is already proven intact.
            std::string body;
            rr.section("index entry", kMinIndexBytes,
                       [&](ByteReader& r, std::uint64_t i) {
                JobIndex::Entry e = decodeIndexBody(r);
                body.clear();
                encodeIndexBody(e, body);
                if (r.u64() != fnv1a(body))
                    fail("persist", "checksum mismatch on index entry " +
                                        std::to_string(i));
                out.index.push_back(std::move(e));
            });
        });
    if (!out.usable()) {
        out.entries.clear();
        out.index.clear();
    }
    return out;
}

bool CacheStore::save(const std::string& path, std::string_view fingerprint,
                      std::span<const StoreEntry> entries,
                      std::span<const JobIndex::Entry> index,
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
        w.u64(index.size());
        std::string body;
        for (const auto& e : index) {
            body.clear();
            encodeIndexBody(e, body);
            bytes.append(body);
            w.u64(fnv1a(body));
        }
        return "entries=" + std::to_string(entries.size()) +
               " index=" + std::to_string(index.size());
    }, errorOut);
}

}  // namespace pd::engine::persist
