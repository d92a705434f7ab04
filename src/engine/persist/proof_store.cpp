#include "engine/persist/proof_store.hpp"

#include "engine/persist/format.hpp"
#include "util/error.hpp"

namespace pd::engine::persist {
namespace {

const RecordFormat& format() {
    static const RecordFormat f(kProofMagic, kProofFormatVersion,
                                "proof store", "persist.proof");
    return f;
}

}  // namespace

void encodeProofBody(const sat::ProofCache::SnapshotEntry& e,
                     std::string& out) {
    ByteWriter w(out);
    w.u64(e.digest);
    w.u64(e.entry.conflicts);
    w.u64(e.entry.propagations);
    w.u64(e.entry.restarts);
    w.u64(e.entry.learned);
    // winner is -1..N; biased by one so it travels as an unsigned count.
    w.u64(static_cast<std::uint64_t>(e.entry.winner + 1));
}

sat::ProofCache::SnapshotEntry decodeProofBody(ByteReader& r) {
    sat::ProofCache::SnapshotEntry e;
    e.digest = r.u64();
    e.entry.conflicts = r.u64();
    e.entry.propagations = r.u64();
    e.entry.restarts = r.u64();
    e.entry.learned = r.u64();
    e.entry.winner = static_cast<int>(r.u64()) - 1;
    return e;
}

Loaded<ProofRecords> ProofStore::load(const std::string& path,
                                      std::string_view fingerprint) {
    return loadFile<ProofRecords>(
        format(), path, fingerprint, [](RecordReader& rr, ProofRecords& out) {
            rr.section("entry", kProofBodyBytes + 8,
                       [&](ByteReader& r, std::uint64_t i) {
                const std::string_view body = r.raw(kProofBodyBytes);
                if (r.u64() != fnv1a(body))
                    fail("persist", "checksum mismatch on proof entry " +
                                        std::to_string(i));
                ByteReader br(body);
                out.entries.push_back(decodeProofBody(br));
            });
        });
}

bool ProofStore::save(const std::string& path, std::string_view fingerprint,
                      std::span<const sat::ProofCache::SnapshotEntry> entries,
                      std::string* errorOut) {
    return saveFile(format(), path, fingerprint, [&](std::string& bytes) {
        ByteWriter w(bytes);
        w.u64(entries.size());
        std::string body;
        for (const auto& e : entries) {
            body.clear();
            encodeProofBody(e, body);
            bytes.append(body);
            w.u64(fnv1a(body));
        }
        return "entries=" + std::to_string(entries.size());
    }, errorOut);
}

}  // namespace pd::engine::persist
