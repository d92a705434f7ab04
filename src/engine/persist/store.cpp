#include "engine/persist/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "engine/persist/format.hpp"
#include "engine/persist/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"

namespace pd::engine::persist {
namespace {

LoadResult reject(LoadResult::Status status, std::string detail) {
    LoadResult r;
    r.status = status;
    r.detail = std::move(detail);
    return r;
}

/// Untrusted bytes destined for human-readable detail strings (and from
/// there the JSON report): anything outside printable ASCII becomes
/// \xNN so the report stays valid UTF-8 whatever the file contained.
std::string printable(std::string_view bytes) {
    std::string out;
    out.reserve(bytes.size());
    for (const unsigned char c : bytes) {
        if (c >= 0x20 && c < 0x7f) {
            out.push_back(static_cast<char>(c));
        } else {
            constexpr char kHex[] = "0123456789abcdef";
            out += "\\x";
            out.push_back(kHex[c >> 4]);
            out.push_back(kHex[c & 0xf]);
        }
    }
    return out;
}

/// FNV-1a over an index record's name, stamp and digest bytes.
std::uint64_t indexChecksum(const JobIndex::Entry& e) {
    std::string bytes;
    ByteWriter w(bytes);
    w.str(e.name);
    w.u64(e.stamp);
    w.digest(e.digest);
    return fnv1a(bytes);
}

/// Smallest intact records: key + empty payload + checksum, and length
/// prefix + stamp + digest + checksum.
constexpr std::uint64_t kMinEntryBytes = 16 + 4 + 8;
constexpr std::uint64_t kMinIndexBytes = 4 + 8 + 16 + 8;

/// Walks `count` records with `readOne`, stopping at the first one that
/// fails. Returns "" when all were intact, else the salvage detail:
/// `count - i` trusts the declared count — but when the damage hit the
/// count field itself that difference is garbage (potentially billions),
/// and it feeds the `persist.salvage.dropped` counter and the report. An
/// intact record occupies at least `minBytes`, so the bytes left at the
/// damaged record bound how many the file could actually have held;
/// `dropped` is clamped to that and the detail says the count itself is
/// untrusted.
template <typename ReadOne>
std::string walk(ByteReader& r, std::uint64_t count, std::uint64_t minBytes,
                 std::string_view noun, std::uint64_t& dropped,
                 ReadOne readOne) {
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t remainingBefore = r.remaining();
        try {
            readOne(i);
        } catch (const std::exception& e) {
            const std::uint64_t declared = count - i;
            const std::uint64_t plausible = remainingBefore / minBytes;
            dropped = std::min(declared, plausible);
            // "entry" → "entries", "index entry" → "index entries".
            const std::string plural =
                std::string(noun.substr(0, noun.size() - 1)) + "ies";
            std::string detail = "salvaged " + std::to_string(i) + " of " +
                                 std::to_string(count) + " " + plural + " (" +
                                 e.what() + ")";
            if (declared > plausible)
                detail += "; declared " + std::string(noun) +
                          " count untrusted (room for at most " +
                          std::to_string(plausible) + " more)";
            return detail;
        }
    }
    return {};
}

/// Header + record walk; throws pd::Error on header-level damage so the
/// caller can collapse it into kCorrupt. Damage at or after entry 0 is
/// absorbed here: the valid prefix is kept and the result downgraded to
/// kSalvaged (or kCorrupt when no entry at all survived) — each record's
/// own checksum makes the kept prefix exactly as trustworthy as a
/// pristine store.
LoadResult parse(std::string_view bytes, std::string_view fingerprint) {
    ByteReader r(bytes);
    if (bytes.size() < kMagic.size() || r.raw(kMagic.size()) != kMagic)
        return reject(LoadResult::Status::kBadMagic,
                      "not a pd cache store (bad magic)");
    const std::uint32_t version = r.u32();
    if (version != kFormatVersion)
        return reject(LoadResult::Status::kBadVersion,
                      "store is format version " + std::to_string(version) +
                          ", this build reads " +
                          std::to_string(kFormatVersion));
    const std::string_view salt = r.str();
    if (salt != fingerprint)
        return reject(LoadResult::Status::kBadFingerprint,
                      "store was written under options fingerprint '" +
                          printable(salt) + "', expected '" +
                          printable(fingerprint) + "'");

    LoadResult out;
    out.status = LoadResult::Status::kLoaded;
    const std::uint64_t count = r.u64();
    out.entries.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, r.remaining() / kMinEntryBytes)));
    out.detail = walk(r, count, kMinEntryBytes, "entry",
                      out.droppedEntries, [&](std::uint64_t i) {
        const std::string_view key = r.raw(16);
        const std::string_view payload = r.str();
        if (r.u64() != fnv1a(payload, fnv1a(key)))
            fail("persist", "checksum mismatch on entry " + std::to_string(i));
        StoreEntry e;
        e.key = ByteReader(key).digest();
        e.result = deserializeJobResult(payload);
        out.entries.push_back(std::move(e));
    });
    if (out.detail.empty()) {
        // Index damage costs index entries only: every result above is
        // already proven intact.
        std::uint64_t droppedIndex = 0;
        try {
            const std::uint64_t icount = r.u64();
            out.detail = walk(r, icount, kMinIndexBytes, "index entry",
                              droppedIndex, [&](std::uint64_t i) {
                JobIndex::Entry e;
                e.name = std::string(r.str());
                e.stamp = r.u64();
                e.digest = r.digest();
                if (r.u64() != indexChecksum(e))
                    fail("persist", "checksum mismatch on index entry " +
                                        std::to_string(i));
                out.index.push_back(std::move(e));
            });
        } catch (const std::exception& e) {
            out.detail = std::string("index section lost (") + e.what() + ")";
        }
        if (out.detail.empty() && !r.done())
            // The declared records all validated but the file keeps
            // going: the count fields can't be trusted, yet the prefix can.
            out.detail = "salvaged " + std::to_string(out.entries.size()) +
                         " entries; " + std::to_string(r.remaining()) +
                         " trailing bytes after the declared count";
    }
    if (!out.detail.empty()) {
        out.status = LoadResult::Status::kSalvaged;
        if (out.entries.empty())
            return reject(LoadResult::Status::kCorrupt,
                          "no salvageable prefix (" + out.detail + ")");
        static auto& salvages = obs::counter("persist.salvage");
        static auto& dropped = obs::counter("persist.salvage.dropped");
        salvages.add();
        dropped.add(out.droppedEntries);
        log::warn("persist", out.detail);
    }
    return out;
}

}  // namespace

std::string_view loadStatusName(LoadResult::Status s) {
    switch (s) {
        case LoadResult::Status::kLoaded: return "loaded";
        case LoadResult::Status::kNoFile: return "no-file";
        case LoadResult::Status::kBadMagic: return "bad-magic";
        case LoadResult::Status::kBadVersion: return "bad-version";
        case LoadResult::Status::kBadFingerprint: return "bad-fingerprint";
        case LoadResult::Status::kCorrupt: return "corrupt";
        case LoadResult::Status::kSalvaged: return "salvaged";
    }
    return "unknown";
}

LoadResult CacheStore::load(const std::string& path,
                            std::string_view fingerprint) {
    obs::ScopedSpan span("persist.load", "persist");
    static auto& loads = obs::counter("persist.load");
    loads.add();
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return reject(LoadResult::Status::kNoFile,
                      "no store at '" + path + "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad())
        return reject(LoadResult::Status::kCorrupt,
                      "read error on '" + path + "'");
    std::string bytes = std::move(buf).str();
    if (PD_FAULT("persist.load.flip") && bytes.size() > kMagic.size() + 4)
        // Flip a bit two-thirds in: past the header on any real store,
        // so the per-entry checksums must catch it and salvage the
        // prefix before the flipped byte.
        bytes[bytes.size() * 2 / 3] ^= 0x01;
    if (span.live())
        span.setDetail("bytes=" + std::to_string(bytes.size()));
    try {
        return parse(bytes, fingerprint);
    } catch (const std::exception& e) {
        return reject(LoadResult::Status::kCorrupt,
                      "'" + path + "': " + e.what());
    }
}

bool CacheStore::save(const std::string& path, std::string_view fingerprint,
                      std::span<const StoreEntry> entries,
                      std::span<const JobIndex::Entry> index,
                      std::string* errorOut) {
    obs::ScopedSpan span("persist.save", "persist");
    static auto& saves = obs::counter("persist.save");
    saves.add();
    static auto& entryBytes = obs::histogram("persist.entry.bytes");
    std::string bytes;
    {
        ByteWriter w(bytes);
        bytes.append(kMagic);
        w.u32(kFormatVersion);
        w.str(fingerprint);
        w.u64(entries.size());
        std::string payload;
        std::string key;
        for (const auto& e : entries) {
            payload.clear();
            serializeJobResult(*e.result, payload);
            entryBytes.observe(payload.size());
            key.clear();
            ByteWriter(key).digest(e.key);
            bytes.append(key);
            w.str(payload);
            w.u64(fnv1a(payload, fnv1a(key)));
        }
        w.u64(index.size());
        for (const auto& e : index) {
            w.str(e.name);
            w.u64(e.stamp);
            w.digest(e.digest);
            w.u64(indexChecksum(e));
        }
    }
    if (span.live())
        span.setDetail("entries=" + std::to_string(entries.size()) +
                       " index=" + std::to_string(index.size()) +
                       " bytes=" + std::to_string(bytes.size()));

    // Unique per process *and* per call: concurrent flushes from two
    // threads must not interleave writes into one tmp file.
    static std::atomic<std::uint64_t> saveSeq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(static_cast<long>(::getpid())) +
                            "." + std::to_string(saveSeq.fetch_add(1));
    if (PD_FAULT("persist.save.enospc")) {
        if (errorOut)
            *errorOut = "injected fault persist.save.enospc: no space "
                        "left on device writing '" + tmp + "'";
        return false;
    }
    if (PD_FAULT("persist.save.short_write"))
        // Model a torn write that the filesystem acknowledged anyway
        // (power cut between ack and durability): the truncated bytes
        // go through the normal rename path and save() reports success,
        // so only the next load() — via salvage — discovers the damage.
        bytes.resize(bytes.size() / 2);
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            if (errorOut) *errorOut = "cannot open '" + tmp + "' for write";
            return false;
        }
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        os.flush();
        if (!os) {
            if (errorOut) *errorOut = "write failed on '" + tmp + "'";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (PD_FAULT("persist.save.rename")) {
        if (errorOut)
            *errorOut = "injected fault persist.save.rename: rename '" +
                        tmp + "' -> '" + path + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (errorOut)
            *errorOut = "rename '" + tmp + "' -> '" + path + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

}  // namespace pd::engine::persist
