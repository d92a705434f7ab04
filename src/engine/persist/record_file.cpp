#include "engine/persist/record_file.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"

namespace pd::engine::persist {
namespace {

LoadOutcome reject(LoadStatus status, std::string detail) {
    LoadOutcome r;
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

}  // namespace

std::string_view loadStatusName(LoadStatus s) {
    switch (s) {
        case LoadStatus::kLoaded: return "loaded";
        case LoadStatus::kNoFile: return "no-file";
        case LoadStatus::kBadMagic: return "bad-magic";
        case LoadStatus::kBadVersion: return "bad-version";
        case LoadStatus::kBadFingerprint: return "bad-fingerprint";
        case LoadStatus::kCorrupt: return "corrupt";
        case LoadStatus::kSalvaged: return "salvaged";
        case LoadStatus::kDisabled: return "disabled";
    }
    return "unknown";
}

LoadOutcome loadRecords(const std::string& path, std::string_view fingerprint,
                        std::uint64_t minBytes, const ReadRecord& readOne) {
    static auto& loadFlip = fault::site("persist.load.flip");
    obs::ScopedSpan span("persist.load", "persist");
    obs::counter("persist.load").add();
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return reject(LoadStatus::kNoFile,
                      "no cache store at '" + path + "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    if (is.bad())
        return reject(LoadStatus::kCorrupt, "read error on '" + path + "'");
    std::string bytes = std::move(buf).str();
    if (loadFlip.shouldFire() && bytes.size() > kMagic.size() + 4)
        // Flip a bit two-thirds in: past the header on any real store,
        // so the per-record checksums must catch it and salvage the
        // prefix before the flipped byte.
        bytes[bytes.size() * 2 / 3] ^= 0x01;
    if (span.live()) span.setDetail("bytes=" + std::to_string(bytes.size()));

    try {
        ByteReader r(bytes);
        if (bytes.size() < kMagic.size() || r.raw(kMagic.size()) != kMagic)
            return reject(LoadStatus::kBadMagic,
                          "not a pd cache store (bad magic)");
        const std::uint32_t version = r.u32();
        if (version != kFormatVersion)
            return reject(LoadStatus::kBadVersion,
                          "cache store is format version " +
                              std::to_string(version) + ", this build reads " +
                              std::to_string(kFormatVersion));
        const std::string_view salt = r.str();
        if (salt != fingerprint)
            return reject(LoadStatus::kBadFingerprint,
                          "cache store was written under fingerprint '" +
                              printable(salt) + "', expected '" +
                              printable(fingerprint) + "'");

        LoadOutcome out;
        out.status = LoadStatus::kLoaded;
        const std::uint64_t count = r.u64();
        std::uint64_t kept = 0;
        for (; kept < count; ++kept) {
            const std::uint64_t remainingBefore = r.remaining();
            try {
                readOne(r, kept);
            } catch (const std::exception& e) {
                // `count - kept` trusts the declared count, but when the
                // damage hit the count field itself that difference is
                // garbage. An intact record occupies at least `minBytes`,
                // so the bytes left at the damaged record bound how many
                // the file could actually have held.
                const std::uint64_t declared = count - kept;
                const std::uint64_t plausible = remainingBefore / minBytes;
                out.droppedEntries = std::min(declared, plausible);
                out.detail = "salvaged " + std::to_string(kept) + " of " +
                             std::to_string(count) + " entries (" +
                             e.what() + ")";
                if (declared > plausible)
                    out.detail += "; declared entry count untrusted (room "
                                  "for at most " +
                                  std::to_string(plausible) + " more)";
                break;
            }
        }
        if (out.detail.empty() && !r.done())
            out.detail = "salvaged " + std::to_string(kept) + " entries; " +
                         std::to_string(r.remaining()) +
                         " trailing bytes after the declared count";
        if (out.detail.empty()) return out;
        if (kept == 0)
            return reject(LoadStatus::kCorrupt,
                          "no salvageable prefix (" + out.detail + ")");
        out.status = LoadStatus::kSalvaged;
        obs::counter("persist.salvage").add();
        obs::counter("persist.salvage.dropped").add(out.droppedEntries);
        log::warn("persist", out.detail);
        return out;
    } catch (const std::exception& e) {
        return reject(LoadStatus::kCorrupt, "'" + path + "': " + e.what());
    }
}

bool saveFile(const std::string& path, std::string_view fingerprint,
              const std::function<std::string(std::string& bytes)>& body,
              std::string* errorOut) {
    static auto& saveEnospc = fault::site("persist.save.enospc");
    static auto& saveShortWrite = fault::site("persist.save.short_write");
    static auto& saveRename = fault::site("persist.save.rename");
    obs::ScopedSpan span("persist.save", "persist");
    obs::counter("persist.save").add();
    std::string bytes(kMagic);
    ByteWriter w(bytes);
    w.u32(kFormatVersion);
    w.str(fingerprint);
    const std::string summary = body(bytes);
    if (span.live())
        span.setDetail(summary + " bytes=" + std::to_string(bytes.size()));

    // Unique per process *and* per call: concurrent flushes from two
    // threads must not interleave writes into one tmp file.
    static std::atomic<std::uint64_t> saveSeq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(static_cast<long>(::getpid())) +
                            "." + std::to_string(saveSeq.fetch_add(1));
    if (saveEnospc.shouldFire()) {
        if (errorOut)
            *errorOut = "injected fault " + saveEnospc.name() +
                        ": no space left on device writing '" + tmp + "'";
        return false;
    }
    if (saveShortWrite.shouldFire())
        // Model a torn write that the filesystem acknowledged anyway
        // (power cut between ack and durability): the truncated bytes
        // go through the normal rename path and the save reports
        // success, so only the next load — via salvage — finds the damage.
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
    if (saveRename.shouldFire()) {
        if (errorOut)
            *errorOut = "injected fault " + saveRename.name() +
                        ": rename '" + tmp + "' -> '" + path + "' failed";
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
