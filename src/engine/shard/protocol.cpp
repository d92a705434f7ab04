#include "engine/shard/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>

#include "engine/persist/format.hpp"
#include "engine/persist/serialize.hpp"
#include "util/error.hpp"

namespace pd::engine::shard {
namespace {

using persist::ByteReader;
using persist::ByteWriter;
using persist::fnv1a;

/// True for the type bytes this wire version speaks; the retired
/// per-record types (5, 8, 10) are unknown like any other byte.
bool knownFrameType(std::uint8_t t) {
    switch (static_cast<FrameType>(t)) {
        case FrameType::kHello:
        case FrameType::kJob:
        case FrameType::kResult:
        case FrameType::kShutdown:
        case FrameType::kBye:
        case FrameType::kObs:
        case FrameType::kHeartbeat:
            return true;
    }
    return false;
}

constexpr std::uint8_t kMaxCacheSource =
    static_cast<std::uint8_t>(CacheSource::kDisk);

std::uint64_t frameChecksum(FrameType type, std::string_view payload) {
    const char t = static_cast<char>(type);
    return fnv1a(payload, fnv1a(std::string_view(&t, 1)));
}

}  // namespace

void appendFrame(std::string& out, FrameType type, std::string_view payload) {
    if (payload.size() > kMaxFramePayload)
        fail("shard", "frame payload of " + std::to_string(payload.size()) +
                          " bytes exceeds the protocol limit");
    ByteWriter w(out);
    w.u8(static_cast<std::uint8_t>(type));
    w.str(payload);
    w.u64(frameChecksum(type, payload));
}

bool writeAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

void FrameDecoder::feed(std::string_view bytes) {
    // Compact before growing: the consumed prefix would otherwise
    // accumulate for the lifetime of a long batch.
    if (pos_ > 0 && pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ > (1u << 20)) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(bytes);
}

std::optional<Frame> FrameDecoder::next() {
    if (poisoned_)
        fail("shard", "frame stream already malformed; decoder is poisoned");
    // Every poison detail pins the damage to the stream: which frame
    // ordinal, at which absolute byte offset its header starts. A torn
    // or corrupt stream then diagnoses itself from the error.
    const std::string where = " at frame " + std::to_string(frames_) +
                              ", stream offset " + std::to_string(consumed_);
    const std::string_view avail =
        std::string_view(buf_).substr(pos_);
    if (avail.size() < 5) return std::nullopt;  // type + length prefix
    const auto t = static_cast<std::uint8_t>(avail[0]);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(avail[1 + i]))
               << (8 * i);
    // Validate before waiting for the body: a corrupt header must error
    // now, not make the reader block forever on bytes that never come.
    if (!knownFrameType(t)) {
        poisoned_ = true;
        fail("shard", "unknown frame type " + std::to_string(t) + where);
    }
    if (len > kMaxFramePayload) {
        poisoned_ = true;
        fail("shard", "frame length " + std::to_string(len) +
                          " exceeds the protocol limit (type " +
                          std::to_string(t) + ")" + where);
    }
    if (avail.size() < 5 + static_cast<std::size_t>(len) + 8)
        return std::nullopt;  // body or checksum still in flight
    Frame f;
    f.type = static_cast<FrameType>(t);
    f.payload = std::string(avail.substr(5, len));
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                      avail[5 + len + static_cast<std::size_t>(i)]))
                  << (8 * i);
    if (stored != frameChecksum(f.type, f.payload)) {
        poisoned_ = true;
        fail("shard", "frame checksum mismatch (type " + std::to_string(t) +
                          ", " + std::to_string(len) + " payload bytes)" +
                          where);
    }
    pos_ += 5 + static_cast<std::size_t>(len) + 8;
    consumed_ += 5 + static_cast<std::uint64_t>(len) + 8;
    ++frames_;
    return f;
}

// ---- payloads --------------------------------------------------------------

std::string encodeHello(const Hello& h) {
    std::string out;
    ByteWriter w(out);
    w.u32(h.version);
    w.u32(h.shardId);
    return out;
}

Hello decodeHello(std::string_view payload) {
    ByteReader r(payload);
    Hello h;
    h.version = r.u32();
    h.shardId = r.u32();
    if (!r.done()) fail("shard", "trailing bytes after hello");
    return h;
}

bool wireSerializable(const JobSpec& spec) { return spec.bench == nullptr; }

std::string encodeJob(std::uint32_t tag, const JobSpec& spec) {
    if (!wireSerializable(spec))
        fail("shard", "job '" + spec.name +
                          "' carries a live Benchmark object and cannot "
                          "cross to a worker process");
    std::string out;
    ByteWriter w(out);
    w.u32(tag);
    w.str(spec.name);
    w.str(spec.benchmark);
    w.u32(static_cast<std::uint32_t>(spec.expressions.size()));
    for (const auto& e : spec.expressions) w.str(e);
    const auto& o = spec.options;
    w.u64(o.k);
    w.u8(o.useLinearMinimize ? 1 : 0);
    w.u8(o.useSizeReduction ? 1 : 0);
    w.u8(o.useIdentities ? 1 : 0);
    w.u8(o.useNullspaceMerging ? 1 : 0);
    w.u8(o.complementNullspace ? 1 : 0);
    w.u64(o.maxIterations);
    w.u64(o.mergeAttemptBudget);
    w.u8(spec.verify ? 1 : 0);
    w.u8(spec.keepMapped ? 1 : 0);
    return out;
}

TaggedJob decodeJob(std::string_view payload) {
    ByteReader r(payload);
    TaggedJob job;
    job.tag = r.u32();
    JobSpec& spec = job.spec;
    spec.name = std::string(r.str());
    spec.benchmark = std::string(r.str());
    const std::uint32_t nexpr = r.u32();
    spec.expressions.reserve(
        std::min<std::size_t>(nexpr, payload.size() / 4 + 1));
    for (std::uint32_t i = 0; i < nexpr; ++i)
        spec.expressions.emplace_back(r.str());
    auto& o = spec.options;
    o.k = r.u64();
    o.useLinearMinimize = r.u8() != 0;
    o.useSizeReduction = r.u8() != 0;
    o.useIdentities = r.u8() != 0;
    o.useNullspaceMerging = r.u8() != 0;
    o.complementNullspace = r.u8() != 0;
    o.maxIterations = r.u64();
    o.mergeAttemptBudget = r.u64();
    spec.verify = r.u8() != 0;
    spec.keepMapped = r.u8() != 0;
    if (!r.done()) fail("shard", "trailing bytes after job spec");
    return job;
}

std::string encodeResult(std::uint32_t tag, const JobResult& result,
                         const StoreRecords& records) {
    std::string out;
    ByteWriter w(out);
    w.u32(tag);
    // Per-request fields the pd-cache-v6 payload deliberately omits.
    w.str(result.name);
    w.f64(result.wallMs);
    w.f64(result.cpuMs);
    w.f64(result.phases.resolveMs);
    w.f64(result.phases.digestMs);
    w.f64(result.phases.cacheLookupMs);
    w.f64(result.phases.decomposeMs);
    w.f64(result.phases.probeSweepMs);
    w.f64(result.phases.synthMs);
    w.f64(result.phases.optimizeMs);
    w.f64(result.phases.mapMs);
    w.f64(result.phases.staMs);
    w.f64(result.phases.verifyMs);
    w.u8(result.cacheHit ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(result.cacheSource));
    w.str(result.cacheKey);
    std::string semantic;
    persist::serializeJobResult(result, semantic);
    w.str(semantic);
    // The job's store records, each as the store's record body.
    w.u32(static_cast<std::uint32_t>(records.size()));
    for (const auto& e : records) {
        w.digest(e.key);
        semantic.clear();
        persist::serializeJobResult(*e.value, semantic);
        w.str(semantic);
    }
    return out;
}

Answer decodeResult(std::string_view payload) {
    ByteReader r(payload);
    Answer a;
    a.tag = r.u32();
    const std::string name(r.str());
    const double wallMs = r.f64();
    const double cpuMs = r.f64();
    JobResult::PhaseTimes phases;
    phases.resolveMs = r.f64();
    phases.digestMs = r.f64();
    phases.cacheLookupMs = r.f64();
    phases.decomposeMs = r.f64();
    phases.probeSweepMs = r.f64();
    phases.synthMs = r.f64();
    phases.optimizeMs = r.f64();
    phases.mapMs = r.f64();
    phases.staMs = r.f64();
    phases.verifyMs = r.f64();
    const bool cacheHit = r.u8() != 0;
    const std::uint8_t source = r.u8();
    if (source > kMaxCacheSource)
        fail("shard", "bad cache source " + std::to_string(source));
    const std::string cacheKey(r.str());
    const auto semantic = persist::deserializeJobResult(r.str());
    // No reservations from the counts: a corrupt count runs the reader
    // out of bytes, which throws, long before it can allocate much.
    for (std::uint32_t n = r.u32(); n > 0; --n) {
        const util::Digest128 key = r.digest();
        a.records.push_back({key, persist::deserializeJobResult(r.str())});
    }
    if (!r.done()) fail("shard", "trailing bytes after job result");
    JobResult& result = a.result;
    result = *semantic;
    result.name = name;
    result.wallMs = wallMs;
    result.cpuMs = cpuMs;
    result.phases = phases;
    result.cacheHit = cacheHit;
    result.cacheSource = static_cast<CacheSource>(source);
    result.cacheKey = cacheKey;
    return a;
}

std::string encodeHeartbeat(const Heartbeat& h) {
    std::string out;
    ByteWriter w(out);
    w.u32(h.shardId);
    w.u64(h.seq);
    return out;
}

Heartbeat decodeHeartbeat(std::string_view payload) {
    ByteReader r(payload);
    Heartbeat h;
    h.shardId = r.u32();
    h.seq = r.u64();
    if (!r.done()) fail("shard", "trailing bytes after heartbeat");
    return h;
}

std::string encodeObsDelta(const ObsDelta& d) {
    std::string out;
    ByteWriter w(out);
    w.u32(static_cast<std::uint32_t>(d.spans.size()));
    for (const auto& s : d.spans) {
        w.str(s.name);
        w.str(s.cat);
        w.str(s.detail);
        w.u64(s.startNs);
        w.u64(s.durNs);
        w.u64(s.fp);
        w.u64(s.seq);
        w.u32(s.tid);
    }
    w.u32(static_cast<std::uint32_t>(d.metrics.counters.size()));
    for (const auto& [name, value] : d.metrics.counters) {
        w.str(name);
        w.u64(value);
    }
    w.u32(static_cast<std::uint32_t>(d.metrics.gauges.size()));
    for (const auto& [name, value] : d.metrics.gauges) {
        w.str(name);
        w.u64(static_cast<std::uint64_t>(value));
    }
    w.u32(static_cast<std::uint32_t>(d.metrics.histograms.size()));
    for (const auto& h : d.metrics.histograms) {
        w.str(h.name);
        for (const auto b : h.buckets) w.u64(b);
        w.u64(h.count);
        w.u64(h.sum);
    }
    return out;
}

ObsDelta decodeObsDelta(std::string_view payload) {
    ByteReader r(payload);
    ObsDelta d;
    const std::uint32_t nspans = r.u32();
    d.spans.reserve(std::min<std::size_t>(nspans, payload.size() / 8 + 1));
    for (std::uint32_t i = 0; i < nspans; ++i) {
        obs::Span s;
        s.name = std::string(r.str());
        s.cat = std::string(r.str());
        s.detail = std::string(r.str());
        s.startNs = r.u64();
        s.durNs = r.u64();
        s.fp = r.u64();
        s.seq = r.u64();
        s.tid = r.u32();
        d.spans.push_back(std::move(s));
    }
    const std::uint32_t ncounters = r.u32();
    d.metrics.counters.reserve(
        std::min<std::size_t>(ncounters, payload.size() / 8 + 1));
    for (std::uint32_t i = 0; i < ncounters; ++i) {
        const std::string name(r.str());
        d.metrics.counters.emplace_back(name, r.u64());
    }
    const std::uint32_t ngauges = r.u32();
    d.metrics.gauges.reserve(
        std::min<std::size_t>(ngauges, payload.size() / 8 + 1));
    for (std::uint32_t i = 0; i < ngauges; ++i) {
        const std::string name(r.str());
        d.metrics.gauges.emplace_back(
            name, static_cast<std::int64_t>(r.u64()));
    }
    const std::uint32_t nhists = r.u32();
    d.metrics.histograms.reserve(
        std::min<std::size_t>(nhists, payload.size() / 8 + 1));
    for (std::uint32_t i = 0; i < nhists; ++i) {
        obs::HistogramSample h;
        h.name = std::string(r.str());
        for (auto& b : h.buckets) b = r.u64();
        h.count = r.u64();
        h.sum = r.u64();
        d.metrics.histograms.push_back(std::move(h));
    }
    if (!r.done()) fail("shard", "trailing bytes after obs delta");
    return d;
}

}  // namespace pd::engine::shard
