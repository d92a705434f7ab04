#include "engine/shard/worker.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_set>

#include "engine/shard/protocol.hpp"
#include "engine/shard/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"

namespace pd::engine::shard {
namespace {

/// write() the whole buffer, riding out EINTR and short writes. Returns
/// false when the pipe is gone (coordinator died) — the worker then just
/// exits; there is nobody left to report to.
bool writeAll(int fd, std::string_view bytes) {
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

/// Background liveness pump (wire v6): one kHeartbeat frame every
/// quarter of the coordinator's deadline, so a worker busy inside a
/// long engine.runJob() — or parked in a test hang — still proves it is
/// alive. All frame writes go through the shared wire mutex: a beat
/// must never splice into the middle of a kResult.
class HeartbeatPump {
public:
    HeartbeatPump(int fd, std::mutex& wireMu, std::uint32_t shardId,
                  int deadlineMs) {
        if (deadlineMs <= 0) return;
        const auto interval =
            std::chrono::milliseconds(std::max(deadlineMs / 4, 25));
        thread_ = std::thread([this, fd, &wireMu, shardId, interval] {
            std::unique_lock<std::mutex> lk(mu_);
            std::uint64_t seq = 0;
            while (!stop_) {
                cv_.wait_for(lk, interval);
                if (stop_) break;
                lk.unlock();
                bool ok = true;
                // Deterministic beat-skipping fault: one missed beat is
                // harmless (the deadline is four intervals); only a
                // sustained skip plan can trip supervision.
                if (!PD_FAULT("shard.sock.hb.skip")) {
                    Heartbeat hb;
                    hb.shardId = shardId;
                    hb.seq = ++seq;
                    std::string out;
                    appendFrame(out, FrameType::kHeartbeat,
                                encodeHeartbeat(hb));
                    std::lock_guard<std::mutex> wl(wireMu);
                    ok = writeAll(fd, out);
                }
                lk.lock();
                if (!ok) break;  // coordinator gone; the main loop
                                 // notices on its next read
            }
        });
    }

    ~HeartbeatPump() {
        if (!thread_.joinable()) return;
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace

int runWorker(const WorkerOptions& opt) {
    // Claim the frame channel. Pipe mode: frames arrive on stdin and
    // leave on a private dup of stdout. Socket mode (--connect): the
    // worker dials the coordinator's listener and both directions share
    // the connected fd. Either way stdout is then re-pointed at stderr,
    // so a stray library print can never splice into the frame stream
    // (pipe) or interleave with the coordinator's own stdout (socket).
    int inFd = STDIN_FILENO;
    int outFd = -1;
    if (!opt.connect.empty()) {
        const int sock = connectToCoordinator(opt.connect, kConnectTimeoutMs);
        if (sock < 0) return 3;
        inFd = outFd = sock;
    } else {
        outFd = ::dup(STDOUT_FILENO);
        if (outFd < 0) return 3;
    }
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    log::setScopePrefix("w" + std::to_string(opt.shardId));
    if (opt.obs) obs::setEnabled(true);

    if (opt.rssBudgetMb != 0) {
        rlimit lim{};
        lim.rlim_cur = lim.rlim_max =
            static_cast<rlim_t>(opt.rssBudgetMb) << 20;
        ::setrlimit(RLIMIT_AS, &lim);  // best-effort; failure = no budget
    }

    EngineOptions eopt = opt.engine;
    eopt.jobs = 1;  // parallelism lives in the process fan-out
    eopt.cacheReadonly = true;
    // Proof store likewise: workers warm-start read-only and stream
    // their completed refutations back as kProofEntry frames; only the
    // coordinator writes the merged pd-proof-v1 store.
    eopt.proofCacheReadonly = true;
    eopt.shards = 0;  // a worker never recursively shards
    Engine engine(eopt);

    // Every frame write — results, deltas, heartbeats from the pump's
    // thread — serializes on this mutex so frames never interleave.
    std::mutex wireMu;
    const auto send = [&](FrameType type, std::string_view payload) {
        std::string out;
        appendFrame(out, type, payload);
        std::lock_guard<std::mutex> lock(wireMu);
        return writeAll(outFd, out);
    };

    Hello hello;
    hello.shardId = opt.shardId;
    if (!send(FrameType::kHello, encodeHello(hello))) return 3;

    // The pump starts only after the hello: the coordinator's liveness
    // clock starts at channel establishment, and warm-starting the
    // engine above is covered by the spawn state, not the deadline.
    HeartbeatPump pump(outFd, wireMu, opt.shardId, opt.heartbeatMs);

    const char* crashJob = std::getenv(kCrashJobEnv);
    const char* hangJob = std::getenv(kHangJobEnv);
    const char* stallJob = std::getenv(kStallJobEnv);

    // Keys already streamed to the coordinator. Deltas ship eagerly after
    // every job so a later crash forfeits only the in-flight entry, never
    // the worker's whole session.
    std::unordered_set<util::Digest128, util::Digest128Hash> shipped;
    std::unordered_set<std::string> shippedIndex;
    const auto shipDeltas = [&] {
        for (const CacheDelta& d : engine.cacheDelta(shipped)) {
            if (!send(FrameType::kCacheEntry, encodeCacheDelta(d)))
                return false;
            shipped.insert(d.key);
        }
        // Name-index entries ride the same cadence, so the coordinator's
        // store names every result a single-process run would.
        for (const JobIndex::Entry& e : engine.indexDelta(shippedIndex)) {
            if (!send(FrameType::kIndexEntry, encodeIndexDelta(e)))
                return false;
            shippedIndex.insert(e.name);
        }
        return true;
    };

    // Completed SAT refutations ship on the same cadence: one
    // kProofEntry frame per fresh proof, so a crash forfeits at most the
    // in-flight job's proof.
    std::unordered_set<std::uint64_t> shippedProofs;
    const auto shipProofDeltas = [&] {
        for (const auto& e : engine.proofDelta(shippedProofs)) {
            if (!send(FrameType::kProofEntry, encodeProofEntry(e)))
                return false;
            shippedProofs.insert(e.digest);
        }
        return true;
    };

    // Observability shipments mirror the cache-delta cadence: after every
    // job plus a shutdown catch-up, so a crash forfeits at most one job's
    // spans. Metrics ship as deltas against the previous shipment — the
    // coordinator accumulates, so re-sending totals would double-count.
    obs::MetricsSnapshot lastShipped;
    const auto shipObs = [&] {
        if (!opt.obs) return true;
        if (rusage ru{}; ::getrusage(RUSAGE_SELF, &ru) == 0)
            obs::gauge("worker.rss_mb").set(ru.ru_maxrss / 1024);
        ObsDelta d;
        d.spans = obs::drainSpans();
        obs::MetricsSnapshot cur = obs::snapshotMetrics();
        d.metrics = obs::deltaMetrics(cur, lastShipped);
        lastShipped = std::move(cur);
        if (d.spans.empty() && d.metrics.counters.empty() &&
            d.metrics.gauges.empty() && d.metrics.histograms.empty())
            return true;
        return send(FrameType::kObs, encodeObsDelta(d));
    };

    FrameDecoder decoder;
    char buf[1 << 16];
    for (;;) {
        std::optional<Frame> frame;
        try {
            frame = decoder.next();
        } catch (const std::exception&) {
            return 4;  // malformed stream: nothing sane left to do
        }
        if (!frame) {
            const ssize_t n = ::read(inFd, buf, sizeof buf);
            if (n < 0) {
                if (errno == EINTR) continue;
                return 4;
            }
            if (n == 0) return 0;  // coordinator closed the channel
            decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            continue;
        }
        switch (frame->type) {
            case FrameType::kJob: {
                auto [index, spec] = decodeJob(frame->payload);
                const std::string& hookName =
                    !spec.name.empty() ? spec.name : spec.benchmark;
                // Name-targeted lifecycle hooks (exact, test-oriented)
                // and counter-driven fault sites (chaos-oriented; hit
                // counts are per worker process) model the same two
                // failure modes: death and wedge.
                if (crashJob && hookName == crashJob) std::abort();
                if (PD_FAULT("shard.worker.crash")) std::abort();
                if ((hangJob && hookName == hangJob) ||
                    PD_FAULT("shard.worker.hang")) {
                    // Park until the coordinator's wall budget kills us.
                    // The heartbeat pump keeps beating — a hung job is
                    // the wall budget's case, not liveness's.
                    for (;;)
                        std::this_thread::sleep_for(
                            std::chrono::seconds(3600));
                }
                if ((stallJob && hookName == stallJob) ||
                    PD_FAULT("shard.sock.stall")) {
                    // Freeze the whole process — pump included — so
                    // only the coordinator's heartbeat deadline can
                    // reap us (SIGKILL works on stopped processes).
                    ::raise(SIGSTOP);
                }
                const JobResult result = engine.runJob(spec);
                std::string out;
                appendFrame(out, FrameType::kResult,
                            encodeResult(index, result));
                if (PD_FAULT("shard.wire.corrupt") && !out.empty())
                    // Flip one payload bit: the coordinator's frame
                    // checksum must reject the stream and take the
                    // worker-death path.
                    out[out.size() / 2] ^= 0x01;
                if (PD_FAULT("shard.wire.partial")) {
                    // Crash mid-frame: ship half, then die. The
                    // coordinator sees EOF inside a frame.
                    std::lock_guard<std::mutex> lock(wireMu);
                    writeAll(outFd, std::string_view(out).substr(
                                        0, out.size() / 2));
                    std::abort();
                }
                {
                    std::lock_guard<std::mutex> lock(wireMu);
                    if (!writeAll(outFd, out)) return 3;
                }
                if (!shipDeltas()) return 3;
                if (!shipProofDeltas()) return 3;
                if (!shipObs()) return 3;
                break;
            }
            case FrameType::kShutdown: {
                if (PD_FAULT("shard.worker.drain.hang")) {
                    // Wedge during drain: never Bye. The coordinator's
                    // drain timeout must reap us and forfeit the deltas.
                    for (;;)
                        std::this_thread::sleep_for(
                            std::chrono::seconds(3600));
                }
                // Catch-up pass for anything not yet streamed (normally
                // empty); disk-restored entries stay behind — the
                // coordinator already has them.
                if (!shipDeltas()) return 3;
                if (!shipProofDeltas()) return 3;
                if (!shipObs()) return 3;
                send(FrameType::kBye, {});
                return 0;
            }
            default:
                return 4;  // coordinator-only frame on the worker pipe
        }
    }
}

}  // namespace pd::engine::shard
