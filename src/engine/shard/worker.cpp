#include "engine/shard/worker.hpp"

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <iostream>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "engine/shard/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

namespace pd::engine::shard {
namespace {

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

/// Every EngineOptions field a worker uses, under its worker argv flag.
/// The encoder and the decoder both walk this one list.
template <typename Options, typename Visit>
void forEachWorkerField(Options& e, Visit&& visit) {
    visit("--jobs", e.jobs);
    visit("--cache-capacity", e.cacheCapacity);
    visit("--probe-threads", e.probeThreads);
    visit("--verify-threads", e.verifyThreads);
    visit("--verify-conflict-budget", e.verifyConflictBudget);
    visit("--verify-prop-budget", e.verifyPropagationBudget);
    visit("--equiv-xl", e.equiv.exhaustiveLimitBits);
    visit("--equiv-rb", e.equiv.randomBatches);
    visit("--equiv-seed", e.equiv.seed);
    visit("--rss-budget-mb", e.shardRssMb);
    visit("--heartbeat-ms", e.shardHeartbeatMs);
    visit("--cache-file", e.cacheFile);
}

/// Parses one worker argv value into a field of the matching type.
bool parseValue(std::string_view, const std::string& text, std::string& out,
                std::string&) {
    out = text;
    return true;
}
bool parseValue(std::string_view flag, const std::string& text, int& out,
                std::string& error) {
    return util::parseMs(flag, text, out, error);
}
bool parseValue(std::string_view flag, const std::string& text, bool& out,
                std::string& error) {
    return util::parseVerifySwitch(flag, text, out, error);
}
template <std::unsigned_integral T>
bool parseValue(std::string_view flag, const std::string& text, T& out,
                std::string& error) {
    // Thread counts get the command line's cap, so no argv can make a
    // worker ask the OS for millions of threads.
    if (flag == "--jobs" || flag == "--probe-threads")
        return util::parseParallelism(flag, text, out, error);
    return util::parseCount(flag, text, out, error);
}

}  // namespace

std::vector<std::string> encodeWorkerArgs(std::uint32_t shardId,
                                          const EngineOptions& engine) {
    std::vector<std::string> args = {"--shard-id", std::to_string(shardId)};
    forEachWorkerField(engine, [&](const char* flag, const auto& value) {
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::string>) {
            if (value.empty()) return;  // the default; nothing to carry
            args.insert(args.end(), {flag, value});
        } else {
            args.insert(args.end(), {flag, std::to_string(value)});
        }
    });
    // Tracing is a coordinator-side decision: workers only buffer and
    // ship spans when told to, so an untraced run pays nothing.
    if (obs::enabled()) args.push_back("--obs");
    // Fault plans armed here (via --fault) are forwarded so workers arm
    // the same sites; $PD_FAULTS reaches them through the environment
    // on its own (the registry ignores a plan that is already armed).
    for (auto& plan : fault::armedPlans())
        args.insert(args.end(), {"--fault", std::move(plan)});
    return args;
}

std::optional<WorkerOptions> decodeWorkerArgs(std::span<const std::string> args,
                                              std::string& error) {
    WorkerOptions w;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        const auto value = [&]() -> const std::string* {
            if (i + 1 < args.size()) return &args[++i];
            error = "worker option " + flag + " expects a value";
            return nullptr;
        };
        bool known = false;
        bool ok = false;
        forEachWorkerField(w.engine, [&](const char* name, auto& field) {
            if (known || flag != name) return;
            known = true;
            const std::string* v = value();
            ok = v && parseValue(flag, *v, field, error);
        });
        if (flag == "--obs") {
            w.obs = true;
        } else if (flag == "--shard-id") {
            const std::string* v = value();
            if (!v || !util::parseCount(flag, *v, w.shardId, error))
                return std::nullopt;
        } else if (flag == "--fault") {
            const std::string* v = value();
            if (!v || !fault::armPlan(*v, &error)) return std::nullopt;
        } else if (!known) {
            error = "unknown worker option '" + flag + "'";
            return std::nullopt;
        } else if (!ok) {
            return std::nullopt;
        }
    }
    return w;
}

namespace {

/// Runs the worker loop over its frame channel until kShutdown or EOF.
/// Returns a process exit code.
int runWorker(const WorkerOptions& opt, int fd) {
    // Both directions share the inherited socket. stdout is re-pointed at
    // stderr, so a stray library print never interleaves with the
    // coordinator's own stdout.
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    log::setScopePrefix("w" + std::to_string(opt.shardId));
    if (opt.obs) obs::setEnabled(true);

    // A budget too large for rlim_t to hold in bytes means no budget:
    // shifting it would wrap to a tiny limit (2^44 MiB to zero).
    if (const std::size_t mb = opt.engine.shardRssMb;
        mb != 0 && mb <= (RLIM_INFINITY >> 20)) {
        rlimit lim{};
        lim.rlim_cur = lim.rlim_max = static_cast<rlim_t>(mb) << 20;
        ::setrlimit(RLIMIT_AS, &lim);  // best-effort; failure = no budget
    }

    // The argv's --jobs is this slot's share of the coordinator's: the
    // engine's job pool runs that many jobs at once, and a pool thread
    // with no job serves the probe lanes of the jobs beside it.
    EngineOptions eopt = opt.engine;
    // The store is warm-started read-only: the records a job adds travel
    // back inside its kResult, and only the coordinator writes the store.
    eopt.cacheReadonly = true;
    eopt.shards = 0;  // a worker never recursively shards
    Engine engine(eopt);

    // Every frame write — results, observability, heartbeats from the
    // pump's thread — serializes on this mutex so frames never interleave.
    std::mutex wireMu;
    const auto send = [&](FrameType type, std::string_view payload) {
        std::string out;
        appendFrame(out, type, payload);
        std::lock_guard<std::mutex> lock(wireMu);
        return writeAll(fd, out);
    };

    Hello hello;
    hello.shardId = opt.shardId;
    if (!send(FrameType::kHello, encodeHello(hello))) return 3;

    // The pump starts only after the hello: the coordinator's liveness
    // clock starts there, and warm-starting the engine above is covered
    // by the spawn state, not the deadline.
    HeartbeatPump pump(fd, wireMu, opt.shardId, opt.engine.shardHeartbeatMs);

    const char* crashJob = std::getenv(kCrashJobEnv);
    const char* hangJob = std::getenv(kHangJobEnv);
    const char* stallJob = std::getenv(kStallJobEnv);

    // Observability ships after every answer plus a shutdown catch-up.
    // Metric deltas ship in every run, against the previous shipment
    // — the coordinator accumulates, so re-sending totals would
    // double-count — and jobs answer on several threads, so shipments
    // take turns. Spans ship only under --obs, and only when no job is
    // running: drainSpans reads every thread's ring and is safe only at
    // a quiescent point. A job is counted running from before it is
    // submitted, under obsMu, so none starts emitting during a drain.
    std::mutex obsMu;
    obs::MetricsSnapshot lastShipped;
    std::size_t running = 0;  ///< jobs submitted and not yet answered
    const auto shipObs = [&](bool answered) {
        std::lock_guard<std::mutex> lock(obsMu);
        if (answered) --running;
        if (rusage ru{}; ::getrusage(RUSAGE_SELF, &ru) == 0)
            obs::gauge("worker.rss_mb").set(ru.ru_maxrss / 1024);
        ObsDelta d;
        if (opt.obs && running == 0) d.spans = obs::drainSpans();
        obs::MetricsSnapshot cur = obs::snapshotMetrics();
        d.metrics = obs::deltaMetrics(cur, lastShipped);
        lastShipped = std::move(cur);
        if (d.spans.empty() && d.metrics.counters.empty() &&
            d.metrics.gauges.empty() && d.metrics.histograms.empty())
            return true;
        return send(FrameType::kObs, encodeObsDelta(d));
    };

    // One received job, run as a task on the engine's pool. A failed
    // write means the coordinator is gone; the main loop sees EOF next.
    const auto runJob = [&](const TaggedJob& job) {
        // The answer carries the store records the job added, so a crash
        // can never separate a result from its records.
        const auto [result, records] = engine.runWireJob(job.spec);
        std::string out;
        appendFrame(out, FrameType::kResult,
                    encodeResult(job.tag, result, records));
        if (PD_FAULT("shard.wire.corrupt") && !out.empty())
            // Flip one payload bit: the coordinator's frame checksum must
            // reject the stream and take the worker-death path.
            out[out.size() / 2] ^= 0x01;
        {
            std::lock_guard<std::mutex> lock(wireMu);
            if (PD_FAULT("shard.wire.partial")) {
                // Crash mid-frame: ship half, then die. The coordinator
                // sees EOF inside a frame.
                writeAll(fd, std::string_view(out).substr(0, out.size() / 2));
                std::abort();
            }
            if (!writeAll(fd, out)) return;
        }
        shipObs(/*answered=*/true);
    };
    // The jobs submitted so far. A job must never see the engine destroyed
    // under it: the worker returns only when none is running, and leaves
    // at once otherwise — the coordinator is gone, or the stream is.
    std::vector<std::future<void>> jobs;
    const auto finished = [](const std::future<void>& j) {
        return j.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready;
    };
    const auto leave = [&](int code) {
        if (!std::all_of(jobs.begin(), jobs.end(), finished))
            std::_Exit(code);
        return code;
    };

    FrameDecoder decoder;
    char buf[1 << 16];
    for (;;) {
        std::optional<Frame> frame;
        try {
            frame = decoder.next();
        } catch (const std::exception&) {
            return leave(4);  // malformed stream: nothing sane left to do
        }
        if (!frame) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n < 0) {
                if (errno == EINTR) continue;
                return leave(4);
            }
            if (n == 0) return leave(0);  // coordinator closed the channel
            decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            continue;
        }
        switch (frame->type) {
            case FrameType::kJob: {
                TaggedJob job;
                try {
                    job = decodeJob(frame->payload);
                } catch (const std::exception&) {
                    return leave(4);  // malformed job: nothing sane left
                }
                const std::string& hookName = !job.spec.name.empty()
                                                  ? job.spec.name
                                                  : job.spec.benchmark;
                // Name-targeted lifecycle hooks (exact, test-oriented)
                // and counter-driven fault sites (chaos-oriented; hit
                // counts are per worker process) model the same two
                // failure modes: death and wedge.
                if (crashJob && hookName == crashJob) std::abort();
                if (PD_FAULT("shard.worker.crash")) std::abort();
                const bool hang = (hangJob && hookName == hangJob) ||
                                  PD_FAULT("shard.worker.hang");
                if ((stallJob && hookName == stallJob) ||
                    PD_FAULT("shard.sock.stall")) {
                    // Freeze the whole process — pump included — so
                    // only the coordinator's heartbeat deadline can
                    // reap us (SIGKILL works on stopped processes).
                    ::raise(SIGSTOP);
                }
                std::erase_if(jobs, finished);
                {
                    std::lock_guard<std::mutex> lock(obsMu);
                    ++running;
                }
                // noexcept: a job that cannot be answered (a result too
                // large to frame) kills the worker, and the coordinator's
                // death path retries it; it never goes unanswered.
                jobs.push_back(engine.submit(
                    [&runJob, job = std::move(job), hang]() noexcept {
                        // A hung job parks its pool thread until the
                        // coordinator's wall budget kills us. The pump
                        // keeps beating — a hung job is the wall
                        // budget's case, not liveness's — and the jobs
                        // beside it still run and answer.
                        if (hang)
                            for (;;)
                                std::this_thread::sleep_for(
                                    std::chrono::seconds(3600));
                        runJob(job);
                    }));
                break;
            }
            case FrameType::kShutdown: {
                if (PD_FAULT("shard.worker.drain.hang")) {
                    // Wedge during drain: never Bye. The coordinator's
                    // drain timeout must reap us.
                    for (;;)
                        std::this_thread::sleep_for(
                            std::chrono::seconds(3600));
                }
                // Every job has answered (the coordinator drains only
                // an idle slot); let their tasks finish shipping.
                for (auto& j : jobs) j.wait();
                if (!shipObs(/*answered=*/false)) return 3;
                send(FrameType::kBye, {});
                return 0;
            }
            default:
                return leave(4);  // coordinator-only frame on the socket
        }
    }
}

}  // namespace

int workerMain(std::span<const std::string> args) {
    std::string error;
    const auto opt = decodeWorkerArgs(args, error);
    if (!opt) {
        std::cerr << "worker: " << error << "\n";
        return 2;
    }
    // The coordinator hands every worker its end of a socketpair on
    // kWorkerChannelFd; anything else there is not a coordinator.
    struct stat st{};
    if (::fstat(kWorkerChannelFd, &st) != 0 || !S_ISSOCK(st.st_mode)) {
        std::cerr << "worker: fd " << kWorkerChannelFd
                  << " is not a socket; workers are spawned by "
                     "'pd_cli batch --shards N'\n";
        return 2;
    }
    return runWorker(*opt, kWorkerChannelFd);
}

}  // namespace pd::engine::shard
