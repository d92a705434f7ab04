#include "engine/shard/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/fault/fault.hpp"
#include "util/log.hpp"
#include "util/shutdown.hpp"

namespace pd::engine::shard {
namespace {

using Clock = std::chrono::steady_clock;

/// Respawn backoff after a worker death: 10, 20, 40, ... ms, capped so
/// a persistent crash loop retires the slot in about a second instead
/// of fork-bombing the box. The streak resets on real progress (a
/// completed job), not on a successful exec — a worker that hellos and
/// then dies on its first job is still a crash loop.
constexpr int kRespawnBackoffBaseMs = 10;
constexpr int kRespawnBackoffCapMs = 1000;

/// The display-name rule execute() applies, replicated for jobs that die
/// before any worker could run them.
std::string jobDisplayName(const JobSpec& spec, std::size_t index) {
    if (!spec.name.empty()) return spec.name;
    if (spec.bench) return spec.bench->name;
    if (!spec.benchmark.empty()) return spec.benchmark;
    return "job" + std::to_string(index);
}

std::string describeExit(int status) {
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char* name = strsignal(sig);
        return "killed by signal " + std::to_string(sig) +
               (name ? std::string(" (") + name + ")" : "");
    }
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    return "ended with wait status " + std::to_string(status);
}

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

/// Scoped process-wide SIGPIPE suppression: writing to a crashed worker
/// must surface as EPIPE (handled as a worker death), not kill the
/// coordinator. Restored on scope exit.
class IgnoreSigpipe {
public:
    IgnoreSigpipe() {
        struct sigaction ign {};
        ign.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ign, &old_);
    }
    ~IgnoreSigpipe() { ::sigaction(SIGPIPE, &old_, nullptr); }

private:
    struct sigaction old_ {};
};

struct Slot {
    enum class State {
        kDown,      ///< no process (initial, or died and not yet respawned)
        kSpawning,  ///< forked, hello not yet received
        kIdle,      ///< hello'd / finished a job, ready for work
        kBusy,      ///< job in flight
        kDraining,  ///< shutdown sent, cache delta streaming back
        kDone,      ///< drained cleanly and reaped
        kRetired,   ///< crashed twice without accepting work; given up on
    };

    State state = State::kDown;
    pid_t pid = -1;
    int toChild = -1;
    int fromChild = -1;
    FrameDecoder decoder;
    bool inFlight = false;
    std::size_t job = 0;
    Clock::time_point jobStart{};
    bool budgetKilled = false;
    bool hbKilled = false;  ///< SIGKILLed for a missed heartbeat deadline
    bool byeSeen = false;
    bool everSpawned = false;
    bool everConnected = false;  ///< completed at least one establish()
    int idleCrashes = 0;  ///< consecutive deaths with no job in flight
    int deathStreak = 0;  ///< consecutive deaths since the last result
    Clock::time_point respawnAfter{};  ///< backoff gate for the next spawn
    /// Arrival time of the last bytes — frames, heartbeats, or even a
    /// partial frame — on this slot's stream. The liveness deadline
    /// keys on bytes, not complete frames, so a worker mid-way through
    /// a large kResult is never mistaken for a wedge.
    Clock::time_point lastByteAt{};
    /// Decoder-poison detail (which frame/offset tore), carried into
    /// the death verdict so the failed job's error names the damage.
    std::string wireError;

    [[nodiscard]] bool live() const {
        return state == State::kSpawning || state == State::kIdle ||
               state == State::kBusy || state == State::kDraining;
    }
};

}  // namespace

std::string resolveWorkerExe(const std::string& configured) {
    if (!configured.empty()) return configured;
    if (const char* env = std::getenv("PD_SHARD_WORKER_EXE"); env && *env)
        return env;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
    fail("shard", "cannot resolve a worker executable (set "
                  "EngineOptions::shardWorkerExe or $PD_SHARD_WORKER_EXE)");
}

std::vector<CacheDelta> mergeCacheDeltas(std::vector<CacheDelta> deltas) {
    // Later deltas win ties on the stamp: `deltas` arrives in drain
    // order, so "latest worker, then most-recently-used within the
    // worker" is the newest-LRU-wins rule the store merge promises.
    std::unordered_map<util::Digest128, std::size_t, util::Digest128Hash>
        byKey;
    std::vector<CacheDelta> merged;
    merged.reserve(deltas.size());
    for (auto& d : deltas) {
        const auto it = byKey.find(d.key);
        if (it == byKey.end()) {
            byKey.emplace(d.key, merged.size());
            merged.push_back(std::move(d));
        } else if (d.stamp >= merged[it->second].stamp) {
            merged[it->second] = std::move(d);
        }
    }
    return merged;
}

ShardCoordinator::ShardCoordinator(ShardConfig cfg) : cfg_(std::move(cfg)) {}

ShardOutcome ShardCoordinator::run(BatchScheduler& sched,
                                   const std::vector<JobSpec>& specs) {
    ShardOutcome outcome;
    const std::vector<std::size_t>& wireJobs = sched.wireJobs();
    if (wireJobs.empty()) return outcome;

    std::string exe;  // resolved at first spawn, inside the fail-soft scope
    const std::size_t slotCount =
        std::min(std::max<std::size_t>(cfg_.shards, 1), wireJobs.size());

    IgnoreSigpipe sigpipeGuard;

    std::deque<std::size_t> queue(wireJobs.begin(), wireJobs.end());
    std::unordered_map<std::size_t, std::size_t> avoidSlot;  // retried jobs
    std::unordered_map<std::size_t, int> attempts;
    std::size_t completed = 0;
    // Proofs are unique per miter digest, so de-duplication is first-in
    // wins: once any worker has shipped a digest, later copies (other
    // workers solving the same obligation from the shared warm store's
    // misses) add nothing.
    std::unordered_set<std::uint64_t> proofSeen;

    std::vector<Slot> slots(slotCount);
    Transport transport(cfg_.transport);

    const auto failJob = [&](std::size_t index, const std::string& why) {
        JobResult r;
        r.name = jobDisplayName(specs[index], index);
        r.ok = false;
        r.error = why;
        sched.complete(index, std::move(r));
        ++completed;
    };

    /// Books one failed spawn attempt (exec failure under pipes, or a
    /// failed channel establishment under sockets): counted apart from
    /// crashes, charged to no job's retry budget, backed off like any
    /// other death, retired after two idle failures.
    const auto bookSpawnFailure = [&](std::size_t slotId,
                                      const std::string& why) {
        Slot& s = slots[slotId];
        ++outcome.spawnFailures;
        static auto& cSpawnFail = obs::counter("shard.worker.spawn_failures");
        cSpawnFail.add();
        log::warn("shard",
                  "worker " + std::to_string(slotId) + " failed to spawn (" +
                      why + ")");
        ++s.deathStreak;
        const int backoffMs =
            std::min(kRespawnBackoffBaseMs << std::min(s.deathStreak - 1, 7),
                     kRespawnBackoffCapMs);
        s.respawnAfter = Clock::now() + std::chrono::milliseconds(backoffMs);
        if (s.inFlight) {  // can't normally happen pre-hello; be safe
            avoidSlot[s.job] = slotId;
            queue.push_front(s.job);
        } else if ((s.state == Slot::State::kSpawning ||
                    s.state == Slot::State::kIdle) &&
                   ++s.idleCrashes >= 2) {
            s.inFlight = false;
            s.state = Slot::State::kRetired;
            return;
        }
        s.inFlight = false;
        s.state = Slot::State::kDown;
    };

    const auto spawn = [&](std::size_t slotId) {
        if (exe.empty()) exe = resolveWorkerExe(cfg_.workerExe);
        Slot& s = slots[slotId];
        const auto channel = transport.open(slotId);

        std::vector<std::string> args = {
            exe,
            "worker",
            "--shard-id", std::to_string(slotId),
            "--cache-capacity", std::to_string(cfg_.cacheCapacity),
            "--budget", std::to_string(cfg_.conflictBudget),
            "--merge-budget", std::to_string(cfg_.mergeBudget),
            "--probe-threads", std::to_string(cfg_.probeThreads),
            "--verify-threads", std::to_string(cfg_.verifyThreads),
            "--verify-conflict-budget",
            std::to_string(cfg_.verifyConflictBudget),
            "--verify-prop-budget",
            std::to_string(cfg_.verifyPropagationBudget),
            "--equiv-xl", std::to_string(cfg_.equiv.exhaustiveLimitBits),
            "--equiv-rb", std::to_string(cfg_.equiv.randomBatches),
            "--equiv-seed", std::to_string(cfg_.equiv.seed),
        };
        // Transport argv (socket: --connect host:port; pipe: nothing)
        // and the liveness interval the worker must beat against.
        for (const auto& extra : channel->workerArgs()) args.push_back(extra);
        if (cfg_.heartbeatMs > 0) {
            args.push_back("--heartbeat-ms");
            args.push_back(std::to_string(cfg_.heartbeatMs));
        }
        if (!cfg_.cacheFile.empty()) {
            args.push_back("--cache-file");
            args.push_back(cfg_.cacheFile);
        }
        if (!cfg_.proofCacheFile.empty()) {
            args.push_back("--proof-cache-file");
            args.push_back(cfg_.proofCacheFile);
        }
        if (cfg_.rssBudgetMb != 0) {
            args.push_back("--rss-budget-mb");
            args.push_back(std::to_string(cfg_.rssBudgetMb));
        }
        // Tracing is a coordinator-side decision: workers only buffer and
        // ship spans when told to, so an untraced run pays nothing.
        if (obs::enabled()) args.push_back("--obs");
        // Fault plans armed here (via --fault) are forwarded so workers
        // arm the same sites; $PD_FAULTS reaches them through the
        // environment on its own.
        for (const auto& plan : fault::armedPlans()) {
            args.push_back("--fault");
            args.push_back(plan);
        }

        // Evaluated in the parent so the hit count is deterministic in
        // the coordinator process; the child acts it out as the exact
        // exit an execv failure would produce.
        const bool spawnFault = PD_FAULT("shard.worker.spawn");

        const pid_t pid = ::fork();
        if (pid < 0)
            fail("shard", "fork() failed spawning worker " +
                              std::to_string(slotId));  // channel dtor cleans
        if (pid == 0) {
            if (spawnFault) _exit(127);
            channel->childSetup();
            std::vector<char*> argv;
            argv.reserve(args.size() + 1);
            for (auto& a : args) argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(exe.c_str(), argv.data());
            _exit(127);  // exec failed; parent counts a spawn failure
        }
        // The slot owns a process from this instant: mark it kSpawning
        // *before* establishment so a failure there retires the slot on
        // the same two-strikes rule as a pipe worker's exit 127 (which
        // only surfaces later, through onDeath). Without this a socket
        // worker that dies pre-connect leaves the slot kDown, the retire
        // branch never fires, and a persistent spawn fault respawns
        // forever instead of collapsing the pool.
        s.state = Slot::State::kSpawning;
        // Channel establishment is where the transports diverge: pipes
        // are live the instant they exist, a socket must be dialed and
        // accepted under kConnectTimeoutMs. A failed establishment is a
        // spawn failure (the worker never joined the fleet), never a
        // crash — the same accounting split exit 127 gets.
        EstablishResult est = channel->establish(pid);
        if (!est.endpoints) {
            if (!est.childExited) {
                ::kill(pid, SIGKILL);
                int status = 0;
                ::waitpid(pid, &status, 0);
            }
            bookSpawnFailure(slotId, est.error);
            return;
        }
        s.pid = pid;
        s.toChild = est.endpoints->toChild;
        s.fromChild = est.endpoints->fromChild;
        s.decoder = FrameDecoder{};
        s.state = Slot::State::kSpawning;
        s.inFlight = false;
        s.budgetKilled = false;
        s.hbKilled = false;
        s.byeSeen = false;
        s.wireError.clear();
        s.lastByteAt = Clock::now();
        if (cfg_.transport == TransportKind::kSocket && s.everConnected)
            ++outcome.reconnects;
        s.everConnected = true;
        if (s.everSpawned) ++outcome.workerRespawns;
        s.everSpawned = true;
    };

    const auto closeSlot = [&](Slot& s) {
        // Over a socket both endpoints are the same fd: close it once.
        if (s.toChild >= 0) ::close(s.toChild);
        if (s.fromChild >= 0 && s.fromChild != s.toChild)
            ::close(s.fromChild);
        s.toChild = s.fromChild = -1;
        if (s.pid > 0) {
            int status = 0;
            ::waitpid(s.pid, &status, 0);
            s.pid = -1;
            return status;
        }
        return 0;
    };

    /// A worker's pipe hit EOF or became unwritable: reap it and decide
    /// what its death costs.
    const auto onDeath = [&](std::size_t slotId) {
        Slot& s = slots[slotId];
        const int status = closeSlot(s);
        if (s.byeSeen) {  // clean drain: the exit is the protocol working
            s.state = Slot::State::kDone;
            return;
        }

        // Exit 127 is the exec-failure sentinel: the worker binary never
        // ran, so this is a spawn failure, not a crash — counted apart
        // and charged to no job's retry budget.
        if (WIFEXITED(status) && WEXITSTATUS(status) == 127) {
            bookSpawnFailure(slotId, "exec failure, exit 127");
            return;
        }

        // Every unclean death backs off the slot's next spawn; the
        // streak only resets when the slot completes a job.
        ++s.deathStreak;
        const int backoffMs =
            std::min(kRespawnBackoffBaseMs
                         << std::min(s.deathStreak - 1, 7),
                     kRespawnBackoffCapMs);
        s.respawnAfter = Clock::now() + std::chrono::milliseconds(backoffMs);

        ++outcome.workerCrashes;
        static auto& cCrashes = obs::counter("shard.worker.crashes");
        cCrashes.add();
        std::string how;
        if (s.budgetKilled)
            how = "exceeded the per-job wall budget of " +
                  std::to_string(cfg_.wallMsPerJob) + " ms and was killed";
        else if (s.hbKilled)
            how = "missed the heartbeat deadline (silent past "
                  "--shard-heartbeat-ms " +
                  std::to_string(cfg_.heartbeatMs) + ") and was killed";
        else if (!s.wireError.empty())
            how = "poisoned its frame stream (" + s.wireError +
                  ") and was killed";
        else
            how = describeExit(status);
        log::warn("shard", "worker " + std::to_string(slotId) + " " + how);
        if (s.inFlight) {
            s.idleCrashes = 0;
            const std::size_t index = s.job;
            if (util::shutdownRequested()) {
                // The death is (or may as well be) the shutdown kill:
                // don't spend retries on a run that is winding down.
                failJob(index, std::string(util::kInterruptedError) +
                                   " while this job was in flight");
                ++outcome.interruptedJobs;
            } else {
                const std::size_t tries =
                    static_cast<std::size_t>(++attempts[index]);
                if (tries > cfg_.retries) {
                    std::string verdict;
                    if (cfg_.retries == 0)
                        verdict = "retries disabled by --shard-retries 0";
                    else if (cfg_.retries == 1)
                        verdict = "already retried once on another worker";
                    else
                        verdict = "already retried " +
                                  std::to_string(cfg_.retries) + " times";
                    failJob(index, "shard worker " + std::to_string(slotId) +
                                       " " + how + " running this job (" +
                                       verdict + ")");
                } else {
                    ++outcome.retries;
                    avoidSlot[index] = slotId;
                    queue.push_front(index);  // retry ahead of fresh work
                }
            }
        } else if (s.state == Slot::State::kSpawning ||
                   s.state == Slot::State::kIdle) {
            if (++s.idleCrashes >= 2) {
                s.state = Slot::State::kRetired;
                return;
            }
        }
        s.inFlight = false;
        s.state = Slot::State::kDown;
    };

    const auto sendFrame = [&](std::size_t slotId, FrameType type,
                               std::string_view payload) {
        std::string bytes;
        appendFrame(bytes, type, payload);
        static auto& txBytes = obs::counter("shard.wire.tx.bytes");
        static auto& txFrames = obs::counter("shard.wire.tx.frames");
        static auto& frameBytes = obs::histogram("shard.wire.frame.bytes");
        txBytes.add(bytes.size());
        txFrames.add();
        frameBytes.observe(bytes.size());
        if (!writeAll(slots[slotId].toChild, bytes)) onDeath(slotId);
    };

    /// Drains every decodable frame the slot has buffered.
    const auto onReadable = [&](std::size_t slotId) {
        Slot& s = slots[slotId];
        char buf[1 << 16];
        const ssize_t n = ::read(s.fromChild, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN) return;
            onDeath(slotId);
            return;
        }
        if (n == 0) {
            onDeath(slotId);
            return;
        }
        // Deterministic torn-connection fault (socket runs): drop the
        // worker as if the stream died mid-read.
        if (cfg_.transport == TransportKind::kSocket &&
            PD_FAULT("shard.sock.read")) {
            log::warn("shard", "worker " + std::to_string(slotId) +
                                   ": injected read fault "
                                   "(shard.sock.read); dropping the "
                                   "connection");
            if (s.pid > 0) ::kill(s.pid, SIGKILL);
            onDeath(slotId);
            return;
        }
        // Any bytes reset the liveness clock — a worker mid-way through
        // a large frame is alive, just not frame-complete yet.
        s.lastByteAt = Clock::now();
        s.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        static auto& rxBytes = obs::counter("shard.wire.rx.bytes");
        rxBytes.add(static_cast<std::uint64_t>(n));
        try {
            while (auto frame = s.decoder.next()) {
                static auto& rxFrames = obs::counter("shard.wire.rx.frames");
                static auto& frameBytes =
                    obs::histogram("shard.wire.frame.bytes");
                rxFrames.add();
                frameBytes.observe(frame->payload.size() + 13);
                switch (frame->type) {
                    case FrameType::kHello: {
                        const Hello h = decodeHello(frame->payload);
                        if (h.version != kProtocolVersion)
                            fail("shard",
                                 "worker speaks protocol version " +
                                     std::to_string(h.version));
                        if (s.state == Slot::State::kSpawning)
                            s.state = Slot::State::kIdle;
                        break;
                    }
                    case FrameType::kResult: {
                        auto [index, result] = decodeResult(frame->payload);
                        result.shard = static_cast<int>(slotId);
                        sched.complete(index, std::move(result));
                        ++completed;
                        s.inFlight = false;
                        s.idleCrashes = 0;
                        s.deathStreak = 0;  // real progress: clear backoff
                        if (s.state == Slot::State::kBusy)
                            s.state = Slot::State::kIdle;
                        break;
                    }
                    case FrameType::kCacheEntry:
                        outcome.deltas.push_back(
                            decodeCacheDelta(frame->payload));
                        break;
                    case FrameType::kProofEntry: {
                        const auto e = decodeProofEntry(frame->payload);
                        if (proofSeen.insert(e.digest).second)
                            outcome.proofDeltas.push_back(e);
                        break;
                    }
                    case FrameType::kIndexEntry:
                        outcome.indexDeltas.push_back(
                            decodeIndexDelta(frame->payload));
                        break;
                    case FrameType::kBye:
                        s.byeSeen = true;
                        break;
                    case FrameType::kHeartbeat: {
                        // Liveness only: decode validates the payload,
                        // arrival already reset the slot's byte clock.
                        (void)decodeHeartbeat(frame->payload);
                        static auto& cBeats = obs::counter("shard.heartbeats");
                        cBeats.add();
                        break;
                    }
                    case FrameType::kObs: {
                        // Fold the worker's shipment in right away: spans
                        // re-tagged onto the worker's pid track, metric
                        // deltas accumulated into the fleet registry.
                        ObsDelta d = decodeObsDelta(frame->payload);
                        for (auto& span : d.spans)
                            span.pid = static_cast<std::int32_t>(slotId) + 1;
                        obs::adoptSpans(std::move(d.spans));
                        obs::applyWorkerDelta(d.metrics,
                                              static_cast<int>(slotId));
                        break;
                    }
                    default:
                        fail("shard", "unexpected frame from worker");
                }
            }
        } catch (const std::exception& e) {
            // Malformed stream: the worker is not speaking the protocol.
            // Keep the decoder's damage report (frame ordinal + stream
            // offset), kill the worker, and take the ordinary death
            // path (retry/fail) — the failed job's error will name what
            // tore, not just that something did.
            ++outcome.wirePoisons;
            static auto& cPoisons = obs::counter("shard.wire.poisons");
            cPoisons.add();
            s.wireError = e.what();
            if (s.pid > 0) ::kill(s.pid, SIGKILL);
            onDeath(slotId);
        }
    };

    /// Heartbeat-deadline supervision: a slot whose stream has been
    /// completely silent past cfg_.heartbeatMs is declared dead and
    /// SIGKILLed; the EOF then takes the ordinary crash path (respawn,
    /// retry-elsewhere). kSpawning is exempt — warm-starting a large
    /// store can legitimately outlast a deadline, and pre-hello death
    /// is already covered by EOF (pipe) or the connect timeout
    /// (socket). Works identically over either transport: sockets have
    /// no waitpid signal to lose, pipes just gain a second tripwire.
    const auto superviseLiveness = [&] {
        if (cfg_.heartbeatMs <= 0) return;
        const auto now = Clock::now();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot& s = slots[i];
            if (s.state != Slot::State::kIdle &&
                s.state != Slot::State::kBusy &&
                s.state != Slot::State::kDraining)
                continue;
            if (s.hbKilled || s.budgetKilled) continue;
            const auto silentMs =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - s.lastByteAt)
                    .count();
            if (silentMs <= cfg_.heartbeatMs) continue;
            ++outcome.heartbeatMisses;
            static auto& cMisses = obs::counter("shard.heartbeat.misses");
            cMisses.add();
            s.hbKilled = true;
            log::warn("shard",
                      "worker " + std::to_string(i) + " silent for " +
                          std::to_string(silentMs) +
                          " ms (heartbeat deadline " +
                          std::to_string(cfg_.heartbeatMs) + " ms); killing");
            if (s.pid > 0) {
                ++outcome.deadlineKills;
                static auto& cKills = obs::counter("shard.heartbeat.kills");
                cKills.add();
                ::kill(s.pid, SIGKILL);
            }
        }
    };

    // ---- main loop: spawn → assign → poll → consume -----------------------
    // Coordinator-side resource failures (fork, pipe, poll, a worker-exe
    // that cannot be resolved at respawn) must not escape as exceptions:
    // the local lane is running concurrently against the same scheduler,
    // so run() converts them into failures on every job that has no
    // result yet and returns normally.
    bool shutdownSeen = false;
    Clock::time_point shutdownDeadline{};
    try {
    while (completed < wireJobs.size()) {
        // Cooperative shutdown: still-queued jobs are failed as
        // interrupted; in-flight jobs get one drain timeout's grace
        // before their workers are killed (handled below with the wall
        // budget), and the drain still collects cache deltas.
        if (util::shutdownRequested()) {
            if (!shutdownSeen) {
                shutdownSeen = true;
                shutdownDeadline =
                    Clock::now() +
                    std::chrono::milliseconds(cfg_.drainTimeoutMs);
                log::warn("shard",
                          "shutdown requested: abandoning queued jobs, "
                          "draining in-flight work");
            }
            while (!queue.empty()) {
                failJob(queue.front(),
                        std::string(util::kInterruptedError) +
                            " before this job ran");
                ++outcome.interruptedJobs;
                queue.pop_front();
            }
        }

        // Respawn dead slots while work remains queued, honoring each
        // slot's crash backoff.
        if (!queue.empty())
            for (std::size_t i = 0; i < slots.size(); ++i)
                if (slots[i].state == Slot::State::kDown &&
                    Clock::now() >= slots[i].respawnAfter)
                    spawn(i);

        // Pool collapse: every slot retired/finished with jobs still
        // queued — hand them back for in-process execution rather than
        // fail them or hang. Degraded throughput, full results.
        if (!queue.empty() &&
            std::none_of(slots.begin(), slots.end(), [](const Slot& s) {
                return s.live() || s.state == Slot::State::kDown;
            })) {
            static auto& cFallback = obs::counter("shard.fallback.jobs");
            log::warn("shard",
                      "worker pool collapsed; running " +
                          std::to_string(queue.size()) +
                          " remaining jobs in-process");
            while (!queue.empty()) {
                outcome.fallbackJobs.push_back(queue.front());
                cFallback.add();
                queue.pop_front();
                ++completed;
            }
            continue;
        }

        // Assignment: idle slots steal queued work. A retried job prefers
        // a different slot than the one it crashed; it falls back to the
        // crash slot only when no other slot is live.
        for (std::size_t i = 0; i < slots.size() && !queue.empty(); ++i) {
            Slot& s = slots[i];
            if (s.state != Slot::State::kIdle) continue;
            const bool othersLive = std::any_of(
                slots.begin(), slots.end(), [&](const Slot& o) {
                    return &o != &s &&
                           (o.live() || o.state == Slot::State::kDown);
                });
            auto pick = queue.end();
            for (auto it = queue.begin(); it != queue.end(); ++it) {
                const auto avoid = avoidSlot.find(*it);
                if (avoid != avoidSlot.end() && avoid->second == i &&
                    othersLive)
                    continue;
                pick = it;
                break;
            }
            if (pick == queue.end()) continue;
            const std::size_t index = *pick;
            queue.erase(pick);
            s.inFlight = true;
            s.job = index;
            s.jobStart = Clock::now();
            s.state = Slot::State::kBusy;
            sendFrame(i, FrameType::kJob, encodeJob(
                static_cast<std::uint32_t>(index), specs[index]));
        }

        if (completed >= wireJobs.size()) break;

        // Poll timeout: the nearest wall-budget deadline, else a guard
        // tick — short enough that a shutdown signal delivered to
        // another thread (whose EINTR we never see) is noticed promptly,
        // and never longer than half a heartbeat deadline so liveness
        // checks can't be starved by a quiet fleet.
        int timeoutMs = 250;
        if (cfg_.heartbeatMs > 0)
            timeoutMs = std::clamp(cfg_.heartbeatMs / 2 + 1, 1, timeoutMs);
        if (cfg_.wallMsPerJob > 0) {
            for (const Slot& s : slots) {
                if (s.state != Slot::State::kBusy) continue;
                const double elapsed =
                    std::chrono::duration<double, std::milli>(Clock::now() -
                                                              s.jobStart)
                        .count();
                // Clamp in double-space first: a huge configured budget
                // must not overflow the int cast.
                const double left =
                    std::clamp(cfg_.wallMsPerJob - elapsed, 0.0, 60000.0);
                timeoutMs = std::clamp(
                    static_cast<int>(left) + 1, 1, timeoutMs);
            }
        }

        std::vector<pollfd> fds;
        std::vector<std::size_t> fdSlot;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].live()) continue;
            fds.push_back({slots[i].fromChild, POLLIN, 0});
            fdSlot.push_back(i);
        }
        if (fds.empty()) {
            // Nothing to poll: every slot is down awaiting its respawn
            // backoff. Sleep a tick instead of spinning.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            continue;
        }
        const int ready = ::poll(fds.data(),
                                 static_cast<nfds_t>(fds.size()), timeoutMs);
        if (ready < 0 && errno != EINTR)
            fail("shard", std::string("poll() failed: ") + strerror(errno));
        for (std::size_t f = 0; f < fds.size(); ++f)
            if (fds[f].revents & (POLLIN | POLLHUP | POLLERR))
                onReadable(fdSlot[f]);

        // Heartbeat-deadline enforcement: a silent slot is killed like a
        // crash; the EOF arrives on the next poll.
        superviseLiveness();

        // Wall-budget enforcement: SIGKILL overrunning workers; the EOF
        // arrives on the next poll and takes the crash-retry path.
        if (cfg_.wallMsPerJob > 0) {
            for (Slot& s : slots) {
                if (s.state != Slot::State::kBusy || s.budgetKilled)
                    continue;
                const double elapsed =
                    std::chrono::duration<double, std::milli>(Clock::now() -
                                                              s.jobStart)
                        .count();
                if (elapsed > cfg_.wallMsPerJob && s.pid > 0) {
                    s.budgetKilled = true;
                    ::kill(s.pid, SIGKILL);
                }
            }
        }

        // Shutdown grace expired: kill still-busy workers; onDeath sees
        // the shutdown flag and fails their jobs as interrupted.
        if (shutdownSeen && Clock::now() >= shutdownDeadline)
            for (Slot& s : slots)
                if (s.state == Slot::State::kBusy && s.pid > 0)
                    ::kill(s.pid, SIGKILL);
    }

    // ---- drain: collect cache deltas, then reap every worker --------------
    const auto drainDeadline =
        Clock::now() + std::chrono::milliseconds(cfg_.drainTimeoutMs);
    for (;;) {
        bool anyLive = false;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot& s = slots[i];
            if (s.state == Slot::State::kIdle)
                sendFrame(i, FrameType::kShutdown, {});
            if (slots[i].state == Slot::State::kIdle)
                slots[i].state = Slot::State::kDraining;
            anyLive = anyLive || slots[i].live();
        }
        if (!anyLive) break;
        const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                                drainDeadline - Clock::now())
                                .count();
        if (leftMs <= 0) {
            // Stragglers forfeit their deltas; the batch result is
            // complete either way.
            for (Slot& s : slots)
                if (s.live()) {
                    if (s.pid > 0) ::kill(s.pid, SIGKILL);
                    closeSlot(s);
                    s.state = Slot::State::kDown;
                }
            break;
        }
        std::vector<pollfd> fds;
        std::vector<std::size_t> fdSlot;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].live()) continue;
            fds.push_back({slots[i].fromChild, POLLIN, 0});
            fdSlot.push_back(i);
        }
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                   static_cast<int>(std::min<long long>(leftMs, 1000)));
        if (ready < 0 && errno != EINTR)
            fail("shard", std::string("poll() failed: ") + strerror(errno));
        for (std::size_t f = 0; f < fds.size(); ++f)
            if (fds[f].revents & (POLLIN | POLLHUP | POLLERR))
                onReadable(fdSlot[f]);
        // A draining worker still beats (the pump stops only at exit),
        // so supervision here reaps a truly dead-silent straggler at
        // the heartbeat deadline instead of the full drain budget.
        superviseLiveness();
    }
    } catch (const std::exception& e) {
        // Coordinator-side failure (fork/pipe/poll/protocol): the fleet
        // is gone, but the jobs are pure computations — hand everything
        // unfinished back for in-process execution instead of failing.
        log::error("shard", std::string("coordinator failed (") + e.what() +
                                "); running unfinished jobs in-process");
        static auto& cFallback = obs::counter("shard.fallback.jobs");
        for (Slot& s : slots) {
            if (s.pid > 0) ::kill(s.pid, SIGKILL);
            closeSlot(s);
            const bool hadJob = s.inFlight;
            const std::size_t job = s.job;
            s.inFlight = false;
            s.state = Slot::State::kDown;
            if (hadJob) {
                outcome.fallbackJobs.push_back(job);
                cFallback.add();
            }
        }
        while (!queue.empty()) {
            outcome.fallbackJobs.push_back(queue.front());
            cFallback.add();
            queue.pop_front();
        }
    }

    outcome.deltas = mergeCacheDeltas(std::move(outcome.deltas));
    return outcome;
}

}  // namespace pd::engine::shard
