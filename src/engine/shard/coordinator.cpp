#include "engine/shard/coordinator.hpp"

#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/shard/transport.hpp"
#include "engine/shard/worker.hpp"
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

double msSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// `ms` in its shortest exact form, as given on the command line: 1200
/// prints "1200" and 0.5 prints "0.5".
std::string formatMs(double ms) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, ms).ptr);
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

/// One job on a slot's wire.
struct InFlight {
    std::size_t job = 0;  ///< batch index, and the job's tag on the wire
    Clock::time_point start{};
    bool expired = false;  ///< overran the wall budget: the kill is its
};

struct Slot {
    enum class State {
        kDown,      ///< no process (initial, or died and not yet respawned)
        kSpawning,  ///< forked, hello not yet received
        kIdle,      ///< hello'd, no job in flight
        kBusy,      ///< jobs in flight, up to `depth`
        kDraining,  ///< shutdown sent, awaiting the final kObs and kBye
        kDone,      ///< drained cleanly and reaped
        kRetired,   ///< crashed twice without accepting work; given up on
    };

    State state = State::kDown;
    pid_t pid = -1;
    int fd = -1;  ///< the connected socket carrying both directions
    FrameDecoder decoder;
    std::size_t depth = 1;  ///< jobs kept in flight; the worker's --jobs
    std::vector<InFlight> inFlight;  ///< in send order
    /// Running an isolated retry: no other job joins it.
    bool isolated = false;
    bool budgetKilled = false;
    bool hbKilled = false;  ///< SIGKILLed for a missed heartbeat deadline
    bool byeSeen = false;
    bool everConnected = false;  ///< completed at least one accept()
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

std::vector<std::size_t> slotDepths(std::size_t jobs, std::size_t slots) {
    std::vector<std::size_t> depths(slots);
    for (std::size_t i = 0; i < slots; ++i)
        depths[i] = std::max<std::size_t>(
            1, jobs / slots + (i < jobs % slots ? 1 : 0));
    return depths;
}

std::string resolveWorkerExe(const std::string& configured) {
    if (!configured.empty()) return configured;
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
    fail("shard", "cannot resolve a worker executable (set "
                  "EngineOptions::shardWorkerExe)");
}

ShardOutcome coordinateShards(const EngineOptions& opt, BatchScheduler& sched,
                              const std::vector<JobSpec>& specs) {
    ShardOutcome outcome;
    BatchResilience& res = outcome.resilience;
    const std::vector<std::size_t>& wireJobs = sched.wireJobs();
    if (wireJobs.empty()) return outcome;

    std::string exe;  // resolved at first spawn, inside the fail-soft scope
    const std::size_t slotCount =
        std::min(std::max<std::size_t>(opt.shards, 1), wireJobs.size());

    std::deque<std::size_t> queue(wireJobs.begin(), wireJobs.end());
    std::unordered_map<std::size_t, std::size_t> avoidSlot;  // retried jobs
    std::unordered_map<std::size_t, int> attempts;
    /// Queued jobs owed an isolated retry: they were in flight beside
    /// others when their worker died of a cause no job could be named for.
    std::unordered_set<std::size_t> isolate;
    std::size_t completed = 0;

    std::vector<Slot> slots(slotCount);
    const std::vector<std::size_t> depths =
        slotDepths(opt.jobs, slotCount);
    for (std::size_t i = 0; i < slotCount; ++i) slots[i].depth = depths[i];

    const auto failJob = [&](std::size_t index, const std::string& why) {
        JobResult r;
        r.name = jobDisplayName(specs[index], index);
        r.ok = false;
        r.error = why;
        sched.complete(index, std::move(r));
        ++completed;
    };

    /// Books one failed spawn attempt (the worker never connected: exec
    /// failure, early exit, connect timeout, accept fault): counted apart
    /// from crashes, charged to no job's retry budget, backed off like
    /// any other death, retired after two idle failures.
    const auto bookSpawnFailure = [&](std::size_t slotId,
                                      const std::string& why) {
        Slot& s = slots[slotId];
        ++res.spawnFailures;
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
        if (!s.inFlight.empty()) {  // can't normally happen pre-hello
            for (auto f = s.inFlight.rbegin(); f != s.inFlight.rend(); ++f) {
                avoidSlot[f->job] = slotId;
                queue.push_front(f->job);
            }
        } else if ((s.state == Slot::State::kSpawning ||
                    s.state == Slot::State::kIdle) &&
                   ++s.idleCrashes >= 2) {
            s.state = Slot::State::kRetired;
            return;
        }
        s.inFlight.clear();
        s.isolated = false;
        s.state = Slot::State::kDown;
    };

    const auto spawn = [&](std::size_t slotId) {
        if (exe.empty()) exe = resolveWorkerExe(opt.shardWorkerExe);
        Slot& s = slots[slotId];
        WorkerListener listener(slotId);

        // The engine configuration travels through the worker argv codec,
        // with the slot's depth as the worker's --jobs; the listener adds
        // the address the worker dials back.
        EngineOptions workerOpt = opt;
        workerOpt.jobs = s.depth;
        std::vector<std::string> args = {exe, "worker"};
        for (auto& a :
             encodeWorkerArgs(static_cast<std::uint32_t>(slotId), workerOpt))
            args.push_back(std::move(a));
        for (auto& a : listener.workerArgs()) args.push_back(std::move(a));

        // Evaluated in the parent so the hit count is deterministic in
        // the coordinator process; the child acts it out as the exact
        // exit an execv failure would produce.
        const bool spawnFault = PD_FAULT("shard.worker.spawn");

        const pid_t pid = ::fork();
        if (pid < 0)
            fail("shard", "fork() failed spawning worker " +
                              std::to_string(slotId));  // listener dtor cleans
        if (pid == 0) {
            if (spawnFault) _exit(127);
            std::vector<char*> argv;
            argv.reserve(args.size() + 1);
            for (auto& a : args) argv.push_back(a.data());
            argv.push_back(nullptr);
            ::execv(exe.c_str(), argv.data());
            _exit(127);  // exec failed; the worker never connects
        }
        // The slot owns a process from this instant: mark it kSpawning
        // *before* accepting so a failure there retires the slot on the
        // two-strikes rule. Without this a worker that dies pre-connect
        // leaves the slot kDown, the retire branch never fires, and a
        // persistent spawn fault respawns forever instead of collapsing
        // the pool.
        s.state = Slot::State::kSpawning;
        // A worker that never connects within kConnectTimeoutMs — exec
        // failure, early exit, injected accept fault — never joined the
        // fleet: a spawn failure, never a crash.
        const AcceptResult conn = listener.accept(pid);
        if (conn.fd < 0) {
            if (!conn.childExited) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, nullptr, 0);
            }
            bookSpawnFailure(slotId, conn.error);
            return;
        }
        s.pid = pid;
        s.fd = conn.fd;
        s.decoder = FrameDecoder{};
        s.inFlight.clear();
        s.isolated = false;
        s.budgetKilled = false;
        s.hbKilled = false;
        s.byeSeen = false;
        s.wireError.clear();
        s.lastByteAt = Clock::now();
        if (s.everConnected) {
            ++res.reconnects;
            ++res.workerRespawns;
        }
        s.everConnected = true;
    };

    const auto closeSlot = [&](Slot& s) {
        if (s.fd >= 0) ::close(s.fd);
        s.fd = -1;
        if (s.pid > 0) {
            int status = 0;
            ::waitpid(s.pid, &status, 0);
            s.pid = -1;
            return status;
        }
        return 0;
    };

    /// A worker's connection hit EOF or became unwritable: reap it and
    /// decide what its death costs.
    const auto onDeath = [&](std::size_t slotId) {
        Slot& s = slots[slotId];
        const int status = closeSlot(s);
        if (s.byeSeen) {  // clean drain: the exit is the protocol working
            s.state = Slot::State::kDone;
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

        ++res.workerCrashes;
        static auto& cCrashes = obs::counter("shard.worker.crashes");
        cCrashes.add();
        std::string how;
        if (s.budgetKilled)
            how = "exceeded the per-job wall budget of " +
                  formatMs(opt.shardWallMsPerJob) + " ms and was killed";
        else if (s.hbKilled)
            how = "missed the heartbeat deadline (silent past "
                  "--shard-heartbeat-ms " +
                  std::to_string(opt.shardHeartbeatMs) + ") and was killed";
        else if (!s.wireError.empty())
            how = "poisoned its frame stream (" + s.wireError +
                  ") and was killed";
        else
            how = describeExit(status);
        log::warn("shard", "worker " + std::to_string(slotId) + " " + how);
        // Requeued in reverse so the front of the queue keeps send order,
        // ahead of fresh work.
        for (auto f = s.inFlight.rbegin(); f != s.inFlight.rend(); ++f) {
            const std::size_t index = f->job;
            if (util::shutdownRequested()) {
                // The death is (or may as well be) the shutdown kill:
                // don't spend retries on a run that is winding down.
                failJob(index, std::string(util::kInterruptedError) +
                                   " while this job was in flight");
                ++res.interruptedJobs;
                continue;
            }
            // Only the job that caused the death pays: the jobs whose
            // wall budget expired, or a job that was alone. Beside
            // others, a job's death names no cause, so it retries free
            // and alone, where a repeat is its own.
            if (s.budgetKilled ? !f->expired : s.inFlight.size() > 1) {
                ++res.retries;
                if (!s.budgetKilled) isolate.insert(index);
                queue.push_front(index);
                continue;
            }
            const std::size_t tries =
                static_cast<std::size_t>(++attempts[index]);
            if (tries > opt.shardRetries) {
                std::string verdict;
                if (opt.shardRetries == 0)
                    verdict = "retries disabled by --shard-retries 0";
                else if (opt.shardRetries == 1)
                    verdict = "already retried once on another worker";
                else
                    verdict = "already retried " +
                              std::to_string(opt.shardRetries) + " times";
                failJob(index, "shard worker " + std::to_string(slotId) +
                                   " " + how + " running this job (" +
                                   verdict + ")");
            } else {
                ++res.retries;
                avoidSlot[index] = slotId;
                queue.push_front(index);
            }
        }
        if (!s.inFlight.empty()) {
            s.idleCrashes = 0;
        } else if (s.state == Slot::State::kSpawning ||
                   s.state == Slot::State::kIdle) {
            if (++s.idleCrashes >= 2) {
                s.state = Slot::State::kRetired;
                return;
            }
        }
        s.inFlight.clear();
        s.isolated = false;
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
        if (!writeAll(slots[slotId].fd, bytes)) onDeath(slotId);
    };

    /// Drains every decodable frame the slot has buffered.
    const auto onReadable = [&](std::size_t slotId) {
        Slot& s = slots[slotId];
        char buf[1 << 16];
        const ssize_t n = ::read(s.fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN) return;
            onDeath(slotId);
            return;
        }
        if (n == 0) {
            onDeath(slotId);
            return;
        }
        // Deterministic torn-connection fault: drop the worker as if the
        // stream died mid-read.
        if (PD_FAULT("shard.sock.read")) {
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
                        // The tag must name a job in flight on this slot,
                        // so a worker can never complete a job it was not
                        // given, or one twice.
                        Answer a = decodeResult(frame->payload);
                        const auto f = std::find_if(
                            s.inFlight.begin(), s.inFlight.end(),
                            [&](const InFlight& j) { return j.job == a.tag; });
                        if (f == s.inFlight.end())
                            fail("shard", "worker answered job " +
                                              std::to_string(a.tag) +
                                              ", which is not in flight on "
                                              "its slot");
                        a.result.shard = static_cast<int>(slotId);
                        sched.complete(f->job, std::move(a.result));
                        outcome.records.push_back(std::move(a.records));
                        ++completed;
                        s.inFlight.erase(f);
                        s.idleCrashes = 0;
                        s.deathStreak = 0;  // real progress: clear backoff
                        if (s.inFlight.empty()) {
                            s.isolated = false;
                            if (s.state == Slot::State::kBusy)
                                s.state = Slot::State::kIdle;
                        }
                        break;
                    }
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
            ++res.wirePoisons;
            static auto& cPoisons = obs::counter("shard.wire.poisons");
            cPoisons.add();
            s.wireError = e.what();
            if (s.pid > 0) ::kill(s.pid, SIGKILL);
            onDeath(slotId);
        }
    };

    /// Heartbeat-deadline supervision: a slot whose stream has been
    /// completely silent past opt.shardHeartbeatMs is declared dead and
    /// SIGKILLed; the EOF then takes the ordinary crash path (respawn,
    /// retry-elsewhere). kSpawning is exempt — warm-starting a large
    /// store can legitimately outlast a deadline, and pre-hello death
    /// is already covered by EOF. The deadline needs no waitpid signal,
    /// so it holds for a peer that is not our child.
    const auto superviseLiveness = [&] {
        if (opt.shardHeartbeatMs <= 0) return;
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
            if (silentMs <= opt.shardHeartbeatMs) continue;
            ++res.heartbeatMisses;
            static auto& cMisses = obs::counter("shard.heartbeat.misses");
            cMisses.add();
            s.hbKilled = true;
            log::warn("shard",
                      "worker " + std::to_string(i) + " silent for " +
                          std::to_string(silentMs) +
                          " ms (heartbeat deadline " +
                          std::to_string(opt.shardHeartbeatMs) +
                          " ms); killing");
            if (s.pid > 0) {
                ++res.deadlineKills;
                static auto& cKills = obs::counter("shard.heartbeat.kills");
                cKills.add();
                ::kill(s.pid, SIGKILL);
            }
        }
    };

    // ---- main loop: spawn → assign → poll → consume -----------------------
    // Coordinator-side resource failures (fork, socket, poll, a worker-exe
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
        // budget), and their answers still bring their store records.
        if (util::shutdownRequested()) {
            if (!shutdownSeen) {
                shutdownSeen = true;
                shutdownDeadline =
                    Clock::now() +
                    std::chrono::milliseconds(opt.shardDrainMs);
                log::warn("shard",
                          "shutdown requested: abandoning queued jobs, "
                          "draining in-flight work");
            }
            while (!queue.empty()) {
                failJob(queue.front(),
                        std::string(util::kInterruptedError) +
                            " before this job ran");
                ++res.interruptedJobs;
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

        // Assignment: slots with room steal queued work, one job per slot
        // per pass, so the first jobs spread across the fleet. A retried
        // job prefers a different slot than the one it crashed; it falls
        // back to the crash slot only when no other slot is live. A job
        // owed an isolated retry goes only to a slot with nothing in
        // flight, which then takes nothing else until it answers.
        for (bool assigned = true; assigned && !queue.empty();) {
            assigned = false;
            for (std::size_t i = 0; i < slots.size() && !queue.empty(); ++i) {
                Slot& s = slots[i];
                if ((s.state != Slot::State::kIdle &&
                     s.state != Slot::State::kBusy) ||
                    s.isolated || s.inFlight.size() >= s.depth)
                    continue;
                const bool othersLive = std::any_of(
                    slots.begin(), slots.end(), [&](const Slot& o) {
                        return &o != &s &&
                               (o.live() || o.state == Slot::State::kDown);
                    });
                const auto pick = std::find_if(
                    queue.begin(), queue.end(), [&](std::size_t job) {
                        if (isolate.contains(job) && !s.inFlight.empty())
                            return false;
                        const auto avoid = avoidSlot.find(job);
                        return avoid == avoidSlot.end() ||
                               avoid->second != i || !othersLive;
                    });
                if (pick == queue.end()) continue;
                const std::size_t index = *pick;
                queue.erase(pick);
                s.isolated = isolate.erase(index) > 0;
                s.inFlight.push_back({index, Clock::now()});
                s.state = Slot::State::kBusy;
                assigned = true;
                // An unnamed job's display name depends on its batch
                // index, which only the coordinator knows: send it with
                // the spec.
                JobSpec spec = specs[index];
                spec.name = jobDisplayName(spec, index);
                sendFrame(i, FrameType::kJob,
                          encodeJob(static_cast<std::uint32_t>(index), spec));
            }
        }

        if (completed >= wireJobs.size()) break;

        // Poll timeout: the nearest wall-budget deadline, else a guard
        // tick — short enough that a shutdown signal delivered to
        // another thread (whose EINTR we never see) is noticed promptly,
        // and never longer than half a heartbeat deadline so liveness
        // checks can't be starved by a quiet fleet.
        int timeoutMs = 250;
        if (opt.shardHeartbeatMs > 0)
            timeoutMs = std::clamp(opt.shardHeartbeatMs / 2 + 1, 1, timeoutMs);
        if (opt.shardWallMsPerJob > 0) {
            for (const Slot& s : slots) {
                for (const InFlight& f : s.inFlight) {
                    // Clamp in double-space first: a huge configured
                    // budget must not overflow the int cast.
                    const double left =
                        std::clamp(opt.shardWallMsPerJob - msSince(f.start),
                                   0.0, 60000.0);
                    timeoutMs = std::clamp(static_cast<int>(left) + 1, 1,
                                           timeoutMs);
                }
            }
        }

        std::vector<pollfd> fds;
        std::vector<std::size_t> fdSlot;
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].live()) continue;
            fds.push_back({slots[i].fd, POLLIN, 0});
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

        // Wall-budget enforcement: SIGKILL the worker of an overrunning
        // job, which alone is charged; the EOF arrives on the next poll
        // and takes the crash-retry path.
        if (opt.shardWallMsPerJob > 0) {
            for (Slot& s : slots) {
                for (InFlight& f : s.inFlight) {
                    if (f.expired || s.pid <= 0 ||
                        msSince(f.start) <= opt.shardWallMsPerJob)
                        continue;
                    f.expired = true;
                    if (!std::exchange(s.budgetKilled, true))
                        ::kill(s.pid, SIGKILL);
                }
            }
        }

        // Shutdown grace expired: kill still-busy workers; onDeath sees
        // the shutdown flag and fails their jobs as interrupted.
        if (shutdownSeen && Clock::now() >= shutdownDeadline)
            for (Slot& s : slots)
                if (!s.inFlight.empty() && s.pid > 0)
                    ::kill(s.pid, SIGKILL);
    }

    // ---- drain: collect the final kObs and kBye, reap every worker --------
    const auto drainDeadline =
        Clock::now() + std::chrono::milliseconds(opt.shardDrainMs);
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
            // Stragglers forfeit their last observability shipment; the
            // batch result and its records are complete either way.
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
            fds.push_back({slots[i].fd, POLLIN, 0});
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
        // Coordinator-side failure (fork/socket/poll/protocol): the fleet
        // is gone, but the jobs are pure computations — hand everything
        // unfinished back for in-process execution instead of failing.
        log::error("shard", std::string("coordinator failed (") + e.what() +
                                "); running unfinished jobs in-process");
        static auto& cFallback = obs::counter("shard.fallback.jobs");
        for (Slot& s : slots) {
            if (s.pid > 0) ::kill(s.pid, SIGKILL);
            closeSlot(s);
            for (const InFlight& f : s.inFlight) {
                outcome.fallbackJobs.push_back(f.job);
                cFallback.add();
            }
            s.inFlight.clear();
            s.state = Slot::State::kDown;
        }
        while (!queue.empty()) {
            outcome.fallbackJobs.push_back(queue.front());
            cFallback.add();
            queue.pop_front();
        }
    }

    return outcome;
}

}  // namespace pd::engine::shard
