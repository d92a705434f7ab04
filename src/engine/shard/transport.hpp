// Shard transport: how coordinator and worker exchange pd-shard-wire
// frames.
//
// Every worker dials back over one localhost SOCK_STREAM connection: the
// coordinator opens a per-spawn listener before the fork, passes its
// address as `--connect host:port` worker argv, and accepts the one
// connection under kConnectTimeoutMs. Nothing is inherited across exec,
// so the same argv would reach a worker on another host. Because a
// socket peer need not be a child, nothing above this layer relies on
// waitpid-based death detection — liveness is supervised by protocol
// heartbeat deadlines (see coordinator.cpp), and this layer only
// distinguishes "connection established" from "establishment failed" so
// the coordinator can keep its spawn-vs-crash accounting split.
//
// Lifecycle per spawn attempt: construct a WorkerListener before fork,
// put its workerArgs() on the worker's argv, then accept() in the parent
// after fork. accept() never throws: failure — connect timeout, injected
// accept fault (`shard.sock.accept`), or the child dying before it
// connected — is reported in the result so the caller can book a spawn
// failure, not a crash.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pd::engine::shard {

/// What one accept() attempt produced.
struct AcceptResult {
    /// The connected CLOEXEC fd; -1 means establishment failed.
    int fd = -1;
    /// The child exited and was reaped *during* establishment; the
    /// caller must not waitpid it again.
    bool childExited = false;
    /// Human-readable failure detail when fd is -1.
    std::string error;
};

/// One spawn attempt's single-shot listener on 127.0.0.1 and its own
/// ephemeral port: only this attempt's child knows the port, so accept()
/// can never pair with a stale connection left behind by a killed
/// sibling. The destructor closes the listener if accept() has not.
class WorkerListener {
public:
    /// Binds and listens. Throws pd::Error on a coordinator-side
    /// resource failure (socket/bind/listen) — the same fail-soft
    /// contract as fork() failing.
    explicit WorkerListener(std::size_t slotId);
    ~WorkerListener();
    WorkerListener(const WorkerListener&) = delete;
    WorkerListener& operator=(const WorkerListener&) = delete;

    /// The worker argv that dials this listener: --connect host:port.
    [[nodiscard]] std::vector<std::string> workerArgs() const;

    /// Accepts the worker's connection, waiting at most
    /// kConnectTimeoutMs; fails early if `child` exits first.
    [[nodiscard]] AcceptResult accept(pid_t child);

private:
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::size_t slotId_;
};

/// Worker-side connect with retry: dials `host:port` (numeric IPv4) and
/// returns the connected CLOEXEC fd, or -1 after timeoutMs of refusals.
[[nodiscard]] int connectToCoordinator(const std::string& hostPort,
                                       int timeoutMs);

/// send()s all of `bytes` to the connected socket `fd`, riding out EINTR
/// and short writes. MSG_NOSIGNAL turns a vanished peer into a false
/// return instead of SIGPIPE; either side then treats the other as dead.
bool writeAll(int fd, std::string_view bytes);

/// How long accept()/connectToCoordinator() wait before declaring a
/// connection attempt failed. Establishment failures take the spawn-
/// failure path (capped-backoff respawn), so the deadline bounds stall,
/// not correctness.
inline constexpr int kConnectTimeoutMs = 10000;

}  // namespace pd::engine::shard
