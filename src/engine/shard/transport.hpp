// Pluggable shard transport: how coordinator and worker exchange
// pd-shard-wire frames.
//
// The pipe transport is the fork/exec default — jobs arrive on the
// worker's stdin, frames leave on its stdout, exactly the wiring every
// version of the protocol has used. The socket transport carries the
// same frames over a SOCK_STREAM connection to a localhost listener
// (the stepping stone toward remote-host workers: the coordinator
// passes `--connect host:port` argv and stops relying on inherited
// descriptors entirely). Because a socket peer could be on another
// machine, nothing above this layer may assume waitpid-based death
// detection — liveness is supervised by protocol heartbeat deadlines
// (see coordinator.cpp), and this layer only distinguishes "channel
// established" from "establishment failed" so the coordinator can keep
// its spawn-vs-crash accounting split.
//
// Lifecycle per spawn attempt: openChannel() before fork (create pipes / a
// per-spawn listener), childSetup() between fork and exec (wire the
// child ends), establish() in the parent after fork (close child ends /
// accept the connection under a deadline). establish() never throws:
// failure — connect timeout, injected accept fault
// (`shard.sock.accept`), or the child dying before it connected — is
// reported in the result so the caller can book a spawn failure, not a
// crash.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pd::engine::shard {

enum class TransportKind {
    kPipe,    ///< stdin/stdout pipes from fork/exec (default)
    kSocket,  ///< SOCK_STREAM to a localhost listener (--connect argv)
};

/// "pipe" / "socket" — the names the CLI and the report use.
[[nodiscard]] const char* transportName(TransportKind kind);

/// Inverse of transportName(); nullopt for anything else.
[[nodiscard]] std::optional<TransportKind> parseTransportName(
    std::string_view name);

/// The frame channel a transport hands the coordinator once a worker is
/// connected. Over pipes these are two descriptors; over a socket both
/// are the same connected fd (the caller must not close it twice).
struct Endpoints {
    int toChild = -1;
    int fromChild = -1;
};

/// What one establish() attempt produced.
struct EstablishResult {
    /// Set on success; absent means establishment failed.
    std::optional<Endpoints> endpoints;
    /// The child exited and was reaped *during* establishment (its wait
    /// status is childStatus); the caller must not waitpid it again.
    bool childExited = false;
    int childStatus = 0;
    /// Human-readable failure detail when endpoints is absent.
    std::string error;
};

/// One spawn attempt's transport state. Created by openChannel() before
/// fork; the destructor releases anything establish() has not
/// handed out, so an abandoned attempt leaks no descriptors.
class SpawnChannel {
public:
    virtual ~SpawnChannel() = default;

    /// Extra worker argv this channel needs (socket: --connect
    /// host:port; pipe: none).
    [[nodiscard]] virtual std::vector<std::string> workerArgs() const = 0;

    /// Wires the child side. Called between fork and exec, so only
    /// async-signal-safe calls (dup2/close) are allowed.
    virtual void childSetup() = 0;

    /// Completes the channel in the parent. Blocks at most
    /// kConnectTimeoutMs (socket accept); pipes complete immediately.
    [[nodiscard]] virtual EstablishResult establish(pid_t child) = 0;
};

/// Pre-fork setup for one spawn attempt over `kind`. Every channel is
/// self-contained: the socket kind gives each spawn its own single-shot
/// listener (127.0.0.1, ephemeral port) so no spawn can ever accept a
/// stale connection left behind by a killed sibling. Throws pd::Error on
/// a coordinator-side resource failure (pipe/socket/bind/listen) — the
/// same fail-soft contract as fork() failing.
[[nodiscard]] std::unique_ptr<SpawnChannel> openChannel(TransportKind kind,
                                                        std::size_t slotId);

/// Worker-side connect with retry: dials `host:port` (numeric IPv4) and
/// returns the connected CLOEXEC fd, or -1 after timeoutMs of refusals.
[[nodiscard]] int connectToCoordinator(const std::string& hostPort,
                                       int timeoutMs);

/// write()s all of `bytes` to `fd`, riding out EINTR and short writes.
/// False when the peer is gone — either side of the channel then treats
/// the other as dead.
bool writeAll(int fd, std::string_view bytes);

/// How long establish()/connectToCoordinator() wait before declaring a
/// connection attempt failed. Establishment failures take the spawn-
/// failure path (capped-backoff respawn), so the deadline bounds stall,
/// not correctness.
inline constexpr int kConnectTimeoutMs = 10000;

}  // namespace pd::engine::shard
