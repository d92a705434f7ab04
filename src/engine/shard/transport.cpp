#include "engine/shard/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/error.hpp"
#include "util/fault/fault.hpp"

namespace pd::engine::shard {
namespace {

using Clock = std::chrono::steady_clock;

void closeIf(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
}

/// The classic stdin/stdout pipe pair. establish() cannot fail: the
/// channel exists before the child does.
class PipeChannel final : public SpawnChannel {
public:
    explicit PipeChannel(std::size_t slotId) {
        if (::pipe(toChild_) != 0 || ::pipe(fromChild_) != 0) {
            closeIf(toChild_[0]);
            closeIf(toChild_[1]);
            fail("shard",
                 "pipe() failed spawning worker " + std::to_string(slotId));
        }
        // Parent-kept ends close on exec so later workers don't inherit
        // their siblings' pipes (an inherited write end would mask EOF
        // on a crashed sibling).
        ::fcntl(toChild_[1], F_SETFD, FD_CLOEXEC);
        ::fcntl(fromChild_[0], F_SETFD, FD_CLOEXEC);
    }

    ~PipeChannel() override {
        closeIf(toChild_[0]);
        closeIf(toChild_[1]);
        closeIf(fromChild_[0]);
        closeIf(fromChild_[1]);
    }

    [[nodiscard]] std::vector<std::string> workerArgs() const override {
        return {};
    }

    void childSetup() override {
        ::dup2(toChild_[0], STDIN_FILENO);
        ::dup2(fromChild_[1], STDOUT_FILENO);
        ::close(toChild_[0]);
        ::close(toChild_[1]);
        ::close(fromChild_[0]);
        ::close(fromChild_[1]);
    }

    [[nodiscard]] EstablishResult establish(pid_t) override {
        closeIf(toChild_[0]);
        closeIf(fromChild_[1]);
        EstablishResult r;
        r.endpoints = Endpoints{toChild_[1], fromChild_[0]};
        toChild_[1] = fromChild_[0] = -1;  // handed out; dtor must not close
        return r;
    }

private:
    int toChild_[2] = {-1, -1};
    int fromChild_[2] = {-1, -1};
};

/// Localhost SOCK_STREAM channel. Every spawn gets its own listener on
/// its own ephemeral port: only this channel's child knows the port, so
/// establish() can never accept a stale connection left behind by a
/// killed sibling (a shared listener would let backlogged strays pair
/// with the wrong slot and park the real worker forever). The listener
/// is CLOEXEC and closed right after the one accept; the child needs no
/// setup — it dials back via --connect.
class SocketChannel final : public SpawnChannel {
public:
    explicit SocketChannel(std::size_t slotId) : slotId_(slotId) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            fail("shard", std::string("socket() failed: ") + strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;  // ephemeral
        if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0 ||
            ::listen(fd, 1) != 0) {
            const std::string why = strerror(errno);
            ::close(fd);
            fail("shard", "cannot listen for shard worker " +
                              std::to_string(slotId) + ": " + why);
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) !=
            0) {
            const std::string why = strerror(errno);
            ::close(fd);
            fail("shard", "getsockname() failed: " + why);
        }
        listenFd_ = fd;
        port_ = ntohs(bound.sin_port);
    }

    ~SocketChannel() override { closeIf(listenFd_); }

    [[nodiscard]] std::vector<std::string> workerArgs() const override {
        return {"--connect", "127.0.0.1:" + std::to_string(port_)};
    }

    void childSetup() override {}

    [[nodiscard]] EstablishResult establish(pid_t child) override {
        EstablishResult r;
        // Deterministic accept-side fault: establishment fails before
        // touching the listener, exactly like a peer that never dialed.
        if (PD_FAULT("shard.sock.accept")) {
            r.error = "injected accept fault (shard.sock.accept) "
                      "establishing worker " +
                      std::to_string(slotId_);
            return r;
        }
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(kConnectTimeoutMs);
        for (;;) {
            // A child that died before dialing (exec failure, early
            // abort) must fail establishment now, not after the full
            // connect timeout.
            if (child > 0) {
                int status = 0;
                const pid_t reaped = ::waitpid(child, &status, WNOHANG);
                if (reaped == child) {
                    r.childExited = true;
                    r.childStatus = status;
                    r.error = "worker " + std::to_string(slotId_) +
                              " exited before connecting";
                    return r;
                }
            }
            pollfd pfd{listenFd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, 50);
            if (ready < 0 && errno != EINTR) {
                r.error = std::string("poll() on the shard listener "
                                      "failed: ") +
                          strerror(errno);
                return r;
            }
            if (ready > 0 && (pfd.revents & POLLIN)) {
                const int fd =
                    ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
                if (fd >= 0) {
                    // One connection per listener: close it now so the
                    // port can never collect another dial.
                    closeIf(listenFd_);
                    r.endpoints = Endpoints{fd, fd};
                    return r;
                }
                if (errno == EINTR || errno == ECONNABORTED) continue;
                r.error = std::string("accept() failed: ") + strerror(errno);
                return r;
            }
            if (Clock::now() >= deadline) {
                r.error = "worker " + std::to_string(slotId_) +
                          " did not connect within " +
                          std::to_string(kConnectTimeoutMs) + " ms";
                return r;
            }
        }
    }

private:
    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::size_t slotId_;
};

}  // namespace

const char* transportName(TransportKind kind) {
    return kind == TransportKind::kSocket ? "socket" : "pipe";
}

std::optional<TransportKind> parseTransportName(std::string_view name) {
    if (name == "pipe") return TransportKind::kPipe;
    if (name == "socket") return TransportKind::kSocket;
    return std::nullopt;
}

std::unique_ptr<SpawnChannel> openChannel(TransportKind kind,
                                          std::size_t slotId) {
    if (kind == TransportKind::kPipe)
        return std::make_unique<PipeChannel>(slotId);
    return std::make_unique<SocketChannel>(slotId);
}

int connectToCoordinator(const std::string& hostPort, int timeoutMs) {
    const auto colon = hostPort.rfind(':');
    if (colon == std::string::npos) return -1;
    const std::string host = hostPort.substr(0, colon);
    const unsigned long port =
        std::strtoul(hostPort.c_str() + colon + 1, nullptr, 10);
    if (port == 0 || port > 65535) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
    const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return -1;
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0)
            return fd;
        ::close(fd);
        // The listener exists before the fork, so refusal means the
        // coordinator is mid-teardown or the kernel dropped the backlog
        // slot; a short retry rides out the latter.
        if (Clock::now() >= deadline) return -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
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

}  // namespace pd::engine::shard
