#include "engine/shard/transport.hpp"

#include <arpa/inet.h>
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

}  // namespace

WorkerListener::WorkerListener(std::size_t slotId) : slotId_(slotId) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        fail("shard", std::string("socket() failed: ") + strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd, 1) != 0) {
        const std::string why = strerror(errno);
        ::close(fd);
        fail("shard", "cannot listen for shard worker " +
                          std::to_string(slotId) + ": " + why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        const std::string why = strerror(errno);
        ::close(fd);
        fail("shard", "getsockname() failed: " + why);
    }
    listenFd_ = fd;
    port_ = ntohs(bound.sin_port);
}

WorkerListener::~WorkerListener() { closeIf(listenFd_); }

std::vector<std::string> WorkerListener::workerArgs() const {
    return {"--connect", "127.0.0.1:" + std::to_string(port_)};
}

AcceptResult WorkerListener::accept(pid_t child) {
    AcceptResult r;
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
        // A child that died before dialing (exec failure, early abort)
        // must fail establishment now, not after the full connect
        // timeout.
        if (child > 0 && ::waitpid(child, nullptr, WNOHANG) == child) {
            r.childExited = true;
            r.error =
                "worker " + std::to_string(slotId_) + " exited before connecting";
            return r;
        }
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 50);
        if (ready < 0 && errno != EINTR) {
            r.error =
                std::string("poll() on the shard listener failed: ") +
                strerror(errno);
            return r;
        }
        if (ready > 0 && (pfd.revents & POLLIN)) {
            const int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
            if (fd >= 0) {
                // One connection per listener: close it now so the port
                // can never collect another dial.
                closeIf(listenFd_);
                r.fd = fd;
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
        const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

}  // namespace pd::engine::shard
