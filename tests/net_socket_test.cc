// Listen-backlog sizing: ListenBacklog follows the admission cap up to
// the kernel's somaxconn, and a listener sized for N connections takes
// a burst of N simultaneous connects without dropping a SYN (a dropped
// SYN stalls its connect for the ~1 s retransmit).

#include "net/socket.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <vector>

namespace gmine::net {
namespace {

size_t KernelCap() {
  std::ifstream in("/proc/sys/net/core/somaxconn");
  long cap = 0;
  if (in >> cap && cap > 0) return static_cast<size_t>(cap);
  return SOMAXCONN;
}

TEST(NetSocketTest, ListenBacklogFollowsTheCapClampedToSomaxconn) {
  const size_t cap = KernelCap();
  EXPECT_EQ(ListenBacklog(0), 1);
  EXPECT_EQ(ListenBacklog(1), 1);
  EXPECT_EQ(static_cast<size_t>(ListenBacklog(8)), std::min<size_t>(8, cap));
  EXPECT_EQ(static_cast<size_t>(ListenBacklog(256)),
            std::min<size_t>(256, cap));
  EXPECT_EQ(static_cast<size_t>(ListenBacklog(cap)), cap);
  EXPECT_EQ(static_cast<size_t>(ListenBacklog(cap + 1)), cap);
  EXPECT_EQ(static_cast<size_t>(ListenBacklog(size_t{1} << 40)), cap);
}

TEST(NetSocketTest, ConnectBurstFitsASizedBacklog) {
  // Nothing accepts until the whole burst has connected, so every
  // connection must sit in the accept queue at once. Non-blocking
  // connects keep a regression fast: a dropped SYN shows up as a
  // connect still pending at the deadline, not as a stalled test.
  const size_t burst = std::min<size_t>(200, KernelCap());
  uint16_t port = 0;
  auto listener = ListenTcp(0, ListenBacklog(burst), &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::vector<Socket> clients;
  std::vector<struct pollfd> pending;
  for (size_t i = 0; i < burst; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0);
    clients.emplace_back(fd);
    const int rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                             sizeof(addr));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS) << std::strerror(errno);
    if (rc != 0) pending.push_back({fd, POLLOUT, 0});
  }
  // Every pending connect completes well inside the 1 s SYN retransmit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(900);
  while (!pending.empty()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    ASSERT_GT(left.count(), 0) << pending.size() << " connects pending";
    ASSERT_GE(::poll(pending.data(), pending.size(),
                     static_cast<int>(left.count())),
              0);
    std::vector<struct pollfd> still;
    for (const struct pollfd& p : pending) {
      if (p.revents == 0) {
        still.push_back({p.fd, POLLOUT, 0});
        continue;
      }
      int err = 0;
      socklen_t len = sizeof(err);
      ASSERT_EQ(::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &err, &len), 0);
      EXPECT_EQ(err, 0) << std::strerror(err);
    }
    pending.swap(still);
  }
  size_t accepted = 0;
  while (accepted < burst) {
    auto readable = listener.value().WaitReadable(1000);
    ASSERT_TRUE(readable.ok());
    ASSERT_TRUE(readable.value()) << "accepted " << accepted;
    if (AcceptConnection(listener.value()).ok()) ++accepted;
  }
  EXPECT_EQ(accepted, burst);
}

}  // namespace
}  // namespace gmine::net
