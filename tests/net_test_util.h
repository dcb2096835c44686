// Shared raw-socket helpers for transport-facing tests: connecting to a
// TcpServer beneath the Transport abstraction and unwrapping response
// bodies, so wire-format changes are fixed in one place.

#ifndef SIMCLOUD_TESTS_NET_TEST_UTIL_H_
#define SIMCLOUD_TESTS_NET_TEST_UTIL_H_

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/serialize.h"

namespace simcloud {
namespace net {

/// Connects a plain blocking socket to 127.0.0.1:`port`.
inline int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

/// True when the server closed its side of `fd` within ~5 seconds.
inline bool WaitForSocketClose(int fd) {
  Stopwatch watch;
  uint8_t sink[256];
  while (watch.ElapsedSeconds() < 5.0) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
    if (n == 0) return true;  // clean close
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    if (n < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// Splits a response body (u64 server nanos, bool ok, payload / error)
/// into its payload; fails the test on a remote error.
inline Bytes ResponsePayloadOf(const Bytes& body) {
  BinaryReader reader(body);
  auto nanos = reader.ReadU64();
  EXPECT_TRUE(nanos.ok());
  auto ok = reader.ReadBool();
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  return Bytes(body.begin() + reader.position(), body.end());
}

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_TESTS_NET_TEST_UTIL_H_
