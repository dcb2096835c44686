// Readiness source behind TcpServer's event loop: a thin epoll wrapper.
//
// The loop registers fds with an interest mask (EPOLLIN/EPOLLOUT/
// EPOLLRDHUP bits) and a 64-bit tag, and consumes (tag, events) pairs.
// Delivery is level-triggered, so a connection whose input is not fully
// drained in one pass simply fires again on the next Wait.

#ifndef SIMCLOUD_NET_EPOLL_H_
#define SIMCLOUD_NET_EPOLL_H_

#include <sys/epoll.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace simcloud {
namespace net {

/// Not thread-safe: every method must be called from the loop thread
/// that owns the instance (TcpServer registers the listen/wake fds before
/// starting the loop, which is safe — the loop has not started yet).
class Epoll {
 public:
  static Result<std::unique_ptr<Epoll>> Create();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  /// Registers `fd` with interest `events`; `tag` comes back in
  /// epoll_event::data.u64.
  Status Add(int fd, uint64_t tag, uint32_t events);
  /// Replaces the interest mask of a registered fd.
  Status Modify(int fd, uint64_t tag, uint32_t events);
  /// Deregisters an fd (call before closing it). Stale events for it may
  /// still surface from the current batch; the caller's tag lookup makes
  /// them harmless.
  void Remove(int fd);

  /// Blocks until at least one event is ready; replaces `events` with
  /// the ready batch. An error here is loop-fatal.
  Status Wait(std::vector<epoll_event>* events);

 private:
  explicit Epoll(int fd) : fd_(fd) {}

  Status Ctl(int op, int fd, uint64_t tag, uint32_t events);

  const int fd_;
};

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_EPOLL_H_
