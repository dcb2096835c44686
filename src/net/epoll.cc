#include "net/epoll.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace simcloud {
namespace net {

namespace {

constexpr int kMaxEventsPerWait = 128;

}  // namespace

Result<std::unique_ptr<Epoll>> Epoll::Create() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) {
    return Status::NetworkError(std::string("epoll_create1 failed: ") +
                                std::strerror(errno));
  }
  return std::unique_ptr<Epoll>(new Epoll(fd));
}

Epoll::~Epoll() { ::close(fd_); }

Status Epoll::Add(int fd, uint64_t tag, uint32_t events) {
  return Ctl(EPOLL_CTL_ADD, fd, tag, events);
}

Status Epoll::Modify(int fd, uint64_t tag, uint32_t events) {
  return Ctl(EPOLL_CTL_MOD, fd, tag, events);
}

void Epoll::Remove(int fd) { ::epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

Status Epoll::Wait(std::vector<epoll_event>* events) {
  events->resize(kMaxEventsPerWait);
  for (;;) {
    const int n = ::epoll_wait(fd_, events->data(), kMaxEventsPerWait, -1);
    if (n >= 0) {
      events->resize(static_cast<size_t>(n));
      return Status::OK();
    }
    if (errno != EINTR) {
      return Status::NetworkError(std::string("epoll_wait failed: ") +
                                  std::strerror(errno));
    }
  }
}

Status Epoll::Ctl(int op, int fd, uint64_t tag, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(fd_, op, fd, &ev) < 0) {
    return Status::NetworkError(std::string("epoll_ctl failed: ") +
                                std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace net
}  // namespace simcloud
