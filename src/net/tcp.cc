#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/clock.h"
#include "common/log.h"
#include "common/serialize.h"
#include "crypto/cpu_features.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace net {

namespace {

// Registry cells the server hot paths record into. Function-local
// statics: registered once, then a plain pointer deref.
obs::Gauge* ConnectionsGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Default().GetGauge("simcloud_net_connections");
  return gauge;
}

obs::Counter* ReadPausesCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_net_read_pauses_total");
  return counter;
}

obs::Gauge* PeakOutputQueueGauge() {
  static obs::Gauge* const gauge = obs::Registry::Default().GetGauge(
      "simcloud_net_output_queue_peak_bytes");
  return gauge;
}

obs::Histogram* ServerHandshakeHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Default().GetHistogram(
          "simcloud_secure_handshake_nanos{side=\"server\"}");
  return histogram;
}

// Epoll tags of the two non-connection fds; connection generations
// start at 2.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

// Bytes appended to a connection's input buffer per loop iteration; the
// level-triggered loop re-fires while more input is pending, so one slow
// reader cannot monopolize the event thread.
constexpr size_t kReadChunk = 256 * 1024;
constexpr size_t kMaxReadPerEvent = 4 * 1024 * 1024;

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("send failed: ") +
                                  std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, data + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("recv failed: ") +
                                  std::strerror(errno));
    }
    if (n == 0) return Status::NetworkError("peer closed connection");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void StoreLE32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

constexpr size_t kFrameHeaderBytes = 8;

Result<Bytes> EncodeFrame(uint32_t request_id, const Bytes& payload) {
  if (payload.size() > kMaxFrameLength) {
    return Status::InvalidArgument("frame body of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the 31-bit frame limit");
  }
  // One contiguous buffer so a frame usually leaves in a single send.
  Bytes frame(kFrameHeaderBytes + payload.size());
  StoreLE32(static_cast<uint32_t>(payload.size()) | kFrameIdFlag,
            frame.data());
  StoreLE32(request_id, frame.data() + 4);
  // An empty payload's data() may be null, which memcpy must not see.
  if (!payload.empty()) {
    std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  return frame;
}

/// Checks a frame's first header word: returns its body length, or an
/// error for a bit-31-clear header (the retired id-less framing) or a
/// body over `max_len`.
Result<uint32_t> FrameBodyLength(const uint8_t* header, size_t max_len) {
  const uint32_t raw = LoadLE32(header);
  if ((raw & kFrameIdFlag) == 0) {
    return Status::NetworkError("frame header without the request-id bit");
  }
  const uint32_t len = raw & ~kFrameIdFlag;
  if (len > max_len) {
    return Status::NetworkError("frame length " + std::to_string(len) +
                                " exceeds limit");
  }
  return len;
}

/// Reads a frame's request id; 0 is a protocol violation.
Result<uint32_t> FrameRequestId(const uint8_t* header) {
  const uint32_t id = LoadLE32(header + 4);
  if (id == 0) return Status::NetworkError("frame with request id 0");
  return id;
}

/// Tries to parse one frame from buf[*off..]; advances `*off` and fills
/// `*out` when a complete frame is available. Returns false when more
/// bytes are needed, an error on protocol violations (reported as soon
/// as the offending header word has arrived).
Result<bool> TryParseFrame(const Bytes& buf, size_t* off, size_t max_len,
                           DecodedFrame* out) {
  const size_t avail = buf.size() - *off;
  if (avail < 4) return false;
  const uint8_t* p = buf.data() + *off;
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t len, FrameBodyLength(p, max_len));
  if (avail < kFrameHeaderBytes) return false;
  SIMCLOUD_ASSIGN_OR_RETURN(out->request_id, FrameRequestId(p));
  if (avail < kFrameHeaderBytes + len) return false;
  out->payload.assign(p + kFrameHeaderBytes, p + kFrameHeaderBytes + len);
  *off += kFrameHeaderBytes + len;
  return true;
}

/// Starts a response frame: header space reserved (PatchFrameHeader fills
/// it once the body is complete), then the server time and ok flag, so
/// the body is written exactly once, in place.
BinaryWriter StartResponseFrame(uint64_t server_nanos, bool ok,
                                size_t payload_bytes) {
  BinaryWriter frame;
  frame.Reserve(kFrameHeaderBytes + 9 + payload_bytes);
  frame.WriteU64(0);  // header placeholder
  frame.WriteU64(server_nanos);
  frame.WriteBool(ok);
  return frame;
}

/// Writes the length and `id` into a frame's reserved header; false when
/// the body exceeds the 31-bit frame limit.
bool PatchFrameHeader(Bytes* frame, uint32_t id) {
  const size_t body = frame->size() - kFrameHeaderBytes;
  if (body > kMaxFrameLength) return false;
  StoreLE32(static_cast<uint32_t>(body) | kFrameIdFlag, frame->data());
  StoreLE32(id, frame->data() + 4);
  return true;
}

/// Drops the consumed prefix of a parse buffer (amortized: only when
/// fully drained or the dead prefix is large).
void CompactBuffer(Bytes* buf, size_t* off) {
  if (*off == buf->size()) {
    buf->clear();
    *off = 0;
  } else if (*off > (1u << 20)) {
    buf->erase(buf->begin(), buf->begin() + static_cast<ptrdiff_t>(*off));
    *off = 0;
  }
}

Status SetNonBlocking(int fd) {
  // The engine only ever toggles to nonblocking, so O_NONBLOCK via
  // fcntl-free SOCK_NONBLOCK covers accepted fds; this covers listen.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::NetworkError(std::string("fcntl failed: ") +
                                std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WritePipelinedFrame(int fd, uint32_t request_id, const Bytes& payload) {
  if (request_id == 0) {
    return Status::InvalidArgument("frames need a nonzero request id");
  }
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes frame, EncodeFrame(request_id, payload));
  return WriteAll(fd, frame.data(), frame.size());
}

Result<DecodedFrame> ReadAnyFrame(int fd, size_t max_len) {
  uint8_t header[kFrameHeaderBytes];
  SIMCLOUD_RETURN_NOT_OK(ReadAll(fd, header, 4));
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t len, FrameBodyLength(header, max_len));
  SIMCLOUD_RETURN_NOT_OK(ReadAll(fd, header + 4, 4));
  DecodedFrame frame;
  SIMCLOUD_ASSIGN_OR_RETURN(frame.request_id, FrameRequestId(header));
  frame.payload.resize(len);
  SIMCLOUD_RETURN_NOT_OK(ReadAll(fd, frame.payload.data(), len));
  return frame;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(uint16_t port) {
  if (started_) {
    return Status::FailedPrecondition("TcpServer cannot be restarted");
  }
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  options_.max_frame_bytes =
      std::min<size_t>(options_.max_frame_bytes, kMaxFrameLength);
  if (options_.channel_policy == ChannelPolicy::kSecure) {
    if (options_.secure_channel.psk.size() < 16) {
      return Status::InvalidArgument(
          "secure channel policy needs a PSK of >= 16 bytes");
    }
    // A record carries at most one max-size frame from our clients, but
    // foreign stacks may pack differently; admit any record whose
    // plaintext could fit a legal frame.
    options_.secure_channel.max_record_bytes =
        options_.max_frame_bytes + 8 + SecureChannel::kSealOverhead;
  }

  // On any setup failure every fd opened so far is closed: a failed
  // Start leaves no bound port or leaked descriptor behind.
  auto fail = [this](const std::string& what) {
    Status status =
        Status::NetworkError(what + " failed: " + std::strerror(errno));
    epoll_.reset();
    for (int* fd : {&listen_fd_, &wake_fd_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    return status;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 1024) < 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_).ok()) return fail("fcntl");

  Result<std::unique_ptr<Epoll>> epoll = Epoll::Create();
  if (!epoll.ok()) return fail("epoll_create1");
  epoll_ = std::move(*epoll);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");
  if (!epoll_->Add(listen_fd_, kListenTag, EPOLLIN).ok()) {
    return fail("register(listen)");
  }
  if (!epoll_->Add(wake_fd_, kWakeTag, EPOLLIN).ok()) {
    return fail("register(wake)");
  }
  SIMCLOUD_LOG(kInfo) << obs::RuntimeBanner(
      "TcpServer",
      "127.0.0.1:" + std::to_string(port_) + " io_engine=" +
          io_engine_name() + " policy=" +
          (options_.channel_policy == ChannelPolicy::kSecure ? "secure"
                                                             : "plaintext"));

  started_ = true;
  running_.store(true);
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back(&TcpServer::WorkerLoop, this);
  }
  loop_thread_ = std::thread(&TcpServer::EventLoop, this);
  return Status::OK();
}

// Push sink handed to handlers (change streams). Thread-safe; valid for
// the life of the handler-side subscription, which may outlive both the
// connection and the server's run — hence everything flows through the
// shared_ptr'd ConnShared, never a bare Connection*. While `open` is
// observed true under ConnShared::mutex the server object is guaranteed
// alive: the loop thread flips it in CloseConnection under the same
// mutex, and every connection is closed before Stop() finishes joining
// the loop.
class TcpServer::ConnPushSink : public PushSink {
 public:
  ConnPushSink(std::shared_ptr<ConnShared> shared, uint32_t id)
      : shared_(std::move(shared)), id_(id) {}

  Status TryPush(const Bytes& payload) override {
    // Framed exactly like a response (u64 server_nanos — zero, no handler
    // ran — ok flag, payload) so the client parses pushes and responses
    // with one decoder, and secure connections seal them like any
    // response burst.
    BinaryWriter writer = StartResponseFrame(0, true, payload.size());
    writer.WriteRaw(payload.data(), payload.size());
    Bytes frame = writer.TakeBuffer();
    if (!PatchFrameHeader(&frame, id_)) {
      return Status::InvalidArgument("push exceeds the 31-bit frame limit");
    }

    std::lock_guard<std::mutex> open_lock(shared_->mutex);
    if (!shared_->open) {
      return Status::NetworkError("push on a closed connection");
    }
    TcpServer* server = shared_->server;
    // Backpressure: pushes count against the connection's bounded output
    // queue from enqueue time (queued bytes the loop knows about plus
    // pushes it has not drained yet). A never-reading watcher parks here
    // at the bound; other connections are untouched.
    const size_t queued = shared_->queued_out_bytes.load() +
                          shared_->pending_push_bytes.load();
    if (queued >= server->options_.max_output_queue_bytes) {
      return Status::FailedPrecondition(
          "connection output queue at max_output_queue_bytes");
    }
    shared_->pending_push_bytes.fetch_add(frame.size());
    {
      std::lock_guard<std::mutex> done_lock(server->done_mutex_);
      if (server->done_closed_) {
        shared_->pending_push_bytes.fetch_sub(frame.size());
        return Status::NetworkError("server stopped");
      }
      Completion completion;
      completion.gen = shared_->gen;
      completion.push = true;
      completion.frame = std::move(frame);
      server->done_queue_.push_back(std::move(completion));
      // Wake while still holding done_mutex_: Stop() sets done_closed_
      // under the same mutex before closing the wake fd, so this write
      // can never hit a closed (or recycled) descriptor.
      server->WakeLoop();
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<ConnShared> shared_;
  const uint32_t id_;
};

class TcpServer::ConnStreamContext : public StreamContext {
 public:
  ConnStreamContext(std::shared_ptr<ConnShared> shared, uint32_t id,
                    uint64_t gen, obs::TraceSpan* span)
      : shared_(std::move(shared)), id_(id), gen_(gen), span_(span) {}
  std::shared_ptr<PushSink> MakeSink() override {
    return std::make_shared<ConnPushSink>(shared_, id_);
  }
  uint64_t connection_id() const override { return gen_; }
  obs::TraceSpan* trace() const override { return span_; }

 private:
  std::shared_ptr<ConnShared> shared_;
  const uint32_t id_;
  const uint64_t gen_;
  obs::TraceSpan* const span_;
};

void TcpServer::Stop() {
  if (!started_) return;
  if (running_.exchange(false)) WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    // After this flag no push sink touches the wake fd (see ConnPushSink);
    // only then is closing it safe against fd recycling.
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_closed_ = true;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  epoll_.reset();
}

void TcpServer::WakeLoop() {
  // Coalesced: one eventfd write per burst. If the flag is already set
  // the loop has a wake-up it has not consumed yet — it will clear the
  // flag BEFORE draining the completion queue, so anything pushed
  // before this exchange is picked up by that drain.
  if (wake_pending_.exchange(true)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpServer::EventLoop() {
  std::vector<epoll_event> events;
  while (running_.load()) {
    const Status wait_status = epoll_->Wait(&events);
    if (!wait_status.ok()) {
      SIMCLOUD_LOG(kWarn) << "event wait failed: " << wait_status.message();
      break;
    }
    for (size_t i = 0; i < events.size() && running_.load(); ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNewConnections();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        wake_pending_.store(false);  // before the drain — see WakeLoop
        DrainCompletions();
        continue;
      }
      // A completion earlier in this batch may have closed the
      // connection; the generation lookup makes stale events harmless.
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushOutput(conn)) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0 &&
          !ReadFromConnection(conn)) {
        CloseConnection(conn);
        continue;
      }
      UpdateConnection(conn);
    }
  }
  // Teardown: drop every connection; workers may still be finishing
  // handler calls — their completions land in done_queue_ and are never
  // delivered, which is fine, nothing references the dead connections.
  // The wake fd and the epoll fd stay open until Stop() has joined the
  // workers: a worker's WakeLoop() after a close here could hit a
  // recycled fd number.
  std::vector<Connection*> open;
  open.reserve(connections_.size());
  for (auto& [gen, conn] : connections_) open.push_back(conn.get());
  for (Connection* conn : open) CloseConnection(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::AcceptNewConnections() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK && running_.load()) {
        SIMCLOUD_LOG(kWarn) << "accept failed: " << std::strerror(errno);
        // The pending connection was not consumed (EMFILE & co.), so the
        // level-triggered listen fd would re-fire immediately; back off
        // briefly instead of spinning the loop at 100% CPU.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = next_gen_++;
    conn->shared = std::make_shared<ConnShared>();
    conn->shared->server = this;
    conn->shared->gen = conn->gen;
    if (options_.channel_policy == ChannelPolicy::kSecure) {
      conn->handshake =
          std::make_unique<ServerHandshake>(options_.secure_channel);
      if (obs::MetricsEnabled()) conn->accept_nanos = obs::MonotonicNanos();
    }
    conn->interest = EPOLLIN | EPOLLRDHUP;
    const Status add_status = epoll_->Add(fd, conn->gen, conn->interest);
    if (!add_status.ok()) {
      SIMCLOUD_LOG(kWarn) << "epoll add failed: " << add_status.message();
      ::close(fd);
      continue;
    }
    connections_.emplace(conn->gen, std::move(conn));
    active_connections_.fetch_add(1);
    ConnectionsGauge()->Add(1);
  }
}

bool TcpServer::ReadFromConnection(Connection* conn) {
  // One loop-owned scratch buffer: receiving there and appending only
  // the bytes actually read avoids zero-initializing a fresh vector
  // tail on every recv (a pure memset tax for small frames).
  static thread_local std::vector<uint8_t> scratch(kReadChunk);
  // Secure connections receive raw handshake/record bytes; DecryptIncoming
  // moves their plaintext into `in` before the frame parser runs.
  Bytes& sink =
      options_.channel_policy == ChannelPolicy::kSecure ? conn->raw : conn->in;
  size_t read_this_event = 0;
  while (read_this_event < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn->fd, scratch.data(), scratch.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (n == 0) {
      conn->read_eof = true;
      return true;
    }
    sink.insert(sink.end(), scratch.data(), scratch.data() + n);
    read_this_event += static_cast<size_t>(n);
    if (static_cast<size_t>(n) < scratch.size()) return true;
  }
  return true;  // level-triggered epoll re-fires for the rest
}

bool TcpServer::DecryptIncoming(Connection* conn) {
  if (!conn->handshake && !conn->channel) return true;  // plaintext wire
  if (conn->handshake) {
    Bytes reply;
    Result<size_t> advanced = conn->handshake->Consume(
        conn->raw.data() + conn->raw_off, conn->raw.size() - conn->raw_off,
        &reply);
    if (!advanced.ok()) {
      // Downgrade attempt (plaintext client), wrong PSK, or a
      // malformed handshake: hard-close without answering.
      SIMCLOUD_LOG(kWarn) << "secure handshake rejected: "
                          << advanced.status().message();
      return false;
    }
    conn->raw_off += *advanced;
    if (!reply.empty()) {
      conn->out_bytes += reply.size();
      conn->out.push_back(std::move(reply));
    }
    if (conn->handshake->done()) {
      conn->channel = conn->handshake->TakeChannel();
      conn->handshake.reset();
      handshakes_completed_.fetch_add(1);
      if (conn->accept_nanos != 0) {
        ServerHandshakeHistogram()->Record(obs::MonotonicNanos() -
                                           conn->accept_nanos);
      }
    }
  }
  if (conn->channel) {
    size_t consumed = 0;
    Status opened = conn->channel->Ingest(
        conn->raw.data() + conn->raw_off, conn->raw.size() - conn->raw_off,
        &consumed, &conn->in);
    conn->raw_off += consumed;
    if (!opened.ok()) return false;  // tampered/replayed record: close
  }
  CompactBuffer(&conn->raw, &conn->raw_off);
  return true;
}

bool TcpServer::ParseFrames(Connection* conn) {
  while (conn->in_flight < options_.max_in_flight &&
         conn->out_bytes < options_.max_output_queue_bytes) {
    DecodedFrame frame;
    Result<bool> parsed = TryParseFrame(conn->in, &conn->in_off,
                                        options_.max_frame_bytes, &frame);
    if (!parsed.ok()) return false;  // protocol violation
    if (!*parsed) break;             // frame still arriving

    WorkItem item;
    item.gen = conn->gen;
    item.id = frame.request_id;
    item.shared = conn->shared;
    item.body = std::move(frame.payload);
    if (obs::TracingActive()) item.enqueue_nanos = obs::MonotonicNanos();
    conn->in_flight++;
    frames_dispatched_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_queue_.push_back(std::move(item));
    }
    work_cv_.notify_one();
  }
  CompactBuffer(&conn->in, &conn->in_off);
  return true;
}

bool TcpServer::FlushOutput(Connection* conn) {
  while (!conn->out.empty()) {
    // Gather queued frames so a burst of pipelined responses leaves in
    // one syscall (sendmsg rather than writev for MSG_NOSIGNAL).
    constexpr int kMaxIov = 16;
    iovec iov[kMaxIov];
    int iov_count = 0;
    size_t offset = conn->out_off;
    for (auto it = conn->out.begin();
         it != conn->out.end() && iov_count < kMaxIov; ++it) {
      iov[iov_count].iov_base = const_cast<uint8_t*>(it->data() + offset);
      iov[iov_count].iov_len = it->size() - offset;
      offset = 0;
      ++iov_count;
    }
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn->fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn->out_bytes -= static_cast<size_t>(n);
    size_t written = static_cast<size_t>(n);
    while (written > 0) {
      const size_t front_left = conn->out.front().size() - conn->out_off;
      if (written >= front_left) {
        written -= front_left;
        conn->out.pop_front();
        conn->out_off = 0;
      } else {
        conn->out_off += written;
        written = 0;
      }
    }
  }
  return true;
}

bool TcpServer::UpdateConnection(Connection* conn) {
  // Parse and flush to a fixed point: flushing can free output-queue
  // budget that ParseFrames was blocked on, and the socket — already
  // read empty — would never deliver another event to retry, stranding
  // complete frames in the input buffer. Terminates because within this
  // loop out_bytes only shrinks (completions arrive via the loop
  // thread, not here) and the buffered frames are finite.
  for (;;) {
    const uint64_t dispatched_before =
        frames_dispatched_.load(std::memory_order_relaxed);
    if (!DecryptIncoming(conn)) {
      CloseConnection(conn);
      return false;
    }
    if (!ParseFrames(conn)) {
      CloseConnection(conn);
      return false;
    }
    const bool was_over_bound =
        conn->out_bytes >= options_.max_output_queue_bytes;
    if (!FlushOutput(conn)) {
      CloseConnection(conn);
      return false;
    }
    const bool parsed = frames_dispatched_.load(std::memory_order_relaxed) !=
                        dispatched_before;
    const bool freed_budget =
        was_over_bound &&
        conn->out_bytes < options_.max_output_queue_bytes;
    if (!parsed && !freed_budget) break;
  }
  conn->shared->queued_out_bytes.store(conn->out_bytes);
  const bool drained = conn->out.empty() && conn->in_flight == 0;
  if (conn->read_eof && drained) {
    // Peer finished sending and every accepted request is answered; any
    // torn trailing bytes are simply dropped with the connection.
    CloseConnection(conn);
    return false;
  }
  // After EOF the socket would report EPOLLRDHUP forever; progress now
  // comes from worker completions, so stop listening for read events.
  uint32_t want =
      conn->read_eof ? 0u : static_cast<uint32_t>(EPOLLRDHUP);
  const bool backpressured =
      conn->in_flight >= options_.max_in_flight ||
      conn->out_bytes >= options_.max_output_queue_bytes;
  if (!conn->read_eof && !backpressured) {
    want |= EPOLLIN;
  }
  if (!conn->out.empty()) want |= EPOLLOUT;
  if (want != conn->interest) {
    if ((conn->interest & EPOLLIN) != 0 && (want & EPOLLIN) == 0 &&
        backpressured) {
      reads_paused_.fetch_add(1);
      ReadPausesCounter()->Add(1);
    }
    if (!epoll_->Modify(conn->fd, conn->gen, want).ok()) {
      CloseConnection(conn);
      return false;
    }
    conn->interest = want;
  }
  return true;
}

void TcpServer::CloseConnection(Connection* conn) {
  {
    // Under the shared mutex: a sink mid-TryPush either completed its
    // enqueue before this (frame dropped with the connection) or sees
    // the closed flag. After this block no sink references the server.
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    conn->shared->open = false;
  }
  epoll_->Remove(conn->fd);
  ::close(conn->fd);
  active_connections_.fetch_sub(1);
  ConnectionsGauge()->Add(-1);
  // Eager per-connection state reap (open cursors, watches). On the loop
  // thread, so handlers must keep the hook non-blocking.
  handler_->OnConnectionClosed(conn->gen);
  connections_.erase(conn->gen);  // frees conn
}

void TcpServer::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done.swap(done_queue_);
  }
  // Queue every completed response first, then flush each touched
  // connection once: a burst of pipelined completions leaves in one
  // send instead of one per response.
  std::vector<uint64_t> touched;
  auto note_peak = [this](const Connection* conn) {
    uint64_t peak = peak_output_queue_bytes_.load();
    while (conn->out_bytes > peak &&
           !peak_output_queue_bytes_.compare_exchange_weak(peak,
                                                           conn->out_bytes)) {
    }
    PeakOutputQueueGauge()->Set(
        static_cast<int64_t>(peak_output_queue_bytes_.load()));
  };
  // Secure connections: a burst of responses for one connection is
  // gathered into one buffer and sealed as a record stream (the record
  // layer carries bytes, not frames), so the per-record AEAD cost is
  // paid per 64 KiB of burst, not per response. `pending_seal`
  // coalesces per connection within this drain; a lone response is
  // moved in, not copied.
  std::unordered_map<uint64_t, Bytes> pending_seal;
  for (Completion& completion : done) {
    auto it = connections_.find(completion.gen);
    if (it == connections_.end()) continue;  // connection closed meanwhile
    Connection* conn = it->second.get();
    if (completion.push) {
      // A push answers no dispatched request: in_flight is untouched and
      // the bytes move from the sink's pending count into the output
      // queue proper (mirrored below via UpdateConnection).
      conn->shared->pending_push_bytes.fetch_sub(completion.frame.size());
    } else {
      conn->in_flight--;
    }
    touched.push_back(completion.gen);
    if (conn->channel) {
      Bytes& batch = pending_seal[completion.gen];
      if (batch.empty()) {
        batch = std::move(completion.frame);
      } else {
        batch.insert(batch.end(), completion.frame.begin(),
                     completion.frame.end());
      }
      continue;
    }
    conn->out_bytes += completion.frame.size();
    note_peak(conn);
    conn->out.push_back(std::move(completion.frame));
  }
  for (auto& [gen, batch] : pending_seal) {
    auto it = connections_.find(gen);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    // Sealing on the loop thread keeps the record sequence identical to
    // the queue order (the channel is loop-owned, like `out`). Each
    // 64 KiB slice is sealed straight from the burst buffer and put on
    // the socket before the next is sealed, so the client opens record k
    // while record k+1 is sealed here — a big response flows as a
    // pipeline instead of waiting for its whole seal, and no receiver
    // buffers more than one record before it can start opening.
    bool send_failed = false;
    Status sealed = conn->channel->SealRecords(
        batch.data(), batch.size(), [&](Bytes record) -> Status {
          conn->out_bytes += record.size();
          note_peak(conn);
          conn->out.push_back(std::move(record));
          if (FlushOutput(conn)) return Status::OK();
          send_failed = true;
          return Status::NetworkError("send failed");
        });
    if (!sealed.ok()) {
      if (!send_failed) {
        SIMCLOUD_LOG(kWarn) << "sealing a response burst failed: "
                            << sealed.message();
      }
      CloseConnection(conn);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (uint64_t gen : touched) {
    auto it = connections_.find(gen);
    if (it != connections_.end()) UpdateConnection(it->second.get());
  }
}

void TcpServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock,
                    [this] { return workers_stop_ || !work_queue_.empty(); });
      if (workers_stop_) return;  // queued work is dropped on Stop
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }

    // Tracing is free when off: enqueue_nanos is only stamped while
    // TracingActive(), and without it no span work (or clock read beyond
    // the pre-existing Stopwatch) happens on this path.
    const bool traced = item.enqueue_nanos != 0 && obs::TracingActive();
    obs::TraceSpan span;
    if (traced) {
      span.AddStageNanos(obs::Stage::kQueueWait,
                         obs::MonotonicNanos() - item.enqueue_nanos);
      if (!item.body.empty()) span.set_opcode(item.body[0]);
    }

    Stopwatch watch;
    Result<Bytes> response = [&]() -> Result<Bytes> {
      ConnStreamContext stream(item.shared, item.id, item.gen,
                               traced ? &span : nullptr);
      obs::TraceSpan::Scope scope(traced ? &span : nullptr);
      return handler_->HandleStream(item.body, &stream);
    }();
    const int64_t server_nanos = watch.ElapsedNanos();

    const uint64_t seal_start = traced ? obs::MonotonicNanos() : 0;
    Completion completion;
    completion.gen = item.gen;
    {
      const size_t payload_bytes = response.ok() ? response->size() : 0;
      BinaryWriter writer = StartResponseFrame(
          static_cast<uint64_t>(server_nanos), response.ok(), payload_bytes);
      if (response.ok()) {
        writer.WriteRaw(response->data(), response->size());
      } else {
        writer.WriteString(response.status().ToString());
      }
      completion.frame = writer.TakeBuffer();
    }
    if (!PatchFrameHeader(&completion.frame, item.id)) {
      BinaryWriter error =
          StartResponseFrame(static_cast<uint64_t>(server_nanos), false, 0);
      error.WriteString("response exceeds the 31-bit frame limit");
      completion.frame = error.TakeBuffer();
      PatchFrameHeader(&completion.frame, item.id);
    }

    if (traced) {
      // Worker-side framing cost; the secure policy's per-burst Seal on
      // the loop thread is not attributable per-request and is excluded
      // (a documented approximation of the seal/send stage).
      span.AddStageNanos(obs::Stage::kSealSend,
                         obs::MonotonicNanos() - seal_start);
      obs::FinishRequestSpan(span, static_cast<uint64_t>(server_nanos),
                             kFrameHeaderBytes + item.body.size(),
                             completion.frame.size());
    }

    frames_completed_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_queue_.push_back(std::move(completion));
    }
    WakeLoop();
  }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const std::string& host, uint16_t port, ChannelPolicy policy,
    const SecureChannelOptions& secure) {
  // Every failure names the endpoint: a multi-endpoint caller (the
  // sharded facade, the topology monitor) must be able to tell WHICH
  // peer refused from the Status alone.
  const std::string peer = host + ":" + std::to_string(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::NetworkError("socket for " + peer + " failed: " +
                                std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("invalid IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::NetworkError("connect to " + peer + " failed: " +
                                std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::unique_ptr<TcpTransport>(new TcpTransport(fd, peer));
  if (policy == ChannelPolicy::kSecure) {
    Result<std::unique_ptr<SecureChannel>> channel =
        RunClientHandshake(fd, secure);
    if (!channel.ok()) {  // dtor closes fd
      if (channel.status().code() == StatusCode::kNetworkError) {
        return Status::NetworkError("secure handshake with " + peer +
                                    " failed: " + channel.status().message());
      }
      return channel.status();  // e.g. PermissionDenied: wrong PSK
    }
    transport->channel_ = std::move(*channel);
  }
  return transport;
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::MarkBroken(const Status& reason) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (broken_.ok()) broken_ = reason;
  }
  // Wake the elected reader too: a collector parked inside recv() would
  // otherwise survive a write-side failure until its own I/O noticed
  // (possibly never, on a quiet stream). shutdown() is orderly — queued
  // bytes still flush, then FIN — and makes every blocked or future
  // socket op return immediately.
  ::shutdown(fd_, SHUT_RDWR);
  state_cv_.notify_all();
}

void TcpTransport::Abort(const Status& reason) {
  MarkBroken(reason.ok() ? Status::NetworkError("transport aborted")
                         : reason);
}

Status TcpTransport::stream_status() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return broken_;
}

void TcpTransport::ResetCosts() {
  std::lock_guard<std::mutex> lock(costs_mutex_);
  costs_.Clear();
}

uint64_t TcpTransport::stray_frames_dropped() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stray_frames_;
}

Result<uint32_t> TcpTransport::SubmitFrame(const Bytes& request, bool stream) {
  uint32_t id;
  {
    // Registered BEFORE the frame is written: a response (or a push)
    // racing the registration would otherwise read as a stray.
    std::lock_guard<std::mutex> lock(state_mutex_);
    SIMCLOUD_RETURN_NOT_OK(broken_);
    id = next_id_;
    if (next_id_ == 0xFFFFFFFFu) {
      next_id_ = 1;
      ids_wrapped_ = true;
    } else {
      ++next_id_;
    }
    outstanding_.insert(id);
    if (stream) streaming_.insert(id);
  }
  Status written = [&]() -> Status {
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes frame, EncodeFrame(id, request));
    // Whole-frame writes are serialized so concurrent submitters can
    // never interleave bytes inside each other's frames (and, on a
    // secure channel, so records leave in sealing order).
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!channel_) return WriteAll(fd_, frame.data(), frame.size());
    // A large request leaves record by record: each 64 KiB record is on
    // the wire (and being opened by the server) while the next is sealed.
    return channel_->SealRecords(
        frame.data(), frame.size(), [this](Bytes record) {
          return WriteAll(fd_, record.data(), record.size());
        });
  }();
  if (!written.ok()) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      outstanding_.erase(id);
      streaming_.erase(id);
      stream_ready_.erase(id);
    }
    // A failed write is a dead stream: fail every parked collector now
    // (including one blocked in recv() as the elected reader) instead of
    // leaving them to discover it from their own I/O.
    MarkBroken(written);
    return written;
  }
  std::lock_guard<std::mutex> lock(costs_mutex_);
  costs_.calls++;
  costs_.bytes_sent += request.size();
  return id;
}

namespace {

/// Blocks until `fd` is readable or `deadline` passes (null = forever).
Status WaitReadable(int fd, const std::chrono::steady_clock::time_point* deadline) {
  if (deadline == nullptr) return Status::OK();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= *deadline) {
      return Status::DeadlineExceeded("no response within the deadline");
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          *deadline - now)
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(left, 1)));
    if (rc > 0) return Status::OK();  // readable (or error — recv reports it)
    if (rc < 0 && errno != EINTR) {
      return Status::NetworkError(std::string("poll failed: ") +
                                  std::strerror(errno));
    }
  }
}

}  // namespace

Result<DecodedFrame> TcpTransport::ReadSecureFrame(
    const std::chrono::steady_clock::time_point* deadline) {
  for (;;) {
    DecodedFrame frame;
    SIMCLOUD_ASSIGN_OR_RETURN(
        bool complete,
        TryParseFrame(recv_plain_, &recv_plain_off_, 1ull << 31, &frame));
    if (complete) {
      CompactBuffer(&recv_plain_, &recv_plain_off_);
      return frame;
    }
    // Need more plaintext: pull raw bytes off the socket and run them
    // through the record layer.
    SIMCLOUD_RETURN_NOT_OK(WaitReadable(fd_, deadline));
    uint8_t chunk[64 * 1024];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("recv failed: ") +
                                  std::strerror(errno));
    }
    if (n == 0) return Status::NetworkError("peer closed connection");
    recv_raw_.insert(recv_raw_.end(), chunk, chunk + n);
    size_t consumed = 0;
    SIMCLOUD_RETURN_NOT_OK(channel_->Ingest(
        recv_raw_.data() + recv_raw_off_, recv_raw_.size() - recv_raw_off_,
        &consumed, &recv_plain_));
    recv_raw_off_ += consumed;
    CompactBuffer(&recv_raw_, &recv_raw_off_);
  }
}

Status TcpTransport::ReadOneResponse(
    const std::chrono::steady_clock::time_point* deadline) {
  DecodedFrame frame;
  if (channel_) {
    SIMCLOUD_ASSIGN_OR_RETURN(frame, ReadSecureFrame(deadline));
  } else {
    // The deadline bounds the wait for a frame to START arriving; once
    // bytes flow, the frame is read to completion (peers send frames
    // whole, so the tail follows promptly or the stream is dead anyway).
    SIMCLOUD_RETURN_NOT_OK(WaitReadable(fd_, deadline));
    SIMCLOUD_ASSIGN_OR_RETURN(frame, ReadAnyFrame(fd_));
  }
  BinaryReader reader(frame.payload);
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t server_nanos, reader.ReadU64());
  SIMCLOUD_ASSIGN_OR_RETURN(bool ok, reader.ReadBool());

  ReadyResponse ready;
  ready.server_nanos = static_cast<int64_t>(server_nanos);
  if (ok) {
    ready.payload =
        Bytes(frame.payload.begin() + reader.position(), frame.payload.end());
  } else {
    SIMCLOUD_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
    ready.payload = Status::NetworkError("remote error: " + message);
  }
  {
    std::lock_guard<std::mutex> lock(costs_mutex_);
    costs_.bytes_received += frame.payload.size();
    costs_.server_nanos += ready.server_nanos;
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (streaming_.count(frame.request_id) != 0) {
    // Stream frame: many frames share this id, so it stays outstanding
    // and arrivals queue in order for CollectStream.
    stream_ready_[frame.request_id].push_back(std::move(ready));
    return Status::OK();
  }
  if (outstanding_.erase(frame.request_id) == 0) {
    if (frame.request_id < next_id_ || ids_wrapped_) {
      // Issued here, but nobody waits on it any more: a late frame for a
      // closed stream, or pushes for a watch registered through Call.
      ++stray_frames_;
      return Status::OK();
    }
    return Status::NetworkError("response for unknown request id " +
                                std::to_string(frame.request_id));
  }
  ready_.emplace(frame.request_id, std::move(ready));
  return Status::OK();
}

Result<TcpTransport::ReadyResponse> TcpTransport::AwaitResponse(
    uint32_t id, const std::chrono::steady_clock::time_point* deadline) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    auto it = ready_.find(id);
    if (it != ready_.end()) {
      ReadyResponse response = std::move(it->second);
      ready_.erase(it);
      return response;
    }
    if (!broken_.ok()) return broken_;
    if (outstanding_.count(id) == 0) {
      return Status::InvalidArgument("unknown or already-collected ticket " +
                                     std::to_string(id));
    }
    if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
      // The ticket stays outstanding: a late response is still routable
      // (and collectable), and the stream is not poisoned — the caller
      // decides whether a timeout is fatal (Abort) or a soft signal.
      return Status::DeadlineExceeded("no response for ticket " +
                                      std::to_string(id) +
                                      " within the deadline");
    }
    if (reader_active_) {
      // Another collector is reading the socket; it will publish our
      // response (or the stream failure) and notify.
      if (deadline != nullptr) {
        state_cv_.wait_until(lock, *deadline);
      } else {
        state_cv_.wait(lock);
      }
      continue;
    }
    reader_active_ = true;
    lock.unlock();
    Status read = ReadOneResponse(deadline);
    lock.lock();
    reader_active_ = false;
    state_cv_.notify_all();
    if (read.code() == StatusCode::kDeadlineExceeded) {
      return read;  // soft timeout: stream untouched, ticket outstanding
    }
    if (!read.ok() && broken_.ok()) {
      // Poison the stream and force the socket down so every OTHER
      // parked collector (and any blocked writer) fails promptly too.
      lock.unlock();
      MarkBroken(read);
      lock.lock();
    }
  }
}

Result<Bytes> TcpTransport::Call(const Bytes& request) {
  // One synchronous Call at a time; pipelined Submit/Collect traffic may
  // interleave freely around it.
  std::lock_guard<std::mutex> call_lock(call_mutex_);
  Stopwatch watch;
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t id, SubmitFrame(request, false));
  SIMCLOUD_ASSIGN_OR_RETURN(ReadyResponse response, AwaitResponse(id));
  const int64_t wall_nanos = watch.ElapsedNanos();
  {
    std::lock_guard<std::mutex> lock(costs_mutex_);
    costs_.communication_nanos +=
        std::max<int64_t>(0, wall_nanos - response.server_nanos);
  }
  return std::move(response.payload);
}

Result<uint64_t> TcpTransport::Submit(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t id, SubmitFrame(request, false));
  return static_cast<uint64_t>(id);
}

Result<Bytes> TcpTransport::Collect(uint64_t ticket) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  SIMCLOUD_ASSIGN_OR_RETURN(ReadyResponse response,
                            AwaitResponse(static_cast<uint32_t>(ticket)));
  // Pipelined round trips overlap, so no wall-time split is attributed;
  // bytes and server time were accounted when the frame was read.
  return std::move(response.payload);
}

Result<uint64_t> TcpTransport::SubmitStream(const Bytes& request) {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t id, SubmitFrame(request, true));
  return static_cast<uint64_t>(id);
}

Result<Bytes> TcpTransport::CollectStream(uint64_t ticket, int timeout_ms) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  const uint32_t id = static_cast<uint32_t>(ticket);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // Same elected-reader dance as AwaitResponse, but popping a queue —
  // a stream ticket yields frames until the caller closes it.
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    auto it = stream_ready_.find(id);
    if (it != stream_ready_.end() && !it->second.empty()) {
      ReadyResponse response = std::move(it->second.front());
      it->second.pop_front();
      return std::move(response.payload);
    }
    if (!broken_.ok()) return broken_;
    if (streaming_.count(id) == 0) {
      return Status::InvalidArgument("unknown or closed stream ticket " +
                                     std::to_string(ticket));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // Soft, like CollectFor: the stream stays registered and later
      // frames are still collectable.
      return Status::DeadlineExceeded("no stream frame for ticket " +
                                      std::to_string(ticket) +
                                      " within the deadline");
    }
    if (reader_active_) {
      state_cv_.wait_until(lock, deadline);
      continue;
    }
    reader_active_ = true;
    lock.unlock();
    Status read = ReadOneResponse(&deadline);
    lock.lock();
    reader_active_ = false;
    state_cv_.notify_all();
    if (read.code() == StatusCode::kDeadlineExceeded) {
      return read;
    }
    if (!read.ok() && broken_.ok()) {
      lock.unlock();
      MarkBroken(read);
      lock.lock();
    }
  }
}

void TcpTransport::CloseStream(uint64_t ticket) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) return;
  const uint32_t id = static_cast<uint32_t>(ticket);
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (streaming_.erase(id) == 0) return;
  stream_ready_.erase(id);
  // Frames the server had already queued when the watch was torn down
  // now arrive as strays for an issued id, and are dropped.
  outstanding_.erase(id);
}

Result<Bytes> TcpTransport::CollectFor(uint64_t ticket, int timeout_ms) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  SIMCLOUD_ASSIGN_OR_RETURN(
      ReadyResponse response,
      AwaitResponse(static_cast<uint32_t>(ticket), &deadline));
  return std::move(response.payload);
}

}  // namespace net
}  // namespace simcloud
