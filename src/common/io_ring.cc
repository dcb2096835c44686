#include "common/io_ring.h"

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace simcloud {

namespace {

int SysIoUringSetup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int SysIoUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                    unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

template <typename T>
T* RingPtr(void* base, uint32_t offset) {
  return reinterpret_cast<T*>(static_cast<uint8_t*>(base) + offset);
}

}  // namespace

Result<std::unique_ptr<IoRing>> IoRing::Create(unsigned entries) {
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int ring_fd = SysIoUringSetup(entries, &params);
  if (ring_fd < 0) {
    return Status::NotSupported(std::string("io_uring_setup failed: ") +
                               std::strerror(errno));
  }

  auto ring = std::unique_ptr<IoRing>(new IoRing());
  ring->ring_fd_ = ring_fd;
  ring->sq_entries_ = params.sq_entries;
  ring->cq_entries_ = params.cq_entries;

  size_t sq_bytes =
      params.sq_off.array + params.sq_entries * sizeof(unsigned);
  size_t cq_bytes =
      params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    sq_bytes = cq_bytes = sq_bytes > cq_bytes ? sq_bytes : cq_bytes;
  }

  ring->sq_ring_ = ::mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, ring_fd,
                          IORING_OFF_SQ_RING);
  if (ring->sq_ring_ == MAP_FAILED) {
    ring->sq_ring_ = nullptr;
    return Status::NotSupported(std::string("io_uring SQ mmap failed: ") +
                               std::strerror(errno));
  }
  ring->sq_ring_bytes_ = sq_bytes;

  if (single_mmap) {
    ring->cq_ring_ = ring->sq_ring_;
    ring->cq_ring_bytes_ = 0;  // owned by the SQ mapping
  } else {
    ring->cq_ring_ = ::mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_POPULATE, ring_fd,
                            IORING_OFF_CQ_RING);
    if (ring->cq_ring_ == MAP_FAILED) {
      ring->cq_ring_ = nullptr;
      return Status::NotSupported(std::string("io_uring CQ mmap failed: ") +
                                 std::strerror(errno));
    }
    ring->cq_ring_bytes_ = cq_bytes;
  }

  ring->sqes_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
  void* sqes = ::mmap(nullptr, ring->sqes_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    return Status::NotSupported(std::string("io_uring SQE mmap failed: ") +
                               std::strerror(errno));
  }
  ring->sqes_ = static_cast<io_uring_sqe*>(sqes);

  ring->sq_head_ = RingPtr<unsigned>(ring->sq_ring_, params.sq_off.head);
  ring->sq_tail_ = RingPtr<unsigned>(ring->sq_ring_, params.sq_off.tail);
  ring->sq_mask_ =
      *RingPtr<unsigned>(ring->sq_ring_, params.sq_off.ring_mask);
  ring->sq_array_ = RingPtr<unsigned>(ring->sq_ring_, params.sq_off.array);
  ring->cq_head_ = RingPtr<unsigned>(ring->cq_ring_, params.cq_off.head);
  ring->cq_tail_ = RingPtr<unsigned>(ring->cq_ring_, params.cq_off.tail);
  ring->cq_mask_ =
      *RingPtr<unsigned>(ring->cq_ring_, params.cq_off.ring_mask);
  ring->cqes_ = RingPtr<io_uring_cqe>(ring->cq_ring_, params.cq_off.cqes);
  ring->local_sq_tail_ = *ring->sq_tail_;
  return ring;
}

IoRing::~IoRing() {
  if (sqes_ != nullptr) ::munmap(sqes_, sqes_bytes_);
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
    ::munmap(cq_ring_, cq_ring_bytes_);
  }
  if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
  if (ring_fd_ >= 0) ::close(ring_fd_);
}

unsigned IoRing::SqSpaceLeft() const {
  const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
  return sq_entries_ - (local_sq_tail_ - head);
}

io_uring_sqe* IoRing::NextSqe() {
  if (SqSpaceLeft() == 0) return nullptr;
  const unsigned index = local_sq_tail_ & sq_mask_;
  io_uring_sqe* sqe = &sqes_[index];
  std::memset(sqe, 0, sizeof(*sqe));
  sq_array_[index] = index;
  ++local_sq_tail_;
  ++to_submit_;
  return sqe;
}

bool IoRing::PrepPollAdd(int fd, uint32_t poll_mask, uint64_t user_data,
                         bool multishot) {
  io_uring_sqe* sqe = NextSqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = poll_mask;  // x86 is little-endian: no word swap
  if (multishot) sqe->len = IORING_POLL_ADD_MULTI;
  sqe->user_data = user_data;
  return true;
}

bool IoRing::PrepPollRemove(uint64_t target_user_data, uint64_t user_data) {
  io_uring_sqe* sqe = NextSqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_POLL_REMOVE;
  sqe->fd = -1;
  sqe->addr = target_user_data;
  sqe->user_data = user_data;
  return true;
}

Status IoRing::Submit() { return SubmitAndWait(0); }

Status IoRing::SubmitAndWait(unsigned min_complete) {
  // Publish prepared SQEs to the kernel before entering.
  __atomic_store_n(sq_tail_, local_sq_tail_, __ATOMIC_RELEASE);
  const unsigned to_submit = to_submit_;
  to_submit_ = 0;
  for (;;) {
    const int n = SysIoUringEnter(
        ring_fd_, to_submit, min_complete,
        min_complete > 0 ? IORING_ENTER_GETEVENTS : 0);
    if (n < 0) {
      if (errno == EINTR) {
        // Submission may have partially happened only on success; with
        // EINTR nothing was consumed — retry the identical call.
        continue;
      }
      return Status::Internal(std::string("io_uring_enter failed: ") +
                              std::strerror(errno));
    }
    // The kernel consumes all `to_submit` SQEs on success (no SQPOLL).
    return Status::OK();
  }
}

size_t IoRing::DrainCompletions(std::vector<Cqe>* out) {
  unsigned head = *cq_head_;  // we are the only consumer
  const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
  size_t reaped = 0;
  while (head != tail) {
    const io_uring_cqe* cqe =
        &static_cast<const io_uring_cqe*>(cqes_)[head & cq_mask_];
    out->push_back(Cqe{cqe->user_data, cqe->res, cqe->flags});
    ++head;
    ++reaped;
  }
  __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
  return reaped;
}

}  // namespace simcloud
