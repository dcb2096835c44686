// Minimal io_uring wrapper over the raw syscalls (the toolchain image
// ships no liburing). Its one consumer, net/event_engine.cc, runs the
// server's readiness loop on poll SQEs and needs only a small slice of
// io_uring: batched SQE preparation, one submit-and-wait entry point, and
// completion reaping — which is exactly what this class exposes.
// Single-threaded by design: one IoRing belongs to one owner thread (the
// event loop); there is no internal locking.
//
// Creation probes the kernel: io_uring_setup fails with ENOSYS on old
// kernels and EPERM in seccomp-restricted containers, and the caller is
// expected to fall back to its portable path (epoll).

#ifndef SIMCLOUD_COMMON_IO_RING_H_
#define SIMCLOUD_COMMON_IO_RING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

struct io_uring_sqe;  // <linux/io_uring.h>, kept out of this header

namespace simcloud {

/// One io_uring instance: SQ/CQ rings plus the SQE array, mmap'd.
class IoRing {
 public:
  /// One reaped completion.
  struct Cqe {
    uint64_t user_data = 0;
    int32_t res = 0;    ///< result (negated errno on failure)
    uint32_t flags = 0; ///< IORING_CQE_F_* bits
  };

  /// Sets up a ring with `entries` SQ slots (rounded up by the kernel).
  /// Fails on kernels/sandboxes without io_uring — callers fall back.
  static Result<std::unique_ptr<IoRing>> Create(unsigned entries);
  ~IoRing();

  IoRing(const IoRing&) = delete;
  IoRing& operator=(const IoRing&) = delete;

  /// SQE preparation. Each returns false when the submission queue is
  /// full — submit first, then retry.
  bool PrepPollAdd(int fd, uint32_t poll_mask, uint64_t user_data,
                   bool multishot);
  /// Cancels the pending poll whose user_data is `target_user_data`.
  bool PrepPollRemove(uint64_t target_user_data, uint64_t user_data);

  /// Submits every prepared SQE without waiting.
  Status Submit();
  /// Submits, then blocks until at least `min_complete` completions are
  /// available (or a pending one already is).
  Status SubmitAndWait(unsigned min_complete);

  /// Reaps every available completion into `out` (appended); returns the
  /// number reaped. Never blocks.
  size_t DrainCompletions(std::vector<Cqe>* out);

  /// Free SQ slots right now.
  unsigned SqSpaceLeft() const;

 private:
  IoRing() = default;
  /// Claims the next free SQE slot (zeroed), or nullptr when full.
  struct io_uring_sqe* NextSqe();

  int ring_fd_ = -1;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;

  // SQ ring mapping.
  void* sq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  unsigned* sq_head_ = nullptr;    // kernel-written consumer head
  unsigned* sq_tail_ = nullptr;    // our producer tail (release-stored)
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  struct io_uring_sqe* sqes_ = nullptr;
  size_t sqes_bytes_ = 0;

  // CQ ring mapping (may alias sq_ring_ with IORING_FEAT_SINGLE_MMAP).
  void* cq_ring_ = nullptr;
  size_t cq_ring_bytes_ = 0;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  void* cqes_ = nullptr;

  unsigned local_sq_tail_ = 0;  // SQEs prepared, not yet visible to kernel
  unsigned to_submit_ = 0;      // prepared since the last io_uring_enter
};

}  // namespace simcloud

#endif  // SIMCLOUD_COMMON_IO_RING_H_
