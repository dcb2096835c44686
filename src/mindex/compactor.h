// Incremental, segment-aware background compaction for the append-only
// payload log.
//
// MIndex::Delete only unlinks index entries and marks the payload dead in
// storage (Free); the bytes stay in the log. Under insert/delete churn
// the log therefore grows without bound relative to the live collection.
// The compactor bounds that space amplification — and, unlike the PR 2
// engine it replaces, it does so WITHOUT stalling the index for the
// length of the rewrite. A pass is a small state machine driven by
// MIndex::CompactBackground under the index's readers-writer lock:
//
//   BEGIN     (writer lock, microseconds) — read the segment table,
//             decide full vs. partial work, open the fresh log (full
//             mode), arm the relocation journal.
//   REWRITE   (shared lock, one bounded step at a time) — copy live
//             payloads segment-by-segment from the DEADEST segments
//             first, batch_size payloads per step. Searches run
//             concurrently the whole time; writers interleave BETWEEN
//             steps, and every mutation that lands mid-pass is recorded
//             in the relocation journal (inserts append to the old log
//             and are caught up by later steps; frees are reconciled at
//             the swap).
//   SYNC      (no lock) — fsync the bulk of the fresh log so the final
//             writer-locked fsync covers only the stragglers.
//   FINISH    (writer lock, microseconds) — copy the last journaled
//             inserts, free the fresh-log copies of payloads deleted
//             mid-pass, verify every entry has a relocation, then
//             swap+remap: rename the fresh log over the old path, point
//             every entry's payload_handle at its new location, and
//             rebuild the PayloadCache warm (full mode) — or free the
//             relocated originals and release the now-dead segments in
//             place (partial mode).
//
// Modes:
//   kFull    — rewrite every live payload into a fresh log
//              (<disk_path>.compact, atomically renamed over the old
//              path). Reclaims all dead bytes; cost is one copy of the
//              live set.
//   kPartial — driven by DiskStorage's per-segment accounting: relocate
//              the live payloads OUT of sealed segments whose dead ratio
//              is at least `segment_dead_threshold` (deadest first, at
//              most `max_pass_bytes` live bytes per pass), then release
//              those now-fully-dead segments in place (hole punch +
//              accounting drop). Much cheaper per pass; the bound is
//              slightly worse because below-threshold segments keep
//              their garbage. Backends without segment release (memory)
//              fall back to a full pass.
//
// Crash story (full mode): a crash mid-rewrite loses only the temp file —
// the old log and all entries are untouched until the atomic rename. A
// pass that fails AFTER the rename (an unreachable-in-practice Finish
// error) removes the installed fresh log and keeps serving the old one
// through its open descriptor; from there, as after any crash, the
// durable state is the persistence snapshot. Partial mode mutates the
// live log only by appending
// copies and releasing segments that hold no live payload, so a crash
// leaves a correct (merely larger) log; recovery for both remains the
// persistence snapshot.

#ifndef SIMCLOUD_MINDEX_COMPACTOR_H_
#define SIMCLOUD_MINDEX_COMPACTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "mindex/cell_tree.h"
#include "mindex/storage.h"

namespace simcloud {
namespace mindex {

class PayloadCache;

/// Policy of one compaction pass (MIndexOptions carries the persistent
/// defaults; MIndex::DefaultCompactorOptions derives these from them).
struct CompactorOptions {
  /// Compact whenever any dead bytes exist, ignoring `garbage_threshold`
  /// (the explicit kCompact admin opcode).
  bool force = false;
  /// Full rewrite or segment-targeted partial pass.
  CompactionMode mode = CompactionMode::kFull;
  /// Minimum garbage ratio (dead / total log bytes) for an unforced pass
  /// to run; <= 0 defers to MIndexOptions::compaction_trigger.
  double garbage_threshold = 0.0;
  /// Partial mode: a sealed segment is a relocation target once at least
  /// this fraction of its bytes is dead. In (0, 1].
  double segment_dead_threshold = 0.5;
  /// Partial mode: stop targeting further segments once this many live
  /// bytes are queued for relocation (0 = every eligible segment). At
  /// least one eligible segment is always taken.
  uint64_t max_pass_bytes = 0;
  /// Payloads copied per rewrite step — the unit of lock granularity:
  /// searches share the lock during a step, writers get in between steps.
  size_t batch_size = 256;
  /// Test hook: abort with IoError after this many payloads have been
  /// copied, leaving a crash image behind (full+disk mode keeps the
  /// half-written temp file). 0 disables.
  size_t fail_after_payloads = 0;
  /// Test hook: runs after every rewrite step with NO lock held — the
  /// deterministic stand-in for concurrent writers. A test may mutate the
  /// index from the hook to land inserts/deletes in the mid-pass window.
  std::function<void()> between_steps;
};

/// One in-flight compaction pass over an index's storage stack. Driven by
/// MIndex::CompactBackground; the phase methods document which flavour of
/// the index lock the caller must hold (`NextStepLock` says which one the
/// next RewriteStep needs). The pass object also IS the relocation
/// journal: while a pass is active, MIndex routes every payload store and
/// free through OnStore/OnFree (called under the writer lock, so journal
/// state needs no locking of its own — all mutation happens with writers
/// excluded from the rewrite).
class CompactionPass {
 public:
  enum class StepLock : uint8_t { kShared, kExclusive };

  /// `storage` must outlive the pass; `disk_path` / `cache_bytes` mirror
  /// the MIndexOptions the stack was built with.
  CompactionPass(std::unique_ptr<BucketStorage>* storage,
                 std::string disk_path, uint64_t cache_bytes,
                 CompactorOptions options);
  ~CompactionPass();

  CompactionPass(const CompactionPass&) = delete;
  CompactionPass& operator=(const CompactionPass&) = delete;

  /// Phase 1, writer lock held. Returns false when there is nothing to do
  /// (below threshold, no dead bytes, no eligible segments) — the pass is
  /// finished and report() holds the no-op report.
  Result<bool> Begin();

  /// Lock flavour the next RewriteStep needs (partial mode alternates:
  /// fetch under the shared lock, append under a short exclusive slice).
  StepLock NextStepLock() const;

  /// Phase 2: one bounded unit of rewrite work under the lock flavour
  /// NextStepLock() reported. Returns true while more steps remain.
  Result<bool> RewriteStep();

  /// After the rewrite, NO lock held: fsync the fresh log and rename(2)
  /// it over the old path (full disk passes). The old stack keeps serving
  /// through its open descriptor — the rename only moves the crash-
  /// recovery point, it changes nothing the index can observe — so the
  /// journal-commit-priced fsync and the rename both stay off the writer
  /// lock. Payloads journaled after this call reach the new log unsynced
  /// (Finish appends them); crash durability remains the persistence
  /// snapshot, exactly as before.
  Status PrepareSwap();

  /// Phase 3, writer lock held: catch up the last journaled inserts,
  /// reconcile mid-pass frees, swap+remap (full) or free originals and
  /// release dead segments (partial). On success the entries in `tree`
  /// and `*storage` are consistent; on error the index is untouched
  /// (full) or merely carries some extra dead bytes (partial) — call
  /// Abandon to reconcile.
  Status Finish(CellTree* tree);

  /// Drops all pass state after a failed step/Finish; writer lock held.
  /// Full mode abandons the fresh log (keeping the temp file only for the
  /// simulated-crash test hook); partial mode frees the already-appended
  /// relocation copies so they are accounted dead rather than leaked.
  void Abandon();

  /// Relocation journal: a payload was appended to / freed from the old
  /// log while the pass is active. Writer lock held (MIndex mutators).
  void OnStore(PayloadHandle handle);
  void OnFree(PayloadHandle handle);

  /// Progress + outcome (bytes_before/after filled by Finish).
  const CompactionReport& report() const { return report_; }

 private:
  /// The backend under any PayloadCache decorator (rewrites read it
  /// directly so the scan cannot evict the query-serving hot set).
  const BucketStorage* backend() const;

  Result<bool> BeginFull();
  Result<bool> BeginPartial();
  /// Shared-lock step: enumerate the live handles the pass must move
  /// (deferred out of Begin so the O(n) scan runs off the writer lock).
  Status EnumeratePending();
  /// Copies up to batch_size pending payloads into the destination log.
  Status CopyStep();
  /// Partial mode: fetch the next batch (shared) / append it (exclusive).
  Status PartialFetchStep();
  Status PartialAppendStep();
  /// How many of `wanted` payloads may still move before the
  /// fail_after_payloads test hook fires (all of them when it is off).
  size_t MovableBeforeHook(size_t wanted) const;
  /// Appends `payloads`, the bytes of `sources` in order, to
  /// `destination` with one StoreBatch and records a relocation for every
  /// payload stored; on error the stored prefix stays recorded.
  Status Relocate(BucketStorage* destination,
                  std::span<const PayloadHandle> sources,
                  std::span<const PayloadView> payloads,
                  std::vector<PayloadHandle>* stored);
  Status FinishFull(CellTree* tree);
  Status FinishPartial(CellTree* tree);

  std::unique_ptr<BucketStorage>* storage_;
  const std::string disk_path_;
  const uint64_t cache_bytes_;
  const CompactorOptions options_;

  bool enumerated_ = false;
  bool rewrite_done_ = false;
  bool swap_prepared_ = false;
  bool finished_ = false;
  bool keep_temp_file_ = false;

  /// Handles still to copy, deadest segments first.
  std::vector<PayloadHandle> pending_;
  size_t cursor_ = 0;
  /// Journal-drain rounds run so far. The cap keeps an insert flood from
  /// starving the pass; whatever remains is copied under the writer lock
  /// in Finish (bounded by what arrived since the last drain).
  static constexpr size_t kMaxJournalDrains = 16;
  size_t drained_rounds_ = 0;
  /// Relocation map: old handle -> handle in the destination log.
  std::unordered_map<PayloadHandle, PayloadHandle> relocated_;
  /// Journal of mid-pass mutations against the old log.
  std::vector<PayloadHandle> journal_stores_;
  std::vector<PayloadHandle> journal_freed_;

  /// Full mode: the fresh log being written.
  std::unique_ptr<BucketStorage> fresh_;
  DiskStorage* fresh_disk_ = nullptr;
  /// The replaced stack, parked here by the swap so its destruction — a
  /// cache's worth of frees plus closing the old log — happens when the
  /// pass object dies, off the writer lock.
  std::unique_ptr<BucketStorage> retired_;
  /// Payloads that were cached when copied: re-admitted (under their new
  /// handles) into the rebuilt cache so the working set stays warm across
  /// the swap. Keyed by OLD handle. This is the background pass's memory
  /// bill: unlike the PR 2 compactor (which emptied the cache up front
  /// and served the whole pass cold), the live cache keeps answering
  /// queries, so a full pass transiently holds up to ~cache_bytes of
  /// retained copies on top of it — budget cache_bytes accordingly.
  struct HotPayload {
    PayloadHandle new_handle = 0;
    Bytes payload;
  };
  std::unordered_map<PayloadHandle, HotPayload> hot_;

  /// Partial mode: the segments being emptied (set for membership, the
  /// ranked order Begin computed for copy order) and the fetched batch
  /// staged between the shared-lock fetch and the exclusive append.
  std::unordered_set<uint64_t> target_segments_;
  std::vector<uint64_t> target_order_;
  std::vector<PayloadHandle> staged_handles_;
  std::vector<Bytes> staged_payloads_;

  CompactionReport report_;
};

}  // namespace mindex
}  // namespace simcloud

#endif  // SIMCLOUD_MINDEX_COMPACTOR_H_
