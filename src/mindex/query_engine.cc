#include "mindex/query_engine.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace mindex {

namespace {

/// Server-side analogue of the paper's distance-computation cost: every
/// entry inspected in a visited cell costs one pivot-distance lower-bound
/// evaluation. Feeds the cumulative counter and the per-request span
/// (always on the request's worker thread — batch fan-out pool threads
/// never call this, the fan-out's caller aggregates stats first).
void RecordPivotEvaluations(uint64_t entries_scanned) {
  if (entries_scanned == 0) return;
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_pivot_distance_computations_total");
  counter->Add(entries_scanned);
  obs::TraceSpan* span = obs::TraceSpan::Current();
  if (span != nullptr) span->AddDistanceComputations(entries_scanned);
}

uint64_t SumEntriesScanned(const std::vector<SearchStats>& stats) {
  uint64_t total = 0;
  for (const SearchStats& s : stats) total += s.entries_scanned;
  return total;
}

obs::Histogram* PayloadFetchHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Default().GetHistogram("simcloud_payload_fetch_nanos");
  return histogram;
}

/// Times one payload-log fetch into the fetch histogram and the current
/// request span. Zero clock reads while tracing is inactive.
template <typename Fetch>
Status TimedPayloadFetch(Fetch&& fetch) {
  if (!obs::TracingActive()) return fetch();
  const uint64_t start = obs::MonotonicNanos();
  Status status = fetch();
  const uint64_t nanos = obs::MonotonicNanos() - start;
  PayloadFetchHistogram()->Record(nanos);
  if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
    span->AddStageNanos(obs::Stage::kPayloadFetch, nanos);
  }
  return status;
}

}  // namespace

void QueryEngine::RankAndTrim(ScoredEntries* scored, size_t limit) {
  std::stable_sort(
      scored->begin(), scored->end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  if (scored->size() > limit) scored->resize(limit);
}

Result<BatchCandidates> QueryEngine::MaterializeBatch(
    std::vector<ScoredEntries> scored, const std::vector<size_t>& limits,
    const std::vector<size_t>& rep,
    const std::vector<SearchStats>& unique_stats,
    std::vector<SearchStats>* stats) const {
  // Rank each distinct query's candidates, then fetch every payload the
  // batch needs in one call; a handle shared between queries lands in the
  // dictionary once. One query's own candidates never share a handle, so
  // the handle map is built only when a second distinct query needs it:
  // a batch of one (every single-query search) pays no hashing.
  size_t total_candidates = 0;
  for (const ScoredEntries& entries : scored) {
    total_candidates += entries.size();
  }
  std::vector<PayloadHandle> handles;
  handles.reserve(total_candidates);
  std::unordered_map<PayloadHandle, uint32_t> handle_slot;
  std::vector<std::vector<BatchCandidateRef>> unique_refs(scored.size());
  for (size_t u = 0; u < scored.size(); ++u) {
    RankAndTrim(&scored[u], limits[u]);
    if (u == 1) {
      handle_slot.reserve(total_candidates);
      for (uint32_t slot = 0; slot < handles.size(); ++slot) {
        handle_slot.emplace(handles[slot], slot);
      }
    }
    unique_refs[u].reserve(scored[u].size());
    for (const auto& [score, entry] : scored[u]) {
      auto slot = static_cast<uint32_t>(handles.size());
      if (u > 0) {
        slot = handle_slot.emplace(entry->payload_handle, slot).first->second;
      }
      if (slot == handles.size()) handles.push_back(entry->payload_handle);
      unique_refs[u].push_back(BatchCandidateRef{entry->id, score, slot});
    }
  }

  BatchCandidates batch;
  SIMCLOUD_RETURN_NOT_OK(TimedPayloadFetch(
      [&] { return storage_->FetchMany(handles, &batch.payloads); }));

  batch.per_query.resize(rep.size());
  for (size_t q = 0; q < rep.size(); ++q) {
    batch.per_query[q] = unique_refs[rep[q]];
    if (stats != nullptr) {
      (*stats)[q] = unique_stats[rep[q]];
      (*stats)[q].candidates = batch.per_query[q].size();
    }
  }
  return batch;
}

Result<RankedCandidates> QueryEngine::RangeSearchRanked(
    const std::vector<float>& query_distances, double radius,
    SearchStats* stats) const {
  ScoredEntries scored;
  {
    obs::StageTimer timer(obs::Stage::kIndexEval);
    SIMCLOUD_RETURN_NOT_OK(
        tree_->CollectRange(query_distances, radius, &scored, stats));
  }
  if (stats != nullptr) RecordPivotEvaluations(stats->entries_scanned);
  RankAndTrim(&scored, scored.size());
  RankedCandidates ranked;
  ranked.reserve(scored.size());
  for (const auto& [score, entry] : scored) {
    ranked.push_back(RankedCandidate{entry->id, score, entry->payload_handle});
  }
  if (stats != nullptr) stats->candidates = ranked.size();
  return ranked;
}

Result<CandidateList> QueryEngine::MaterializePage(
    const RankedCandidates& ranked, size_t* next, size_t page_size) const {
  std::vector<PayloadHandle> handles;
  std::vector<const RankedCandidate*> picked;
  handles.reserve(std::min(page_size, ranked.size() - *next));
  picked.reserve(handles.capacity());
  size_t pos = *next;
  while (pos < ranked.size() && picked.size() < page_size) {
    const RankedCandidate& candidate = ranked[pos++];
    // A candidate deleted since the snapshot: its handle is dead in the
    // append-only log (never reused until compaction, which the cursor
    // layer guards with the pass count) — skip it rather than failing the
    // whole FetchMany.
    if (!storage_->IsLive(candidate.handle)) continue;
    handles.push_back(candidate.handle);
    picked.push_back(&candidate);
  }
  std::vector<Bytes> payloads;
  SIMCLOUD_RETURN_NOT_OK(TimedPayloadFetch(
      [&] { return storage_->FetchMany(handles, &payloads); }));
  CandidateList page;
  page.reserve(picked.size());
  for (size_t i = 0; i < picked.size(); ++i) {
    page.push_back(
        Candidate{picked[i]->id, picked[i]->score, std::move(payloads[i])});
  }
  *next = pos;
  return page;
}

namespace {

/// Memoization support: maps every query to the first query with a
/// bit-identical signature (byte key, hashed — linear in batch size).
/// Returns rep[i] = index into `uniques`; `queries[(*uniques)[rep[i]]]`
/// is the query actually evaluated for position i. Under a hot-query
/// workload (the same popular query issued by many users inside one
/// batch) this collapses the per-query tree work to one evaluation per
/// distinct query.
template <typename KeyOf>
std::vector<size_t> DeduplicateQueries(size_t count, KeyOf key_of,
                                       std::vector<size_t>* uniques) {
  std::vector<size_t> rep(count);
  std::unordered_map<std::string, size_t> seen;
  seen.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    auto [it, inserted] = seen.emplace(key_of(q), uniques->size());
    if (inserted) uniques->push_back(q);
    rep[q] = it->second;
  }
  return rep;
}

void AppendBytes(std::string* key, const void* data, size_t len) {
  key->append(static_cast<const char*>(data), len);
}

std::string RangeQueryKey(const RangeQuery& query) {
  std::string key;
  key.reserve(sizeof(double) + query.pivot_distances.size() * sizeof(float));
  AppendBytes(&key, &query.radius, sizeof(query.radius));
  AppendBytes(&key, query.pivot_distances.data(),
              query.pivot_distances.size() * sizeof(float));
  return key;
}

std::string KnnQueryKey(const KnnQuery& query) {
  std::string key;
  const uint64_t distance_count = query.signature.pivot_distances.size();
  key.reserve(24 + distance_count * sizeof(float) +
              query.signature.permutation.size() * sizeof(uint32_t));
  AppendBytes(&key, &query.cand_size, sizeof(query.cand_size));
  key.push_back(query.signature.whole_cells ? 1 : 0);
  AppendBytes(&key, &distance_count, sizeof(distance_count));
  AppendBytes(&key, query.signature.pivot_distances.data(),
              distance_count * sizeof(float));
  AppendBytes(&key, query.signature.permutation.data(),
              query.signature.permutation.size() * sizeof(uint32_t));
  return key;
}

}  // namespace

Result<BatchCandidates> QueryEngine::RangeSearchBatch(
    const std::vector<RangeQuery>& queries,
    std::vector<SearchStats>* stats) const {
  if (stats != nullptr) stats->assign(queries.size(), SearchStats{});
  std::vector<size_t> uniques;
  const std::vector<size_t> rep = DeduplicateQueries(
      queries.size(), [&](size_t q) { return RangeQueryKey(queries[q]); },
      &uniques);
  std::vector<RangeQuery> unique_queries;
  unique_queries.reserve(uniques.size());
  for (size_t q : uniques) unique_queries.push_back(queries[q]);

  std::vector<SearchStats> unique_stats(uniques.size());
  std::vector<ScoredEntries> scored(uniques.size());
  // Index-eval stage covers the whole collect fan-out; the per-request
  // span lives on this thread, so the attribution happens here after the
  // pool workers (which see no current span) are done.
  Status collected = [&]() -> Status {
    obs::StageTimer index_timer(obs::Stage::kIndexEval);
    const size_t chunk_count =
        query_threads_ > 1
            ? std::min(static_cast<size_t>(query_threads_), uniques.size())
            : 1;
    if (chunk_count <= 1) {
      return tree_->CollectRangeBatch(unique_queries, &scored, &unique_stats);
    }
    // Each worker runs one shared traversal over its contiguous chunk of
    // the distinct queries. CollectRangeBatch guarantees per-query output
    // independent of batch composition, so the concatenation is
    // byte-identical to the single whole-batch traversal.
    return ParallelFor(
        static_cast<int>(chunk_count), chunk_count, [&](size_t c) {
          const size_t begin = c * unique_queries.size() / chunk_count;
          const size_t end = (c + 1) * unique_queries.size() / chunk_count;
          const std::vector<RangeQuery> chunk(
              unique_queries.begin() + begin, unique_queries.begin() + end);
          std::vector<ScoredEntries> chunk_scored(chunk.size());
          std::vector<SearchStats> chunk_stats(chunk.size());
          SIMCLOUD_RETURN_NOT_OK(
              tree_->CollectRangeBatch(chunk, &chunk_scored, &chunk_stats));
          for (size_t i = 0; i < chunk.size(); ++i) {
            scored[begin + i] = std::move(chunk_scored[i]);
            unique_stats[begin + i] = chunk_stats[i];
          }
          return Status::OK();
        });
  }();
  SIMCLOUD_RETURN_NOT_OK(collected);
  RecordPivotEvaluations(SumEntriesScanned(unique_stats));
  std::vector<size_t> limits(scored.size());
  for (size_t u = 0; u < scored.size(); ++u) limits[u] = scored[u].size();
  return MaterializeBatch(std::move(scored), limits, rep, unique_stats,
                          stats);
}

Result<BatchCandidates> QueryEngine::ApproxKnnBatch(
    const std::vector<KnnQuery>& queries,
    std::vector<SearchStats>* stats) const {
  if (stats != nullptr) stats->assign(queries.size(), SearchStats{});
  std::vector<size_t> uniques;
  const std::vector<size_t> rep = DeduplicateQueries(
      queries.size(), [&](size_t q) { return KnnQueryKey(queries[q]); },
      &uniques);

  std::vector<SearchStats> unique_stats(uniques.size());
  std::vector<ScoredEntries> scored(uniques.size());
  std::vector<size_t> limits(uniques.size());
  // Validate up front (serially) so a bad query fails identically
  // regardless of thread count, then fan the independent per-query tree
  // walks out — each worker writes only its own slots.
  for (size_t u = 0; u < uniques.size(); ++u) {
    if (queries[uniques[u]].cand_size == 0) {
      return Status::InvalidArgument("candidate set size must be > 0");
    }
  }
  {
    obs::StageTimer index_timer(obs::Stage::kIndexEval);
    SIMCLOUD_RETURN_NOT_OK(
        ParallelFor(query_threads_, uniques.size(), [&](size_t u) {
          const KnnQuery& query = queries[uniques[u]];
          SIMCLOUD_RETURN_NOT_OK(tree_->CollectApprox(
              query.signature, query.cand_size, promise_decay_, &scored[u],
              &unique_stats[u]));
          limits[u] = query.signature.whole_cells
                          ? scored[u].size()
                          : static_cast<size_t>(query.cand_size);
          return Status::OK();
        }));
  }
  RecordPivotEvaluations(SumEntriesScanned(unique_stats));
  return MaterializeBatch(std::move(scored), limits, rep, unique_stats,
                          stats);
}

}  // namespace mindex
}  // namespace simcloud
