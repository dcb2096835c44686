#!/usr/bin/env bash
# Local CI: the tier-1 verify command plus benchmark smoke runs.
# Mirrors .github/workflows/ci.yml so the same gate runs everywhere.
#
# Usage: ci.sh [--asan|--tsan|--scalar-crypto]
#   --asan  build and run the test suite under AddressSanitizer (separate
#           build tree; the churn/compaction soak tests are where lifetime
#           bugs in payload-handle remapping would hide). Skips the bench
#           smoke runs — sanitized timings are meaningless.
#   --tsan  build under ThreadSanitizer and run the concurrency-facing
#           suites (epoll/io_uring engines, pipelined clients, shard
#           channels, the parallel query-engine fan-out, stats
#           accumulators). TSan multiplies runtime ~10x, so the purely
#           single-threaded suites are skipped.
#   --scalar-crypto  run the full test battery with
#           SIMCLOUD_FORCE_SCALAR_CRYPTO=1: every AES/SHA byte on the
#           scalar reference kernels, regardless of what the silicon
#           offers. Reuses the regular build tree.
set -euo pipefail
cd "$(dirname "$0")"

if [ "${1:-}" = "--asan" ]; then
  echo "=== configure + build (AddressSanitizer) ==="
  cmake -B build-asan -S . -DSIMCLOUD_SANITIZE=address
  cmake --build build-asan -j "$(nproc)"

  echo "=== tier-1 tests under ASan ==="
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" --timeout 300
  echo "CI (asan) OK"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  echo "=== configure + build (ThreadSanitizer) ==="
  cmake -B build-tsan -S . -DSIMCLOUD_SANITIZE=thread
  cmake --build build-tsan -j "$(nproc)"

  echo "=== concurrency suites under TSan ==="
  # churn_test joined the list with the background compactor: its
  # ConcurrentChurnTest races mutator/query/admin threads against the
  # compaction thread, which is exactly TSan territory. secure_channel_test
  # joined with the secure channel: the epoll-loop handshake state machine
  # and the client transport's seal-under-write-lock / ingest-under-reader
  # split are race-checked here.
  # query_engine_test joined the list with the parallel batch paths: its
  # ParallelBatchTest suites run RangeSearchBatch/ApproxKnnBatch with
  # query_threads > 1, racing the fan-out workers over the shared cell
  # tree — the byte-identity assertion under TSan is the proof the
  # parallel schedule reads the tree without data races.
  # failover_test joined with the topology monitor: queriers, a churner,
  # the monitor thread and a replica kill/restart all race over the
  # replica channels, which is the exact surface TSan must sign off on.
  # watch_test joined with the change streams: the WatchHub delivery
  # thread races writers publishing under the index lock, push sinks on
  # the epoll loop, and the sharded facade's pump threads.
  # cursor_test joined with server-side cursors: the cursor table's
  # busy-checkout protocol races handler threads against the TTL sweep
  # and the disconnect reaper thread, and composite cursors pull shard
  # pages through the same channels the fan-out workers use.
  # obs_test joined with the metrics registry: its concurrency suite
  # hammers the thread-sharded counter/histogram cells from 8 writers
  # (exactness is the assertion; TSan proves the relaxed atomics carry
  # it), and its secure-cluster scrape races kGetMetrics snapshots
  # against live mutator/query traffic.
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
        --timeout 300 \
        -R 'net_test|pipeline_test|concurrency_test|sharded_test|fuzz_robustness_test|integration_test|churn_test|secure_channel_test|query_engine_test|failover_test|watch_test|cursor_test|obs_test'

  echo "=== churn + failover + watch soaks under TSan, secure channel policy ==="
  # The same soaks with every connection running the PSK handshake +
  # AEAD record layer (frequent rekeys included). failover_test under
  # `secure` additionally reconnects through the full handshake after
  # the replica kill, and watch_test seals every push frame in AEAD
  # records. Only these three read the env toggle; net_test pins
  # the plaintext wire and secure_channel_test/fuzz_robustness_test
  # cover secure intrinsically.
  SIMCLOUD_CHANNEL_POLICY=secure \
  ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
        --timeout 300 \
        -R 'pipeline_test|failover_test|watch_test|cursor_test|obs_test'
  echo "CI (tsan) OK"
  exit 0
fi

if [ "${1:-}" = "--scalar-crypto" ]; then
  echo "=== configure + build ==="
  cmake -B build -S .
  cmake --build build -j "$(nproc)"

  echo "=== full test battery, scalar crypto kernels forced ==="
  SIMCLOUD_FORCE_SCALAR_CRYPTO=1 \
  ctest --test-dir build --output-on-failure -j "$(nproc)" --timeout 300

  echo "=== bench smoke: crypto kernels (scalar dispatch) ==="
  SIMCLOUD_FORCE_SCALAR_CRYPTO=1 ./build/bench_crypto --smoke
  echo "CI (scalar-crypto) OK"
  exit 0
fi

echo "=== docs: markdown link check ==="
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_doc_links.py
else
  echo "python3 not available; skipped"
fi

echo "=== lint: no fixed temp-file names in tests, benches and examples ==="
# ctest -j runs a suite and its env-variant twins side by side; a fixed
# file name lets them clobber each other's storage. Files go in a private
# mkdtemp directory instead (simcloud::ScratchDir, common/scratch_dir.h).
if grep -nE 'TempDir\(\)|"/tmp/' tests/* bench/* examples/*; then
  echo "FAIL: literal temp path above; use simcloud::ScratchDir" >&2
  exit 1
fi

echo "=== configure + build ==="
cmake -B build -S .
cmake --build build -j "$(nproc)"

echo "=== tier-1 tests ==="
ctest --test-dir build --output-on-failure -j "$(nproc)" --timeout 300

echo "=== channel-policy sweep: churn + failover + watch soaks in secure mode ==="
# These soaks run twice: the tier-1 pass above uses the plaintext wire
# (byte-identical to the original protocol); this pass flips them to
# ChannelPolicy::kSecure (PSK handshake + AEAD records on every
# connection, aggressive rekey budgets — failover_test's post-kill
# reconnects redo the full handshake, watch_test streams every push
# frame through sealed records). cursor_test joins the sweep so paged
# retrieval proves byte-identity with every page crossing an AEAD
# record boundary. The other transport suites
# need no toggle: net_test pins the plaintext wire byte-stable, while
# secure_channel_test / SecureTcpFrameFuzz / the secure remote-shard
# test cover the secure policy intrinsically.
SIMCLOUD_CHANNEL_POLICY=secure \
ctest --test-dir build --output-on-failure -j "$(nproc)" --timeout 300 \
      -R 'pipeline_test|failover_test|watch_test|cursor_test|obs_test'

echo "=== bench smoke: microbenchmarks ==="
if [ -x build/bench_micro ]; then
  ./build/bench_micro --benchmark_min_time=0.01 >/dev/null
  echo "bench_micro OK"
else
  echo "bench_micro not built (google-benchmark missing); skipped"
fi

echo "=== bench smoke: crypto kernels (scalar vs accelerated, >= 3x gate) ==="
./build/bench_crypto --smoke

echo "=== bench smoke: batched query throughput ==="
./build/bench_batch_throughput --smoke

echo "=== bench smoke: churn + compaction acceptance (incl. pause gate) ==="
./build/bench_churn --smoke

echo "=== bench smoke: pipelined transport acceptance ==="
./build/bench_pipeline --smoke

echo "=== bench smoke: metrics overhead gate (instrumented ping p99 within 5% of metrics-off) ==="
./build/bench_pipeline --metrics-overhead --smoke

echo "=== bench smoke: replica failover acceptance (zero failed queries, p99 blip <= 3x) ==="
./build/bench_failover --smoke

echo "=== bench smoke: watch streams acceptance (zero lost events, bounded slow-watcher backpressure) ==="
./build/bench_watch --smoke

echo "=== bench smoke: cursor acceptance (1M-candidate drain in O(page) RSS, byte-identical to one-shot) ==="
./build/bench_cursor --smoke

echo "CI OK"
