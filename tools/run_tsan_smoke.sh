#!/usr/bin/env bash
# Sanitizer smoke for the concurrent subsystems: builds the repo with
# CMARKOV_SANITIZE=<sanitizer> and runs the concurrency-sensitive tests — the
# cmarkovd serving layer (serve_test's LiveReloadSwapsSharedKernelUnderTraffic
# drives concurrent shard workers scoring through one shared ScoringKernel
# image while RELOAD hot-swaps model + kernel, each version kept alive by
# the shared_ptrs of the sessions, monitors and decision records that read
# it (DecisionLabelsOutliveAReload renders records across a reload that
# frees their model's last other reference),
# CloseAndEvictRacingAProducerLoseNoAcceptedEvent retires a
# session through close and evict while its producer keeps submitting,
# SaturatingNeighbourCannotStallSessionVerbs settles one session's shard
# while producers that never stop keep it full, and
# LookupsNeverMissASessionMovingBetweenMapAndStore polls has_session and
# recent_decisions while one session is evicted and restored in a loop), the
# epoll TCP front-end (serve_net_test drives concurrent connects across
# event loops, session eviction/restore, and hot model reload under live
# producer traffic), the parallel training engine (worker pool,
# multi-threaded Baum-Welch/k-means/PCA — including the incremental
# hmm::Trainer whose partial_fit must stay bit-identical at every thread
# count, and the drift-armed refresh loop in serve_test's DriftRefreshTest
# feeding DriftMonitor from shard workers), and the obs layer (sharded
# counters/histograms under concurrent writers plus the threaded
# pipeline-with-metrics smoke in obs_test), and the chaos harness
# (chaos_test exercises failpoint arming/firing, crash-restart snapshot
# recovery, and the overload ladder's governor transitions against the
# worker pool), and the admin plane (admin_test's scrape hammer runs
# concurrent /metrics + /varz + /statusz pollers against the collector
# thread and live traffic with eviction churn), and the register-blocked
# HMM loops (forward_backward_test, parallel_training_test, detector_test
# and online_monitor_test run the block and remainder index arithmetic of
# forward_pass, backward_pass and accumulate_expected_transitions, which
# src/CMakeLists builds without its -O3 under a sanitizer), and the
# kernel's lock-free window memo (online_monitor_test's
# SharedKernelMemoIsExactUnderConcurrentScoring has four threads race
# inserts, evictions and seqlocked reads on one shared ScoringKernel and
# checks every verdict against the reference recursion), and the one
# reader of persisted state (model_io_test and util_test feed
# util::RecordReader lying counts and every truncation and byte flip of a
# saved model and trainer state, which only ASan and UBSan can vouch for),
# and the frame hand-off (serve_frame_test queues EV frames as their
# payload bytes, trims them under drop-oldest, rebinds between queued frames
# and waits a frame larger than the queue out on a live worker), and the
# decision records derived when read (decision_trace_test reads a rebound
# monitor's entries and forges one; serve_test's
# TraceReadsRacingScoringAndReloadsDeriveEveryRecord derives records from
# entries copied while the session's worker scores and RELOADs drop the
# registry's last reference to the model version the entries pin).
#
# CMARKOV_SANITIZE picks the sanitizer: thread (default; data races),
# address (heap/stack misuse, leaks) or undefined (UB). The first report
# fails the run (halt_on_error). Usage:
#
#   tools/run_tsan_smoke.sh                            # build-thread/
#   CMARKOV_SANITIZE=address tools/run_tsan_smoke.sh   # build-address/
#   CMARKOV_SANITIZE=undefined tools/run_tsan_smoke.sh # build-undefined/
#   BUILD_DIR=/tmp/tsan tools/run_tsan_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${CMARKOV_SANITIZE:-thread}"
case "$SANITIZER" in
  thread | address | undefined) ;;
  *)
    echo "CMARKOV_SANITIZE must be thread, address or undefined" >&2
    exit 2
    ;;
esac
BUILD_DIR="${BUILD_DIR:-build-$SANITIZER}"
TESTS='^(serve_test|serve_net_test|serve_frame_test|admin_test|chaos_test|logging_test|parallel_test|parallel_training_test|incremental_training_test|obs_test|forward_backward_test|detector_test|online_monitor_test|decision_trace_test|model_io_test|util_test)$'

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMARKOV_SANITIZE="$SANITIZER"
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target serve_test serve_net_test serve_frame_test admin_test chaos_test \
  --target logging_test parallel_test parallel_training_test \
  --target incremental_training_test \
  --target obs_test forward_backward_test detector_test online_monitor_test \
  --target decision_trace_test model_io_test util_test

export TSAN_OPTIONS="halt_on_error=1 abort_on_error=1"
export ASAN_OPTIONS="halt_on_error=1 abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1 abort_on_error=1 print_stacktrace=1"
(cd "$BUILD_DIR" && ctest --output-on-failure -R "$TESTS")

echo "Sanitizer smoke ($SANITIZER): clean"
