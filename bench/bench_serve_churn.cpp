// Churn bench for the cmarkovd session lifecycle: many more sessions than
// the resident budget, producers sweeping across all of them so every
// touch of a cold session restores it from the snapshot store and pushes
// an idle one out (approximate-LRU eviction). Measures sustained scoring
// throughput WITH the lifecycle machinery in the hot path, the eviction/
// restore rate, and the measured bytes/session against an explicit budget.
//
//   bench_serve_churn [--sessions K] [--resident R] [--sweeps N]
//                     [--burst B] [--producers P] [--workers W]
//                     [--queue C] [--budget BYTES] [--target EV_PER_SEC]
//                     [--full]
//
// --resident >= --sessions disables eviction entirely: run that first to
// measure the host's no-churn ceiling, then compare — the lifecycle
// machinery's cost is the gap between the two, independent of how fast
// the container happens to be that day.
//
// Acceptance (ISSUE 6): sustain >= ~450k events/sec single-core under
// live connect/evict/restore churn, and keep the per-session resident
// state within the bytes/session budget. Results land in BENCH_serve.json.
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/session_manager.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

/// ISSUE 6 acceptance figure, calibrated on the reference CI host. The
/// container fleet's per-core speed varies ~2x run to run; --target
/// overrides for slower hosts (compare against the no-churn ceiling).
constexpr double kTargetEventsPerSecond = 450e3;

core::Detector train_detector(const workload::ProgramSuite& suite,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 6;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 30, seed).traces);
  return detector;
}

/// Cycles a suite's benign trace events into a feed of exactly `count`.
std::vector<trace::CallEvent> build_feed(const workload::ProgramSuite& suite,
                                         std::size_t count,
                                         std::uint64_t seed) {
  std::vector<trace::CallEvent> pool;
  for (const auto& trace : workload::collect_traces(suite, 5, seed).traces) {
    pool.insert(pool.end(), trace.events.begin(), trace.events.end());
  }
  std::vector<trace::CallEvent> feed;
  feed.reserve(count);
  while (feed.size() < count) {
    feed.insert(feed.end(), pool.begin(),
                pool.begin() + static_cast<std::ptrdiff_t>(std::min(
                                   pool.size(), count - feed.size())));
  }
  return feed;
}

std::string arg_value(int argc, char** argv, const std::string& flag,
                      const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full =
      has_flag(argc, argv, "--full") || std::getenv("CMARKOV_FULL") != nullptr;
  const auto sessions = std::stoul(arg_value(argc, argv, "--sessions", "64"));
  const auto resident = std::stoul(arg_value(argc, argv, "--resident", "16"));
  const auto sweeps =
      std::stoul(arg_value(argc, argv, "--sweeps", full ? "40" : "12"));
  const auto burst = std::stoul(arg_value(argc, argv, "--burst", "512"));
  const auto producers_n =
      std::stoul(arg_value(argc, argv, "--producers", "4"));
  const auto bytes_budget =
      std::stoul(arg_value(argc, argv, "--budget", "16384"));
  const double target = std::stod(arg_value(
      argc, argv, "--target", std::to_string(kTargetEventsPerSecond)));
  serve::ServiceConfig config;
  config.num_workers = std::stoul(arg_value(argc, argv, "--workers", "2"));
  config.queue_capacity = std::stoul(arg_value(argc, argv, "--queue", "4096"));
  config.policy = serve::BackpressurePolicy::kBlock;
  config.max_resident_sessions = resident;

  std::cout << "cmarkovd churn generator: " << sessions << " sessions, "
            << resident << " resident, " << producers_n << " producers x "
            << sweeps << " sweeps x " << burst << " event bursts, "
            << config.num_workers << " workers, queue="
            << config.queue_capacity << "\n";

  const workload::ProgramSuite gzip = workload::make_gzip_suite();
  serve::ModelRegistry registry;
  registry.add("gzip", train_detector(gzip, 91));

  // One burst-sized feed per producer (sessions of one producer replay the
  // same events; what varies under churn is WHICH session is resident).
  std::vector<std::vector<trace::CallEvent>> feeds;
  for (std::size_t p = 0; p < producers_n; ++p) {
    feeds.push_back(build_feed(gzip, burst, 300 + p));
  }

  serve::SessionManager manager(registry, config);
  for (std::size_t i = 0; i < sessions; ++i) {
    manager.open_session("churn-" + std::to_string(i), "gzip");
  }

  // Producers own disjoint session slices and sweep them round-robin: with
  // sessions >> resident every burst lands on an evicted session, so each
  // burst pays one restore and (via the residency budget) one eviction.
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(producers_n);
  for (std::size_t p = 0; p < producers_n; ++p) {
    threads.emplace_back([&, p] {
      for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
        for (std::size_t i = p; i < sessions; i += producers_n) {
          const std::string id = "churn-" + std::to_string(i);
          for (const auto& event : feeds[p]) manager.submit(id, event);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  manager.drain();
  const double elapsed = watch.seconds();

  // One refreshed snapshot (bytes/session and residency are gauges).
  const obs::MetricsRegistry::Snapshot metrics =
      manager.metrics_registry().snapshot();
  const std::uint64_t processed =
      metrics.counters.at("cmarkov_serve_events_processed_total");
  const std::uint64_t dropped =
      metrics.counters.at("cmarkov_serve_events_dropped_total");
  const std::uint64_t rejected =
      metrics.counters.at("cmarkov_serve_events_rejected_total");
  const std::uint64_t evictions =
      metrics.counters.at("cmarkov_serve_sessions_evicted_total");
  const std::uint64_t restores =
      metrics.counters.at("cmarkov_serve_sessions_restored_total");
  const double bytes_per_session =
      metrics.gauges.at("cmarkov_serve_session_state_bytes");
  const obs::HistogramSnapshot& latency =
      metrics.histograms.at("cmarkov_serve_latency_micros");

  const double events_per_second = static_cast<double>(processed) / elapsed;
  const double evictions_per_second =
      static_cast<double>(evictions) / elapsed;
  const double events_per_eviction =
      evictions == 0 ? 0.0
                     : static_cast<double>(processed) /
                           static_cast<double>(evictions);

  TablePrinter table({"Metric", "Value"});
  table.add_row({"events processed", std::to_string(processed)});
  table.add_row({"elapsed seconds", format_double(elapsed, 2)});
  table.add_row({"events/sec", format_double(events_per_second, 0)});
  table.add_row({"evictions", std::to_string(evictions)});
  table.add_row({"restores", std::to_string(restores)});
  table.add_row({"evictions/sec", format_double(evictions_per_second, 0)});
  table.add_row({"events/eviction", format_double(events_per_eviction, 0)});
  table.add_row({"resident sessions",
                 std::to_string(manager.resident_sessions())});
  table.add_row({"bytes/session (avg)", format_double(bytes_per_session, 0)});
  table.add_row({"snapshot store size",
                 std::to_string(manager.snapshot_store().size())});
  table.add_row({"state pool entries",
                 std::to_string(manager.state_pool().size())});
  table.add_row({"p50 latency us", format_double(latency.p50, 0)});
  table.add_row({"p99 latency us", format_double(latency.p99, 0)});
  table.print();

  if (dropped != 0 || rejected != 0) {
    std::cout << "WARNING: block policy dropped/rejected events (" << dropped
              << "/" << rejected << ")\n";
  }

  const bool throughput_ok = events_per_second >= target;
  const bool bytes_ok =
      bytes_per_session > 0 &&
      bytes_per_session <= static_cast<double>(bytes_budget);
  std::cout << "target " << format_double(target, 0)
            << " events/sec under churn: "
            << (throughput_ok ? "PASS" : "FAIL") << "\n";
  std::cout << "bytes/session " << format_double(bytes_per_session, 0)
            << " within " << bytes_budget
            << " byte budget: " << (bytes_ok ? "PASS" : "FAIL") << "\n";
  return throughput_ok && bytes_ok ? 0 : 1;
}
