// Load generator for the cmarkovd serving layer: K concurrent sessions
// (one producer thread each) replay workload::program_suite traces through
// a SessionManager worker pool and the bench reports aggregate events/sec,
// per-session drop/alarm counters and enqueue-to-verdict latency quantiles.
//
//   bench_serve_throughput [--sessions K] [--events-per-session N]
//                          [--workers W] [--queue C]
//                          [--policy block|drop-oldest|reject]
//                          [--trace off|sample|sample-periodic|always]
//                          [--failpoints disabled|armed]
//                          [--admin off|on] [--admin-scrape-ms MS]
//                          [--full]
//
// Acceptance target (ISSUE 1): >= 100k events/sec aggregate across >= 8
// concurrent sessions under the block policy (nothing dropped).
//
// --trace measures the event-tracing overhead (ISSUE 5, BENCH_obs.json):
// `off` leaves the tracer and decision audit disabled, `sample` records
// 1-in-100 windows/spans, `always` records every window and span. The
// always-on configuration must stay within 3% of `off`.
//
// --failpoints measures the chaos harness overhead (ISSUE 8,
// BENCH_serve.json): `disabled` is the production steady state (every
// CMARKOV_FAILPOINT site pays one relaxed load of the process-wide armed
// counter), `armed` arms snapshot.write_torn with a trigger ordinal this
// workload never reaches, so every site — including serve.admit_full on
// each submit — takes the registry-backed policy evaluation without any
// fault actually firing. Interleave disabled/armed runs on the same host
// to bound both costs; the disabled case must stay within 1% of the
// pre-failpoint binary.
//
// --admin on measures the introspection-plane overhead (PR 10,
// BENCH_obs.json): the full production admin stack runs alongside the
// workload — an EpollServer hosting the HTTP admin plane on an ephemeral
// port, a TimeSeriesCollector sampling every instrument once a second,
// and one poller thread scraping /varz + /metrics + /statusz every
// --admin-scrape-ms (default 1000 ms, the production shape: Prometheus
// scrapes at 1 s or slower and `cmarkov top` defaults to 2 s; 100 ms is
// the stress cadence). Interleave on/off runs on the same host; `on` must
// stay within 3% of `off`.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/timeseries.hpp"
#include "src/serve/net/admin.hpp"
#include "src/serve/net/epoll_server.hpp"
#include "src/serve/session_manager.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

constexpr double kTargetEventsPerSecond = 100e3;

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
  const auto sessions =
      std::stoul(arg_value(argc, argv, "--sessions", "8"));
  const auto events_per_session = std::stoul(
      arg_value(argc, argv, "--events-per-session", full ? "100000" : "40000"));
  serve::ServiceConfig config;
  config.num_workers = std::stoul(arg_value(argc, argv, "--workers", "2"));
  config.queue_capacity = std::stoul(arg_value(argc, argv, "--queue", "4096"));
  const auto policy = serve::parse_backpressure_policy(
      arg_value(argc, argv, "--policy", "block"));
  if (!policy) {
    std::cerr << "unknown --policy (block|drop-oldest|reject)\n";
    return 1;
  }
  config.policy = *policy;

  // Tracing runs with the production-shaped bounded sinks (default span
  // log and decision log capacities, drop-accounted): the measured cost is
  // the sampling guard + record assembly, not an unbounded keep-everything
  // buffer.
  // `sample` is the production configuration: 1-in-100 plus a record for
  // every flagged window/alarm. `sample-periodic` switches the always-on
  // flagged path off to isolate the sampling mechanism's cost — this feed
  // cycles unrelated traces, so ~14% of its windows are genuinely flagged
  // seams and the audit-trail guarantee records all of them (a cost that
  // scales with the anomaly rate, not the event rate).
  const std::string trace_mode = arg_value(argc, argv, "--trace", "off");
  if (trace_mode == "sample" || trace_mode == "sample-periodic" ||
      trace_mode == "always") {
    const std::size_t every = trace_mode == "always" ? 1 : 100;
    config.tracing.enabled = true;
    config.tracing.sample_every = every;
    config.monitor.decisions.enabled = true;
    config.monitor.decisions.sample_every = every;
    config.monitor.decisions.always_on_flagged =
        trace_mode != "sample-periodic";
  } else if (trace_mode != "off") {
    std::cerr
        << "unknown --trace mode (off|sample|sample-periodic|always)\n";
    return 1;
  }

  const std::string admin_mode = arg_value(argc, argv, "--admin", "off");
  if (admin_mode != "on" && admin_mode != "off") {
    std::cerr << "unknown --admin mode (off|on)\n";
    return 1;
  }
  const auto admin_scrape_ms =
      std::stoul(arg_value(argc, argv, "--admin-scrape-ms", "1000"));

  const std::string failpoints =
      arg_value(argc, argv, "--failpoints", "disabled");
  if (failpoints == "armed") {
    // An armed point anywhere flips the global fast-path gate: every site
    // now evaluates its policy per pass. after:N with an unreachable N
    // keeps the run fault-free while exercising that full slow path.
    util::FailpointRegistry::instance().arm(
        "snapshot.write_torn",
        util::FailpointSpec{util::FailpointMode::kAfterN,
                            std::uint64_t{1} << 62});
  } else if (failpoints != "disabled") {
    std::cerr << "unknown --failpoints mode (disabled|armed)\n";
    return 1;
  }

  std::cout << "cmarkovd load generator: " << sessions << " sessions x "
            << events_per_session << " events, " << config.num_workers
            << " workers, queue=" << config.queue_capacity
            << ", policy=" << serve::backpressure_policy_name(config.policy)
            << ", trace=" << trace_mode << ", failpoints=" << failpoints
            << ", admin=" << admin_mode << "\n";

  const workload::ProgramSuite gzip = workload::make_gzip_suite();
  const workload::ProgramSuite sed = workload::make_sed_suite();
  serve::ModelRegistry registry;
  registry.add("gzip", train_detector(gzip, 91));
  registry.add("sed", train_detector(sed, 17));

  std::vector<std::string> ids;
  std::vector<std::vector<trace::CallEvent>> feeds;
  for (std::size_t i = 0; i < sessions; ++i) {
    const bool is_gzip = i % 2 == 0;
    ids.push_back((is_gzip ? "gzip-" : "sed-") + std::to_string(i));
    feeds.push_back(build_feed(is_gzip ? gzip : sed, events_per_session,
                               300 + i));
  }

  serve::SessionManager manager(registry, config);
  for (std::size_t i = 0; i < sessions; ++i) {
    manager.open_session(ids[i], i % 2 == 0 ? "gzip" : "sed");
  }

  // The production introspection stack, measured whole: admin HTTP plane
  // on its own ephemeral listener, 1 Hz collector, one scraping poller.
  std::unique_ptr<serve::net::AdminHandler> admin;
  std::unique_ptr<obs::TimeSeriesCollector> collector;
  std::unique_ptr<serve::net::EpollServer> admin_server;
  std::atomic<bool> stop_poller{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::thread poller;
  if (admin_mode == "on") {
    admin = std::make_unique<serve::net::AdminHandler>(manager);
    obs::CollectorOptions copts;
    copts.pre_sample = [&manager] { (void)manager.metrics_registry(); };
    collector = std::make_unique<obs::TimeSeriesCollector>(
        manager.instruments(), std::move(copts));
    admin->set_collector(collector.get());
    serve::net::NetOptions net;
    net.port = 0;
    net.num_loops = 1;
    net.admin = admin.get();
    net.admin_port = 0;
    admin_server = std::make_unique<serve::net::EpollServer>(manager, net);
    admin_server->start();
    collector->start();
    const std::uint16_t admin_port = admin_server->admin_port();
    poller = std::thread([&stop_poller, &scrapes, admin_port,
                          admin_scrape_ms] {
      while (!stop_poller.load(std::memory_order_relaxed)) {
        try {
          (void)serve::net::admin_http_get("127.0.0.1", admin_port, "/varz");
          (void)serve::net::admin_http_get("127.0.0.1", admin_port,
                                           "/metrics");
          (void)serve::net::admin_http_get("127.0.0.1", admin_port,
                                           "/statusz");
          scrapes.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          // Scrape failures would show up as a suspiciously low count.
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(admin_scrape_ms));
      }
    });
  }

  Stopwatch watch;
  std::vector<std::thread> producers;
  producers.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    producers.emplace_back([&, i] {
      for (const auto& event : feeds[i]) manager.submit(ids[i], event);
    });
  }
  for (auto& producer : producers) producer.join();
  manager.drain();
  const double elapsed = watch.seconds();

  if (admin_mode == "on") {
    stop_poller.store(true, std::memory_order_relaxed);
    poller.join();
    collector->stop();
    admin_server->stop();
  }

  TablePrinter table({"Session", "Model", "Enqueued", "Processed", "Dropped",
                      "Rejected", "Windows", "Alarms"});
  for (const auto& id : ids) {
    const serve::SessionStats stats = manager.session_stats(id);
    table.add_row({stats.id, stats.model, std::to_string(stats.enqueued),
                   std::to_string(stats.processed),
                   std::to_string(stats.dropped),
                   std::to_string(stats.rejected),
                   std::to_string(stats.monitor.windows_scored),
                   std::to_string(stats.monitor.alarms)});
  }
  table.print();

  const obs::MetricsRegistry::Snapshot metrics =
      manager.metrics_registry().snapshot();
  const std::uint64_t processed =
      metrics.counters.at("cmarkov_serve_events_processed_total");
  const obs::HistogramSnapshot& latency =
      metrics.histograms.at("cmarkov_serve_latency_micros");
  const double events_per_second = static_cast<double>(processed) / elapsed;
  std::cout << "aggregate: " << processed << " events in "
            << format_double(elapsed, 2) << "s -> "
            << format_double(events_per_second, 0) << " events/sec\n";
  std::cout << "latency: p50=" << format_double(latency.p50, 0)
            << "us p99=" << format_double(latency.p99, 0) << "us ("
            << latency.count << " samples)\n";
  std::cout << "dropped="
            << metrics.counters.at("cmarkov_serve_events_dropped_total")
            << " rejected="
            << metrics.counters.at("cmarkov_serve_events_rejected_total")
            << " alarms=" << metrics.counters.at("cmarkov_serve_alarms_total")
            << "\n";
  if (admin_mode == "on") {
    std::cout << "admin: " << scrapes.load()
              << " scrape round(s) of /varz+/metrics+/statusz, "
              << collector->samples_taken() << " collector sample(s)\n";
  }
  if (trace_mode != "off") {
    std::cout << "tracing: spans=" << manager.tracer().recorded()
              << " (+" << manager.tracer().dropped() << " dropped)"
              << " decisions=" << manager.decision_log().appended()
              << " (+" << manager.decision_log().dropped() << " dropped)\n";
  }
  std::cout << "target " << format_double(kTargetEventsPerSecond, 0)
            << " events/sec: "
            << (events_per_second >= kTargetEventsPerSecond ? "PASS" : "FAIL")
            << "\n";
  return 0;
}
