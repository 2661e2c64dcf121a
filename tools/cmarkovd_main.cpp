// cmarkovd — the concurrent multi-session scoring daemon over trained
// detectors (docs/SERVING.md).
//
//   cmarkovd --model <name>=<path> [--model ...] [--models-dir DIR]
//            [--workers N] [--queue N] [--policy block|drop-oldest|reject]
//            [--windows-to-alarm N] [--cooldown N]
//            [--max-sessions N] [--snapshot-dir DIR]
//            [--trace-sample N] [--decision-log PATH] [--chrome-trace PATH]
//            [--replay <model>:<trace-file>]...   replay mode (batch)
//            [--tcp PORT] [--net-loops N]         epoll TCP front-end
//            [--admin-port PORT] [--collector-period-ms N]   admin plane
//
// With no --replay/--tcp the daemon speaks the line protocol on
// stdin/stdout (HELLO/EV/STATS/METRICS/TRACE/BYE — one response line per
// request). --replay pushes a recorded trace file through a full protocol
// session (HELLO, one EV per event, STATS, BYE) and prints the dialogue's
// verdict lines; repeat the flag to replay several sessions.
//
// --tcp runs the edge-triggered epoll front-end (src/serve/net): each
// connection speaks either the CMKB binary frame protocol or the text line
// protocol (auto-detected). --max-sessions bounds resident sessions (LRU
// eviction into the snapshot store); --snapshot-dir persists evicted
// sessions across restarts (reloaded at boot).
//
// Tracing (docs/OBSERVABILITY.md): --trace-sample N enables the span
// tracer and decision audit at 1-in-N (1 = every window, 0 = only flagged
// windows/alarms, which are always recorded). --decision-log writes the
// service-wide `cmarkov.decision.v1` JSONL on exit; --chrome-trace writes
// the recorded queue/score/reply spans as a Chrome-trace JSON array. The
// sinks flush when replay or stdin mode finishes, or on SIGINT/SIGTERM in
// TCP mode.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/model_io.hpp"
#include "src/obs/export.hpp"
#include "src/obs/timeseries.hpp"
#include "src/obs/trace/chrome_trace.hpp"
#include "src/serve/drift_monitor.hpp"
#include "src/serve/net/epoll_server.hpp"
#include "src/serve/protocol.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/logging.hpp"
#include "src/util/strings.hpp"

using namespace cmarkov;

namespace {

struct DaemonOptions {
  std::vector<std::pair<std::string, std::string>> models;  // name -> path
  std::string models_dir;
  std::vector<std::pair<std::string, std::string>> replays;  // model -> trace
  std::uint16_t tcp_port = 0;
  std::size_t net_loops = 1;
  std::uint64_t handshake_timeout_ms = 30'000;
  /// --admin-port: HTTP admin plane (/metrics /healthz /varz /statusz) on
  /// its own listener; 0 = disabled. Requires --tcp.
  std::uint16_t admin_port = 0;
  /// /varz collector sampling period (ring derivation window is
  /// period * 120 samples).
  std::uint64_t collector_period_ms = 1000;
  std::string decision_log_path;
  std::string chrome_trace_path;
  /// --drift <model>=<trainer-state>: arm drift-triggered refresh.
  std::string drift_model;
  std::string drift_state_path;
  serve::DriftOptions drift;
  serve::ServiceConfig service;
};

int usage() {
  std::cerr
      << "usage: cmarkovd --model <name>=<path> [--model ...]\n"
         "                [--models-dir DIR] [--workers N] [--queue N]\n"
         "                [--policy block|drop-oldest|reject]\n"
         "                [--windows-to-alarm N] [--cooldown N]\n"
         "                [--max-sessions N] [--snapshot-dir DIR]\n"
         "                [--trace-sample N] [--decision-log PATH]\n"
         "                [--chrome-trace PATH]\n"
         "                [--replay <model>:<trace-file>]...\n"
         "                [--tcp PORT] [--net-loops N]\n"
         "                [--handshake-timeout-ms N] (0 = never reap)\n"
         "                [--admin-port PORT] (0 = disabled; needs --tcp)\n"
         "                [--collector-period-ms N]\n"
         "                [--overload on|off] [--deadline-ms N]\n"
         "                [--drift <model>=<trainer-state>]\n"
         "                [--drift-threshold KS] [--drift-baseline N]\n"
         "                [--drift-recent N] [--drift-consecutive N]\n"
         "                [--drift-min-absorb N]\n"
         "With neither --replay nor --tcp, serves the line protocol on\n"
         "stdin/stdout: HELLO <model> [id] [tid=T] | EV <site> <callee>\n"
         "[sys|lib] [tid=T] | STATS | METRICS | TRACE [n] | FAILPOINT |\n"
         "BYE\n"
         "--deadline-ms sets the per-event latency budget the overload\n"
         "degradation ladder defends (docs/SERVING.md). Failpoints can be\n"
         "pre-armed via CMARKOV_FAILPOINTS=\"name=spec,...\" in the\n"
         "environment. --admin-port (with --tcp) serves the HTTP admin\n"
         "plane (GET /metrics /healthz /varz /statusz); /varz derives\n"
         "rates from rings sampled every --collector-period-ms, and\n"
         "`cmarkov top --port PORT` renders it live (docs/SERVING.md).\n"
         "--drift watches the named model's score\n"
         "distribution for shift and, when confirmed, absorbs recent\n"
         "clean windows via incremental retraining and hot-reloads the\n"
         "refreshed model (the trainer state comes from\n"
         "`cmarkov train --save-state`; see docs/SERVING.md).\n";
  return 1;
}

DaemonOptions parse_options(int argc, char** argv) {
  DaemonOptions options;
  auto need_value = [&](int i) -> std::string {
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string("missing value for ") + argv[i]);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = need_value(i);
    if (flag == "--model") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("--model expects <name>=<path>");
      }
      options.models.emplace_back(value.substr(0, eq), value.substr(eq + 1));
    } else if (flag == "--models-dir") {
      options.models_dir = value;
    } else if (flag == "--replay") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        throw std::runtime_error("--replay expects <model>:<trace-file>");
      }
      options.replays.emplace_back(value.substr(0, colon),
                                   value.substr(colon + 1));
    } else if (flag == "--tcp") {
      options.tcp_port = parse_port(value);
    } else if (flag == "--net-loops") {
      options.net_loops = std::stoul(value);
    } else if (flag == "--handshake-timeout-ms") {
      options.handshake_timeout_ms = std::stoull(value);
    } else if (flag == "--admin-port") {
      options.admin_port = parse_port(value);
    } else if (flag == "--collector-period-ms") {
      options.collector_period_ms = std::stoull(value);
      if (options.collector_period_ms == 0) {
        throw std::runtime_error("--collector-period-ms must be > 0");
      }
    } else if (flag == "--overload") {
      if (value != "on" && value != "off") {
        throw std::runtime_error("--overload expects on|off");
      }
      options.service.overload.enabled = value == "on";
    } else if (flag == "--deadline-ms") {
      options.service.overload.event_deadline_micros =
          static_cast<double>(std::stoull(value)) * 1000.0;
    } else if (flag == "--max-sessions") {
      options.service.max_resident_sessions = std::stoul(value);
    } else if (flag == "--snapshot-dir") {
      options.service.snapshot_dir = value;
    } else if (flag == "--workers") {
      options.service.num_workers = std::stoul(value);
    } else if (flag == "--queue") {
      options.service.queue_capacity = std::stoul(value);
    } else if (flag == "--policy") {
      const auto policy = serve::parse_backpressure_policy(value);
      if (!policy) {
        throw std::runtime_error("unknown policy '" + value +
                                 "' (block|drop-oldest|reject)");
      }
      options.service.policy = *policy;
    } else if (flag == "--windows-to-alarm") {
      options.service.monitor.windows_to_alarm = std::stoul(value);
    } else if (flag == "--cooldown") {
      options.service.monitor.cooldown_events = std::stoul(value);
    } else if (flag == "--trace-sample") {
      options.service.tracing.enabled = true;
      options.service.tracing.sample_every = std::stoul(value);
      options.service.monitor.decisions.enabled = true;
      options.service.monitor.decisions.sample_every = std::stoul(value);
    } else if (flag == "--decision-log") {
      options.decision_log_path = value;
      // The sink is useless without the audit; flagged windows and alarms
      // are always recorded once decisions are on.
      options.service.monitor.decisions.enabled = true;
      options.service.tracing.enabled = true;
    } else if (flag == "--chrome-trace") {
      options.chrome_trace_path = value;
      options.service.tracing.enabled = true;
    } else if (flag == "--drift") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("--drift expects <model>=<trainer-state>");
      }
      options.drift_model = value.substr(0, eq);
      options.drift_state_path = value.substr(eq + 1);
    } else if (flag == "--drift-threshold") {
      options.drift.ks_threshold = std::stod(value);
    } else if (flag == "--drift-baseline") {
      options.drift.baseline_windows = std::stoul(value);
    } else if (flag == "--drift-recent") {
      options.drift.recent_windows = std::stoul(value);
    } else if (flag == "--drift-consecutive") {
      options.drift.consecutive_epochs = std::stoul(value);
    } else if (flag == "--drift-min-absorb") {
      options.drift.min_absorb_segments = std::stoul(value);
    } else {
      throw std::runtime_error("unknown flag '" + flag + "'");
    }
  }
  return options;
}

/// Replays a recorded trace through a full protocol conversation; prints
/// only the interesting response lines (HELLO/STATS/BYE and any errors).
void replay_trace(serve::SessionManager& sessions, const std::string& model,
                  const std::string& trace_path) {
  const trace::Trace trace = trace::read_trace_file(trace_path);
  serve::ProtocolSession session(sessions);
  std::cout << session.handle_line("HELLO " + model) << "\n";
  std::size_t errors = 0;
  for (const auto& event : trace.events) {
    const std::string site = event.caller.empty() ? "?" : event.caller;
    const char* kind = event.kind == ir::CallKind::kLibcall ? "lib" : "sys";
    const std::string response = session.handle_line(
        "EV " + site + " " + event.name + " " + kind);
    if (starts_with(response, "ERR")) {
      ++errors;
      std::cout << response << "\n";
    }
  }
  if (errors > 0) std::cout << errors << " events not accepted\n";
  std::cout << session.handle_line("STATS") << "\n";
  std::cout << session.handle_line("BYE") << "\n";
}

/// The epoll TCP front-end: edge-triggered event loops over both the CMKB
/// binary frame protocol and the text line protocol (auto-detected per
/// connection). Blocks until SIGINT/SIGTERM.
int serve_tcp(serve::SessionManager& sessions, const DaemonOptions& options,
              serve::DriftRefresher* refresher) {
  static volatile std::sig_atomic_t g_stop = 0;
  std::signal(SIGINT, [](int) { g_stop = 1; });
  std::signal(SIGTERM, [](int) { g_stop = 1; });
  serve::net::NetOptions net;
  net.port = options.tcp_port;
  net.num_loops = options.net_loops;
  net.handshake_timeout_micros = options.handshake_timeout_ms * 1000;

  // The admin plane (docs/OBSERVABILITY.md): a second listener speaking
  // HTTP/1.1 on the shared event loops, backed by a collector thread that
  // samples the registry into rolling rings so /varz can serve derived
  // rates without touching the scoring hot path.
  std::unique_ptr<serve::net::AdminHandler> admin;
  std::unique_ptr<obs::TimeSeriesCollector> collector;
  if (options.admin_port > 0) {
    admin = std::make_unique<serve::net::AdminHandler>(sessions);
    obs::CollectorOptions copts;
    copts.period_seconds =
        static_cast<double>(options.collector_period_ms) / 1000.0;
    // Gauges (sessions, queue depths, per-shard occupancy) are refreshed
    // by the scrape path; make the collector do the same before sampling.
    copts.pre_sample = [&sessions] {
      (void)sessions.metrics_registry();
    };
    collector = std::make_unique<obs::TimeSeriesCollector>(
        sessions.instruments(), std::move(copts));
    admin->set_collector(collector.get());
    if (refresher != nullptr) admin->set_drift_monitor(&refresher->monitor());
    net.admin = admin.get();
    net.admin_port = options.admin_port;
  }

  serve::net::EpollServer server(sessions, net);
  server.start();
  if (collector != nullptr) collector->start();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // Drift refresh runs on this idle thread: partial_fit + hot reload
    // happen here while the workers keep scoring against the old version.
    if (refresher != nullptr) refresher->poll();
  }
  log_info() << "cmarkovd: shutting down";
  if (collector != nullptr) collector->stop();
  server.stop();
  return 0;
}

/// Writes the --decision-log / --chrome-trace sinks once a batch mode
/// (replay or stdin) has finished. Drains first so every queued event's
/// record and spans are included.
void flush_trace_sinks(serve::SessionManager& sessions,
                       const DaemonOptions& options) {
  if (options.decision_log_path.empty() && options.chrome_trace_path.empty()) {
    return;
  }
  sessions.drain();
  if (!options.decision_log_path.empty()) {
    std::ofstream out(options.decision_log_path);
    if (!out) {
      throw std::runtime_error("cannot write decision log to " +
                               options.decision_log_path);
    }
    const auto& log = sessions.decision_log();
    out << log.to_jsonl();
    log_info() << "cmarkovd: " << log.appended() << " decision record(s) ("
               << log.dropped() << " dropped) -> "
               << options.decision_log_path;
  }
  if (!options.chrome_trace_path.empty()) {
    std::ofstream out(options.chrome_trace_path);
    if (!out) {
      throw std::runtime_error("cannot write chrome trace to " +
                               options.chrome_trace_path);
    }
    const auto spans = sessions.tracer().snapshot();
    out << obs::chrome_trace_json(spans);
    log_info() << "cmarkovd: " << spans.size() << " span(s) -> "
               << options.chrome_trace_path;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const DaemonOptions options = parse_options(argc, argv);
    // Chaos configs pre-arm fault-injection sites before anything can
    // touch them (CMARKOV_FAILPOINTS="snapshot.write_fail=once,...").
    const std::size_t armed = util::arm_failpoints_from_env();
    if (armed > 0) {
      log_info() << "cmarkovd: " << armed
                 << " failpoint(s) armed from CMARKOV_FAILPOINTS";
    }
    serve::ModelRegistry registry;
    serve::SessionManager sessions(registry, options.service);
    for (const auto& [name, path] : options.models) {
      registry.load_file(name, path);
    }
    if (!options.models_dir.empty()) {
      registry.load_directory(options.models_dir);
    }
    if (registry.size() == 0) {
      std::cerr << "cmarkovd: no models loaded (use --model/--models-dir)\n";
      return usage();
    }
    log_info() << "cmarkovd: " << registry.size() << " model(s), "
               << options.service.num_workers << " worker(s), policy="
               << serve::backpressure_policy_name(options.service.policy);
    if (!options.service.snapshot_dir.empty()) {
      // Sessions evicted by a previous run resume transparently.
      sessions.snapshot_store().load_directory();
    }

    std::unique_ptr<serve::DriftRefresher> refresher;
    if (!options.drift_model.empty()) {
      registry.require(options.drift_model);  // fail fast
      hmm::TrainerState state =
          core::load_trainer_state_file(options.drift_state_path);
      refresher = std::make_unique<serve::DriftRefresher>(
          sessions, registry, options.drift_model,
          hmm::Trainer(std::move(state)), options.drift);
      sessions.set_drift_monitor(&refresher->monitor(),
                                           options.drift_model);
      log_info() << "cmarkovd: drift refresh armed for model '"
                 << options.drift_model << "' (ks>"
                 << options.drift.ks_threshold << " x"
                 << options.drift.consecutive_epochs << " epochs)";
    }
    // Workers must stop feeding the monitor before the refresher dies
    // (the manager outlives it in this scope).
    const auto detach_drift = [&] {
      if (refresher != nullptr) {
        sessions.set_drift_monitor(nullptr, {});
        sessions.drain();
      }
    };

    if (!options.replays.empty()) {
      for (const auto& [model, path] : options.replays) {
        replay_trace(sessions, model, path);
      }
      if (refresher != nullptr) {
        sessions.drain();
        refresher->poll();
      }
      std::cout << "METRICS " << obs::to_kv_line(sessions.metrics_registry())
                << "\n";
      flush_trace_sinks(sessions, options);
      detach_drift();
      return 0;
    }
    if (options.tcp_port > 0) {
      ::signal(SIGPIPE, SIG_IGN);
      const int status = serve_tcp(sessions, options, refresher.get());
      flush_trace_sinks(sessions, options);
      detach_drift();
      return status;
    }
    serve::serve_stream(sessions, std::cin, std::cout);
    if (refresher != nullptr) {
      sessions.drain();
      refresher->poll();
    }
    flush_trace_sinks(sessions, options);
    detach_drift();
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "cmarkovd: " << e.what() << "\n";
    return 1;
  }
}
