#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "feeds.hpp"
#include "src/core/detector.hpp"
#include "src/core/model_io.hpp"
#include "src/core/online_monitor.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/obs/trace/chrome_trace.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/net/binary_session.hpp"
#include "src/serve/net/frame.hpp"
#include "src/serve/session_manager.hpp"
#include "src/trace/segmenter.hpp"
#include "src/workload/program_suite.hpp"

namespace perfbench {

namespace net = cmarkov::serve::net;
using cmarkov::obs::SpanRecord;

namespace {

/// Events the traced run replays per serve workload: enough for stable
/// per-event means, few enough that every pass takes well under a second.
constexpr std::size_t kTracedStreamBatches = 64;  // per session
constexpr std::size_t kTracedRuns = 1500;

/// Benchmark spans, kept in memory and written once at the end.
class Spans {
 public:
  Spans() : origin_(std::chrono::steady_clock::now()) {}

  /// Times `fn` as one span named `name`; `session` and `seq` tie the
  /// spans of one frame or one run together.
  template <typename Fn>
  void time(const char* name, const std::string& session, std::uint64_t seq,
            Fn&& fn) {
    const double start = now_us();
    fn();
    const double duration = now_us() - start;
    SpanRecord span;
    span.name = name;
    span.session = session;
    span.seq = seq;
    span.start_micros = start;
    span.duration_micros = duration;
    records_.push_back(std::move(span));
    auto& total = totals_[name];
    total.first += duration;
    total.second += 1;
  }

  double total_us(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.first;
  }
  std::uint64_t count(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.second;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << cmarkov::obs::chrome_trace_json(records_);
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> records_;
  std::map<std::string, std::pair<double, std::uint64_t>> totals_;
};

/// One replayed session: its model and its EV batches in arrival order.
struct Replay {
  std::string model;
  std::vector<Events> batches;
};

std::vector<Replay> stream_replays(std::uint64_t seed) {
  std::vector<Replay> out;
  for (const StreamFeed& feed : make_stream_feeds(seed)) {
    Replay replay{feed.model, {}};
    FeedCursor cursor(feed);
    for (std::size_t b = 0; b < kTracedStreamBatches; ++b) {
      Events batch;
      cursor.next(kBatchEvents, batch);
      replay.batches.push_back(std::move(batch));
    }
    out.push_back(std::move(replay));
  }
  return out;
}

std::vector<Replay> runs_replays(std::uint64_t seed) {
  const RunsPlan plan = make_runs_plan(seed);
  RunOrder order(plan);
  std::vector<Replay> out;
  for (std::size_t r = 0; r < kTracedRuns; ++r) {
    const RunInput& run = plan.pool[order.next()];
    Replay replay{run.model, {}};
    for (std::size_t at = 0; at < run.events.size(); at += kBatchEvents) {
      const auto end = std::min(run.events.size(), at + kBatchEvents);
      replay.batches.emplace_back(
          run.events.begin() + static_cast<std::ptrdiff_t>(at),
          run.events.begin() + static_cast<std::ptrdiff_t>(end));
    }
    out.push_back(std::move(replay));
  }
  return out;
}

/// Visits every (session, batch) in the order the daemon would see it:
/// stream sessions interleave batch by batch; runs are one after another.
template <typename Fn>
void for_each_batch(const std::vector<Replay>& replays, bool interleave,
                    Fn&& fn) {
  if (!interleave) {
    for (std::size_t s = 0; s < replays.size(); ++s) {
      for (std::size_t b = 0; b < replays[s].batches.size(); ++b) fn(s, b);
    }
    return;
  }
  std::size_t longest = 0;
  for (const Replay& r : replays) longest = std::max(longest, r.batches.size());
  for (std::size_t b = 0; b < longest; ++b) {
    for (std::size_t s = 0; s < replays.size(); ++s) {
      if (b < replays[s].batches.size()) fn(s, b);
    }
  }
}

/// The configuration `cmarkov train <program> --filter <f> --threads N`
/// builds.
cmarkov::core::DetectorConfig cli_config(cmarkov::analysis::CallFilter filter,
                                         std::size_t threads) {
  cmarkov::core::DetectorConfig config;
  config.pipeline.filter = filter;
  config.pipeline.context_sensitive = true;
  config.target_fp = 0.001;
  config.pipeline.exec.threads = threads;
  config.training.exec.threads = threads;
  return config;
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

}  // namespace

void traced_serve(const ServeOptions& options, const std::string& trace_out,
                  Report& report) {
  const bool stream = options.workload == "stream";
  const std::vector<Replay> replays =
      stream ? stream_replays(options.seed) : runs_replays(options.seed);
  const cmarkov::serve::ServiceConfig daemon = daemon_config(options.workload);
  Spans spans;

  // Model load, as the daemon does it at start-up.
  cmarkov::serve::ModelRegistry registry;
  std::map<std::string, std::shared_ptr<const cmarkov::core::ScoringKernel>>
      kernels;
  std::map<std::string, std::shared_ptr<const cmarkov::core::Detector>>
      detectors;
  for (const ModelSpec& spec : serve_models(options.workload)) {
    std::optional<cmarkov::core::Detector> detector;
    spans.time("core.load_detector_file", spec.program, 0, [&] {
      detector.emplace(cmarkov::core::load_detector_file(
          options.models_dir + "/" + spec.key() + ".model"));
    });
    registry.add(spec.program, std::move(*detector));
    detectors[spec.program] = registry.require(spec.program);
    kernels[spec.program] =
        cmarkov::core::ScoringKernel::compile(*detectors[spec.program]);
  }

  std::vector<std::vector<std::string>> frames(replays.size());
  std::uint64_t events = 0;
  for (std::size_t s = 0; s < replays.size(); ++s) {
    for (const Events& batch : replays[s].batches) {
      frames[s].push_back(net::encode_frame(
          net::FrameOp::kEventBatch, 0,
          net::encode_event_batch_payload(batch)));
      events += batch.size();
    }
  }

  // One pass over the batches in arrival order. Each batch goes through
  // the loop side (frame scan and decode, BinarySession::handle_frame on
  // manager A) and the worker side (drain() of A), then through the calls
  // those consist of, timed on their own on the same batch right after:
  // SessionManager::submit on manager B, OnlineMonitor::on_event on a
  // standalone monitor, and the two window scorers. Timing both sides of
  // each subtraction within the same few milliseconds keeps drift on a
  // shared host out of the self times. manual_pump runs no worker threads,
  // so the loop side and the worker side separate exactly.
  cmarkov::serve::ServiceConfig config = daemon;
  config.manual_pump = true;
  cmarkov::serve::SessionManager manager_a(registry, config);
  cmarkov::serve::SessionManager manager_b(registry, config);
  std::vector<std::unique_ptr<net::BinarySession>> sessions(replays.size());
  std::vector<std::string> ids(replays.size());
  std::vector<std::unique_ptr<cmarkov::core::OnlineMonitor>> monitors(
      replays.size());
  // Per session: the encoded ids of the monitor's current window.
  std::vector<std::vector<std::size_t>> slides(replays.size());
  cmarkov::core::KernelScratch scratch;
  std::uint64_t windows = 0;

  const auto frame = [&](std::size_t s, std::uint64_t seq,
                         const net::Frame& decoded) {
    net::BinarySession::Output out;
    spans.time("net.frame", replays[s].model, seq,
               [&] { out = sessions[s]->handle_frame(decoded); });
    net::FrameParser replies;
    replies.feed(out.bytes.data(), out.bytes.size());
    const std::optional<net::Frame> reply = replies.next();
    if (!reply || reply->op != net::FrameOp::kReply ||
        reply->payload.rfind("ERR", 0) == 0) {
      throw std::runtime_error("traced frame refused: " +
                               (reply ? reply->payload : out.bytes));
    }
  };
  const auto open = [&](std::size_t s) {
    const auto& model = replays[s].model;
    sessions[s] = std::make_unique<net::BinarySession>(manager_a);
    frame(s, 0,
          {net::FrameOp::kHello, 0,
           net::encode_hello_payload(model, "", "")});
    ids[s] = manager_b.next_session_id();
    spans.time("serve.open_session", ids[s], 0,
               [&] { manager_b.open_session(ids[s], model); });
    monitors[s] = std::make_unique<cmarkov::core::OnlineMonitor>(
        *detectors.at(model), nullptr, daemon.monitor,
        cmarkov::core::MonitorStorage{}, kernels.at(model));
    slides[s].clear();
  };
  const auto close = [&](std::size_t s, std::uint64_t seq) {
    frame(s, seq, {net::FrameOp::kBye, 0, ""});
    sessions[s].reset();
    spans.time("serve.close_session", ids[s], seq,
               [&] { (void)manager_b.close_session(ids[s]); });
  };
  const auto batch = [&](std::size_t s, std::size_t b) {
    const std::string& model = replays[s].model;
    const std::uint64_t seq = b + 1;
    net::FrameParser parser;
    std::optional<net::Frame> decoded;
    spans.time("net.parse", model, seq, [&] {
      parser.feed(frames[s][b].data(), frames[s][b].size());
      decoded = parser.next();
    });
    // Alternate which of handle_frame and the standalone decode runs
    // first, so neither always finds the payload warm in cache.
    Events batch_events;
    const auto decode = [&] {
      spans.time("net.decode", model, seq, [&] {
        batch_events = net::decode_event_batch_payload(decoded->payload);
      });
    };
    if (seq % 2 == 0) decode();
    frame(s, seq, *decoded);
    if (seq % 2 == 1) decode();
    // B's submits run on the same warm payload as A's, before any scoring.
    Events submitted = batch_events;
    spans.time("serve.submit", ids[s], seq, [&] {
      for (CallEvent& event : submitted) {
        if (manager_b.submit(ids[s], std::move(event)) !=
            cmarkov::serve::SubmitResult::kAccepted) {
          throw std::runtime_error("traced submit refused");
        }
      }
    });
    spans.time("serve.drain", model, seq, [&] { manager_a.drain(); });
    manager_b.drain();

    spans.time("core.on_event", model, seq, [&] {
      for (const CallEvent& event : batch_events) {
        monitors[s]->on_event(event);
      }
    });
    // The windows that monitor completed, encoded as it encodes them
    // (events of the other call kind are not part of any window).
    const auto& detector = *detectors.at(model);
    const auto& kernel = *kernels.at(model);
    const std::size_t length = detector.config().segments.length;
    std::vector<cmarkov::hmm::ObservationSeq> batch_windows;
    for (const CallEvent& event : batch_events) {
      if (!cmarkov::analysis::filter_matches(detector.config().pipeline.filter,
                                             event.kind)) {
        continue;
      }
      auto& slide = slides[s];
      slide.push_back(kernel.find_observation(event.name, event.caller));
      if (slide.size() > length) slide.erase(slide.begin());
      if (slide.size() == length) {
        batch_windows.emplace_back(slide.begin(), slide.end());
      }
    }
    windows += batch_windows.size();
    spans.time("core.score_window", model, seq, [&] {
      for (const auto& window : batch_windows) {
        (void)kernel.score_window(window, scratch);
      }
    });
    spans.time("core.score_segment", model, seq, [&] {
      cmarkov::hmm::ForwardResult forward;
      for (const auto& window : batch_windows) {
        (void)detector.score_segment(window, &forward);
      }
    });

  };

  if (stream) {
    for (std::size_t s = 0; s < replays.size(); ++s) open(s);
  }
  for_each_batch(replays, stream, [&](std::size_t s, std::size_t b) {
    if (!stream && b == 0) open(s);
    batch(s, b);
    if (!stream && b + 1 == replays[s].batches.size()) close(s, b + 2);
  });
  if (stream) {
    for (std::size_t s = 0; s < replays.size(); ++s) {
      close(s, replays[s].batches.size() + 1);
    }
  }
  spans.write(trace_out);

  const auto ev = static_cast<double>(events);
  const double opens = static_cast<double>(spans.count("serve.open_session"));
  const double parse_us = spans.total_us("net.parse");
  const double decode_us = spans.total_us("net.decode");
  const double frame_us = spans.total_us("net.frame");
  const double submit_us = spans.total_us("serve.submit");
  const double open_us = spans.total_us("serve.open_session");
  const double close_us = spans.total_us("serve.close_session");
  const double drain_us = spans.total_us("serve.drain");
  const double monitor_us = spans.total_us("core.on_event");
  report.set("net.decode_ns_per_event", per(parse_us + decode_us, ev) * 1e3,
             "ns", events);
  report.set("net.frame_ns_per_event",
             per(frame_us - decode_us - submit_us - open_us - close_us, ev) *
                 1e3,
             "ns", events);
  report.set("serve.submit_ns_per_event", per(submit_us, ev) * 1e3, "ns",
             events);
  report.set("serve.dispatch_ns_per_event",
             per(drain_us - monitor_us, ev) * 1e3, "ns", events);
  report.set("serve.open_us", per(open_us, opens), "us",
             spans.count("serve.open_session"));
  report.set("serve.close_us", per(close_us, opens), "us",
             spans.count("serve.close_session"));
  report.set("core.monitor_ns_per_event", per(monitor_us, ev) * 1e3, "ns",
             events);
  const auto win = static_cast<double>(windows);
  report.set("core.kernel_ns_per_window",
             per(spans.total_us("core.score_window"), win) * 1e3, "ns",
             windows);
  report.set("core.reference_ns_per_window",
             per(spans.total_us("core.score_segment"), win) * 1e3, "ns",
             windows);
  report.set("core.model_load_ms",
             per(spans.total_us("core.load_detector_file"),
                 static_cast<double>(spans.count("core.load_detector_file"))) /
                 1e3,
             "ms", spans.count("core.load_detector_file"));
  // Every traced per-event cost: the loop side (scan + handle_frame, which
  // holds decode, submit, open and close) and the worker side (drain).
  const auto daemon_cpu = report.metrics.find("daemon.cpu_us_per_event");
  if (daemon_cpu != report.metrics.end() && daemon_cpu->second.value > 0) {
    report.set("trace.coverage",
               per(parse_us + frame_us + drain_us, ev) /
                   daemon_cpu->second.value,
               "ratio", events);
  }
}

void train_corpus(std::uint64_t seed, Report& report) {
  for (const std::string& name : cmarkov::workload::all_suite_names()) {
    const auto suite = cmarkov::workload::make_suite(name);
    const auto program = cmarkov::ir::ProgramModule::from_source(
        name, suite.module().source());
    const auto traces =
        collect_like_cli(program, kTrainTraces, train_seed(seed));
    for (const ModelSpec& spec : all_models()) {
      if (spec.program != name) continue;
      // The unique segments Detector::train fits: the EM work per iteration.
      const auto config = cli_config(spec.filter, 1);
      const auto detector = cmarkov::core::Detector::build(program, config);
      cmarkov::hmm::Alphabet alphabet = detector.alphabet();
      cmarkov::trace::SegmentSet unique(config.segments);
      std::uint64_t events = 0;
      for (const auto& trace : traces) {
        events += trace.count(spec.filter);
        unique.add_trace(cmarkov::trace::encode_trace(
            trace, spec.filter,
            cmarkov::hmm::ObservationEncoding::kContextSensitive, alphabet));
      }
      const std::string key = "corpus." + spec.key();
      report.set(key + ".runs", static_cast<double>(traces.size()), "count",
                 traces.size());
      report.set(key + ".events", static_cast<double>(events), "count",
                 events);
      report.set(key + ".segment_events",
                 static_cast<double>(unique.size() * config.segments.length),
                 "count", unique.size());
    }
  }
}

void traced_train(std::uint64_t seed, std::size_t threads,
                  const std::string& models_out, double train_wall_s,
                  const std::string& trace_out, Report& report) {
  Spans spans;
  std::filesystem::create_directories(models_out);
  std::map<std::string, cmarkov::ir::ProgramModule> programs;
  for (const std::string& name : cmarkov::workload::all_suite_names()) {
    const auto suite = cmarkov::workload::make_suite(name);
    spans.time("ir.from_source", name, 0, [&] {
      programs.emplace(name, cmarkov::ir::ProgramModule::from_source(
                                 name, suite.module().source()));
    });
  }
  std::uint64_t iterations = 0;
  std::uint64_t seq = 0;
  for (const ModelSpec& spec : all_models()) {
    ++seq;
    const auto& program = programs.at(spec.program);
    const auto config = cli_config(spec.filter, threads);
    std::optional<cmarkov::core::Detector> detector;
    spans.time("core.build", spec.key(), seq, [&] {
      detector.emplace(cmarkov::core::Detector::build(program, config));
    });
    std::vector<cmarkov::trace::Trace> traces;
    spans.time("trace.collect", spec.key(), seq, [&] {
      traces = collect_like_cli(program, kTrainTraces, train_seed(seed));
    });
    spans.time("hmm.fit", spec.key(), seq,
               [&] { iterations += detector->train(traces).iterations; });
    spans.time("core.save", spec.key(), seq, [&] {
      cmarkov::core::save_detector_file(
          models_out + "/" + spec.key() + ".model", *detector);
    });
  }
  spans.write(trace_out);

  const auto models = static_cast<std::uint64_t>(all_models().size());
  const double fit_s = spans.total_us("hmm.fit") / 1e6;
  report.set("ir.parse_s", spans.total_us("ir.from_source") / 1e6, "s",
             spans.count("ir.from_source"));
  report.set("core.build_s", spans.total_us("core.build") / 1e6, "s", models);
  report.set("trace.collect_s", spans.total_us("trace.collect") / 1e6, "s",
             models);
  report.set("hmm.fit_s", fit_s, "s", models);
  report.set("hmm.ms_per_iteration",
             per(fit_s * 1e3, static_cast<double>(iterations)), "ms",
             iterations);
  report.set("hmm.em_iterations", static_cast<double>(iterations), "count",
             models);
  report.set("core.save_s", spans.total_us("core.save") / 1e6, "s", models);
  if (train_wall_s > 0) {
    const double traced_s =
        (spans.total_us("ir.from_source") + spans.total_us("core.build") +
         spans.total_us("trace.collect") + spans.total_us("hmm.fit") +
         spans.total_us("core.save")) /
        1e6;
    report.set("trace.coverage", traced_s / train_wall_s, "ratio", models);
  }
}

}  // namespace perfbench
