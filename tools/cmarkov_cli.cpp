// cmarkov — command-line front end for the library.
//
//   cmarkov list
//   cmarkov analyze <suite|file.minic> [--filter sys|lib]
//   cmarkov trace   <suite|file.minic> [--count N] [--seed S] --out <dir>
//   cmarkov train   <suite|file.minic> [--filter sys|lib] [--traces N]
//                   [--context 0|1] [--profile-json <path>] --out <model.txt>
//                   [--save-state <trainer.state>]
//   cmarkov train   <suite|file.minic> --incremental <base.detector>
//                   --resume-state <trainer.state> [--traces N] [--seed S]
//                   [--out <model.txt>] [--save-state <trainer.state>]
//   cmarkov scan    <model.txt> <trace.txt>...
//   cmarkov monitor <model.txt> <trace.txt>
//   cmarkov explain --model <model.txt> --trace <trace.txt>
//                   [--top N] [--json]
//   cmarkov top     --port <admin-port> [--host H] [--interval-ms N]
//                   [--iterations N] [--plain 1]
//
// `suite` is one of the built-in program analogues (gzip, bash, ...); a
// path ending in .minic is parsed as MiniC source. `top` polls a running
// cmarkovd's admin plane (--admin-port) and renders a live console view
// of throughput, latency quantiles, per-shard occupancy, and per-loop
// network counters (docs/SERVING.md).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "src/cfg/cfg_builder.hpp"
#include "src/core/detector.hpp"
#include "src/core/model_io.hpp"
#include "src/core/online_monitor.hpp"
#include "src/core/pipeline.hpp"
#include "src/eval/comparison.hpp"
#include "src/gadget/gadget_scanner.hpp"
#include "src/obs/export.hpp"
#include "src/obs/trace/chrome_trace.hpp"
#include "src/obs/trace/decision_record.hpp"
#include "src/serve/net/admin.hpp"
#include "src/trace/interpreter.hpp"
#include "src/trace/trace_io.hpp"
#include "src/util/json.hpp"
#include "src/util/parallel.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

/// --threads N (0 = one worker per hardware core). A count above
/// kMaxThreads is refused here, also by commands whose input turns out too
/// small to start a worker pool.
std::size_t threads_flag(const Args& args) {
  const auto threads =
      static_cast<std::size_t>(std::stoul(args.get("threads", "0")));
  resolve_num_threads(threads);
  return threads;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (starts_with(token, "--")) {
      if (i + 1 >= argc) {
        throw std::runtime_error("missing value for option " + token);
      }
      args.options[token.substr(2)] = argv[++i];
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

bool is_suite_name(const std::string& name) {
  const auto& names = workload::all_suite_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

ir::ProgramModule load_program(const std::string& target) {
  if (is_suite_name(target)) {
    // Re-parse the suite's source: ProgramModule owns its AST (move-only).
    const workload::ProgramSuite suite = workload::make_suite(target);
    return ir::ProgramModule::from_source(target, suite.module().source());
  }
  std::ifstream in(target);
  if (!in) {
    throw std::runtime_error("cannot open program '" + target +
                             "' (not a suite name or readable file)");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ir::ProgramModule::from_source(
      std::filesystem::path(target).stem().string(), buffer.str());
}

analysis::CallFilter parse_filter(const std::string& text) {
  if (text == "sys" || text == "syscall") return analysis::CallFilter::kSyscalls;
  if (text == "lib" || text == "libcall") return analysis::CallFilter::kLibcalls;
  if (text == "all") return analysis::CallFilter::kAll;
  throw std::runtime_error("unknown filter '" + text + "' (sys|lib|all)");
}

std::vector<trace::Trace> collect_program_traces(
    const ir::ProgramModule& program, std::size_t count,
    std::uint64_t seed) {
  const auto module_cfg = cfg::build_module_cfg(program);
  const trace::Interpreter interpreter(module_cfg);
  const trace::Symbolizer symbolizer(module_cfg);
  Rng rng(seed);
  std::vector<trace::Trace> traces;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::int64_t> inputs;
    const std::size_t len = 16 + rng.index(80);
    for (std::size_t j = 0; j < len; ++j) {
      inputs.push_back(rng.uniform_int(0, 99));
    }
    trace::SeededEnvironment environment(rng.engine()());
    auto run = interpreter.run(inputs, environment);
    if (!run.completed) continue;
    symbolizer.symbolize(run.trace);
    run.trace.program = program.name();
    traces.push_back(std::move(run.trace));
  }
  return traces;
}

int cmd_list() {
  TablePrinter table({"Suite", "Paper test cases", "Description"});
  for (const auto& name : workload::all_suite_names()) {
    const workload::ProgramSuite suite = workload::make_suite(name);
    table.add_row({name, std::to_string(suite.info().paper_test_cases),
                   suite.info().description});
  }
  table.print();
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) {
    throw std::runtime_error("analyze: need a suite name or .minic file");
  }
  const ir::ProgramModule program = load_program(args.positional[0]);
  const auto filter = parse_filter(args.get("filter", "sys"));

  core::PipelineConfig config;
  config.filter = filter;
  config.exec.threads = threads_flag(args);
  Rng rng(1);
  const auto result = core::run_static_pipeline(program, config, rng);

  std::cout << "program:        " << program.name() << "\n";
  std::cout << "functions:      " << program.stats().functions << "\n";
  std::cout << "source lines:   " << program.stats().source_lines << "\n";
  std::cout << "syscall sites:  " << program.stats().syscall_sites << "\n";
  std::cout << "libcall sites:  " << program.stats().libcall_sites << "\n";
  std::cout << "stream:         " << analysis::call_filter_name(filter)
            << "\n";
  std::cout << "distinct calls: " << result.distinct_calls
            << " (context-sensitive)\n";
  std::cout << "hidden states:  " << result.init.model.num_states() << "\n";
  std::cout << "matrix cells:   " << result.program_matrix.nonzero_count()
            << " non-zero\n";
  std::cout << "analysis time:  ";
  for (const auto& [phase, seconds] : result.timings.totals()) {
    std::cout << phase << "=" << format_double(seconds * 1e3, 2) << "ms ";
  }
  std::cout << "\n";
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.positional.empty()) {
    throw std::runtime_error("trace: need a suite name or .minic file");
  }
  const ir::ProgramModule program = load_program(args.positional[0]);
  const auto count = static_cast<std::size_t>(
      std::stoul(args.get("count", "10")));
  const auto seed = std::stoull(args.get("seed", "42"));
  const std::string out_dir = args.get("out", ".");
  std::filesystem::create_directories(out_dir);

  const auto traces = collect_program_traces(program, count, seed);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string path = out_dir + "/" + program.name() + "_" +
                             std::to_string(i) + ".trace";
    trace::write_trace_file(path, traces[i]);
  }
  std::cout << "wrote " << traces.size() << " traces to " << out_dir << "\n";
  return 0;
}

/// `train --incremental <base.detector> --resume-state <trainer-state>`:
/// absorbs freshly collected traces into an existing model via
/// hmm::Trainer::partial_fit instead of retraining from scratch. The
/// refreshed detector is bit-identical to a full retrain on the combined
/// corpus (trainer.hpp explains why) at a fraction of the cost.
int cmd_train_incremental(const Args& args, const std::string& base_path) {
  const std::string state_path = args.get("resume-state", "");
  if (state_path.empty()) {
    throw std::runtime_error(
        "train: --incremental needs --resume-state <trainer-state> "
        "(written by a previous train --save-state)");
  }
  const ir::ProgramModule program = load_program(args.positional[0]);
  const core::Detector base = core::load_detector_file(base_path);
  hmm::Trainer trainer(core::load_trainer_state_file(state_path));

  const auto traces = collect_program_traces(
      program,
      static_cast<std::size_t>(std::stoul(args.get("traces", "60"))),
      std::stoull(args.get("seed", "43")));
  std::vector<hmm::ObservationSeq> segments;
  for (const auto& trace : traces) {
    auto encoded = base.encode_trace_segments(trace);
    segments.insert(segments.end(),
                    std::make_move_iterator(encoded.begin()),
                    std::make_move_iterator(encoded.end()));
  }
  if (segments.empty()) {
    throw std::runtime_error("train: collected traces yield no segments");
  }
  const hmm::TrainingReport report = trainer.partial_fit(segments);
  const hmm::TrainerState& state = trainer.state();
  const core::Detector refreshed = base.rebuilt_with(
      trainer.model(), state.holdout.empty() ? state.train : state.holdout);

  const std::string out = args.get("out", base_path);
  core::save_detector_file(out, refreshed);
  const std::string save_state = args.get("save-state", "");
  if (!save_state.empty()) {
    core::save_trainer_state_file(save_state, state);
    std::cout << "trainer state saved to " << save_state << "\n";
  }
  std::cout << "absorbed " << segments.size() << " segments from "
            << traces.size() << " traces (" << report.iterations
            << " iterations), threshold "
            << format_double(refreshed.threshold(), 3) << "\n";
  std::cout << "saved to " << out << "\n";
  return 0;
}

int cmd_train(const Args& args) {
  if (args.positional.empty()) {
    throw std::runtime_error("train: need a suite name or .minic file");
  }
  const std::string incremental_base = args.get("incremental", "");
  if (!incremental_base.empty()) {
    return cmd_train_incremental(args, incremental_base);
  }
  // --profile-json: instrument the whole run (stage spans + metrics) and
  // dump the machine-readable profile document on exit.
  // --chrome-trace: same instrumentation, exported as a Chrome-trace JSON
  // array loadable in chrome://tracing or Perfetto.
  const std::string profile_path = args.get("profile-json", "");
  const std::string chrome_path = args.get("chrome-trace", "");
  obs::MetricsRegistry registry;
  obs::RunProfile run_profile("train");
  obs::RunProfile* profile =
      profile_path.empty() && chrome_path.empty() ? nullptr : &run_profile;

  Stopwatch stage;
  const ir::ProgramModule program = load_program(args.positional[0]);
  if (profile != nullptr) profile->record("load-program", stage.seconds());
  const std::string out = args.get("out", program.name() + ".model");

  core::DetectorConfig config;
  config.pipeline.filter = parse_filter(args.get("filter", "sys"));
  config.pipeline.context_sensitive = args.get("context", "1") != "0";
  config.target_fp = std::stod(args.get("target-fp", "0.001"));
  // --save-state: persist the trainer's sufficient-statistics state next
  // to the model so a later `train --incremental` (or cmarkovd --drift)
  // can absorb new traces without retraining from scratch.
  const std::string save_state = args.get("save-state", "");
  config.keep_trainer_state = !save_state.empty();
  const std::size_t threads = threads_flag(args);
  config.pipeline.exec.threads = threads;
  config.training.exec.threads = threads;
  if (profile != nullptr) {
    config.pipeline.exec.metrics = &registry;
    config.pipeline.exec.profile = profile;
    config.training.exec.metrics = &registry;
    config.training.exec.profile = profile;
  }

  std::optional<core::Detector> detector;
  {
    const obs::ScopedTimer span(profile, "build");
    detector.emplace(core::Detector::build(program, config));
  }
  std::vector<trace::Trace> traces;
  {
    const obs::ScopedTimer span(profile, "collect-traces");
    traces = collect_program_traces(
        program, static_cast<std::size_t>(std::stoul(args.get("traces", "60"))),
        std::stoull(args.get("seed", "42")));
  }
  std::size_t iterations = 0;
  {
    const obs::ScopedTimer span(profile, "train");
    iterations = detector->train(traces).iterations;
  }
  {
    const obs::ScopedTimer span(profile, "save-model");
    core::save_detector_file(out, *detector);
  }
  if (!save_state.empty()) {
    core::save_trainer_state_file(save_state, *detector->trainer_state());
    std::cout << "trainer state saved to " << save_state << "\n";
  }

  std::cout << "trained " << (config.pipeline.context_sensitive
                                  ? "context-sensitive"
                                  : "context-insensitive")
            << " model on " << traces.size() << " traces ("
            << iterations << " iterations), threshold "
            << format_double(detector->threshold(), 3) << "\n";
  std::cout << "saved to " << out << "\n";

  if (profile != nullptr) {
    profile->finish();
    if (!profile_path.empty()) {
      std::ofstream json(profile_path);
      if (!json) {
        throw std::runtime_error("cannot write profile to " + profile_path);
      }
      json << obs::run_profile_json(*profile, &registry);
      std::cout << "profile written to " << profile_path << "\n";
    }
    if (!chrome_path.empty()) {
      std::ofstream json(chrome_path);
      if (!json) {
        throw std::runtime_error("cannot write chrome trace to " +
                                 chrome_path);
      }
      json << obs::chrome_trace_json(*profile);
      std::cout << "chrome trace written to " << chrome_path << "\n";
    }
  }
  return 0;
}

int cmd_compare(const Args& args) {
  if (args.positional.empty()) {
    throw std::runtime_error("compare: need a built-in suite name");
  }
  if (!is_suite_name(args.positional[0])) {
    throw std::runtime_error(
        "compare: the comparison harness needs a built-in suite (its "
        "test-case generator drives the workload)");
  }
  const workload::ProgramSuite suite = workload::make_suite(args.positional[0]);
  const auto filter = parse_filter(args.get("filter", "sys"));
  eval::ComparisonOptions options =
      eval::default_comparison_options(args.get("full", "0") == "1");
  options.seed = std::stoull(args.get("seed", "1"));
  options.exec.threads = threads_flag(args);

  const eval::SuiteComparison comparison =
      eval::compare_models(suite, filter, options);
  TablePrinter table({"Model", "N states", "M symbols", "FN@FP=0.01",
                      "FN@FP=0.05", "AUC", "Train (s)"});
  for (const auto& model : comparison.models) {
    table.add_row({eval::model_kind_name(model.kind),
                   std::to_string(model.num_states),
                   std::to_string(model.alphabet_size),
                   format_double(eval::fn_at_fp(model.scores, 0.01), 4),
                   format_double(eval::fn_at_fp(model.scores, 0.05), 4),
                   format_double(eval::detection_auc(model.scores), 4),
                   format_double(model.train_seconds, 2)});
  }
  std::cout << comparison.program << " / "
            << analysis::call_filter_name(filter) << ": "
            << comparison.unique_normal_segments << " unique segments, "
            << comparison.abnormal_segments << " Abnormal-S segments\n";
  table.print();
  return 0;
}

int cmd_gadgets(const Args& args) {
  if (args.positional.empty() || !is_suite_name(args.positional[0])) {
    throw std::runtime_error("gadgets: need a built-in suite name");
  }
  const workload::ProgramSuite suite =
      workload::make_suite(args.positional[0]);
  const gadget::BinaryImage image =
      gadget::BinaryImage::synthesize(suite.cfg(),
                                      std::stoull(args.get("seed", "7")));
  const trace::Symbolizer symbolizer(suite.cfg());
  const auto collection = workload::collect_traces(
      suite, static_cast<std::size_t>(std::stoul(args.get("traces", "30"))),
      5);
  const auto legit_vec = attack::legitimate_call_set(
      collection.traces, analysis::CallFilter::kSyscalls);
  const std::set<attack::LegitimateCall> legit(legit_vec.begin(),
                                               legit_vec.end());

  TablePrinter table({"Max length", "Context-compatible", "Raw census"});
  for (std::size_t len : {2u, 4u, 6u, 8u, 10u}) {
    const auto counts = gadget::count_gadgets(image, len, &symbolizer, legit);
    table.add_row({std::to_string(len),
                   std::to_string(counts.context_compatible),
                   std::to_string(counts.raw)});
  }
  std::cout << "[SYSCALL...RET] gadget census for " << suite.info().name
            << " (" << image.instructions().size() << " decoded slots)\n";
  table.print();
  return 0;
}

int cmd_scan(const Args& args) {
  if (args.positional.size() < 2) {
    throw std::runtime_error("scan: need <model.txt> <trace.txt>...");
  }
  const core::Detector detector =
      core::load_detector_file(args.positional[0]);
  TablePrinter table({"Trace", "Verdict", "Flagged", "Min log-likelihood"});
  int anomalies = 0;
  for (std::size_t i = 1; i < args.positional.size(); ++i) {
    const trace::Trace trace = trace::read_trace_file(args.positional[i]);
    const auto verdict = detector.classify(trace);
    if (verdict.anomalous) ++anomalies;
    table.add_row({args.positional[i],
                   verdict.anomalous ? "ANOMALY" : "ok",
                   std::to_string(verdict.flagged_segments) + "/" +
                       std::to_string(verdict.total_segments),
                   format_double(verdict.min_log_likelihood, 2)});
  }
  table.print();
  return anomalies > 0 ? 2 : 0;  // grep-style exit code
}

int cmd_monitor(const Args& args) {
  if (args.positional.size() != 2) {
    throw std::runtime_error("monitor: need <model.txt> <trace.txt>");
  }
  const core::Detector detector =
      core::load_detector_file(args.positional[0]);
  const trace::Trace trace = trace::read_trace_file(args.positional[1]);

  core::MonitorOptions options;
  options.windows_to_alarm = static_cast<std::size_t>(
      std::stoul(args.get("windows-to-alarm", "1")));
  options.cooldown_events = static_cast<std::size_t>(
      std::stoul(args.get("cooldown", "30")));
  core::OnlineMonitor monitor(detector, nullptr, options);

  std::size_t event_index = 0;
  for (const auto& event : trace.events) {
    ++event_index;
    const auto update = monitor.on_event(event);
    if (update.alarm) {
      std::cout << "ALARM at event " << event_index << ": " << event.name
                << "@" << event.caller
                << (update.unknown_symbol ? " (unknown context)"
                                          : " (low likelihood)")
                << "\n";
    }
  }
  const auto& stats = monitor.stats();
  std::cout << "events=" << stats.events_seen
            << " observed=" << stats.events_observed
            << " windows=" << stats.windows_scored
            << " flagged=" << stats.windows_flagged
            << " alarms=" << stats.alarms << "\n";
  return stats.alarms > 0 ? 2 : 0;
}

// Replays a recorded trace through an OnlineMonitor with decision tracing
// set to record every scored window, then aggregates the per-symbol forward
// contributions into transitions `prev_label -> label` (the first window
// symbol is charged to `(start) -> label`). The table ranks transitions by
// total log-probability ascending, so the entries that cost the model the
// most likelihood — the explanation for an alarm — come first. Unknown
// call@caller pairs carry -inf and therefore always rank at the top.
int cmd_explain(const Args& args) {
  const std::string model_path = args.get(
      "model", args.positional.empty() ? "" : args.positional[0]);
  const std::string trace_path = args.get(
      "trace", args.positional.size() < 2 ? "" : args.positional[1]);
  if (model_path.empty() || trace_path.empty()) {
    throw std::runtime_error(
        "explain: need --model <model.txt> --trace <trace.txt>");
  }
  const core::Detector detector = core::load_detector_file(model_path);
  const trace::Trace trace = trace::read_trace_file(trace_path);

  core::MonitorOptions options;
  options.windows_to_alarm = static_cast<std::size_t>(
      std::stoul(args.get("windows-to-alarm", "1")));
  options.decisions.enabled = true;
  options.decisions.sample_every = 1;  // audit every scored window
  options.decisions.ring_capacity = trace.events.size() + 1;
  core::OnlineMonitor monitor(detector, nullptr, options);
  for (const auto& event : trace.events) monitor.on_event(event);

  const auto& records = monitor.recent_decisions();
  if (args.get("json", "0") == "1") {
    for (const auto& record : records) {
      std::cout << obs::decision_record_json(record) << "\n";
    }
    return monitor.stats().windows_flagged > 0 ? 2 : 0;
  }

  struct Transition {
    double total = 0.0;
    double worst = 0.0;
    std::size_t count = 0;
    bool unknown = false;
  };
  std::map<std::string, Transition> transitions;
  const obs::DecisionRecord* worst_window = nullptr;
  for (const auto& record : records) {
    if (worst_window == nullptr ||
        record.log_likelihood < worst_window->log_likelihood) {
      worst_window = &record;
    }
    std::string prev = "(start)";
    for (const auto& sym : record.symbols) {
      std::string key = prev;
      key += " -> ";
      key += sym.label;
      Transition& t = transitions[key];
      t.total += sym.log_prob;
      t.worst = std::min(t.worst, sym.log_prob);
      t.count += 1;
      t.unknown = t.unknown || sym.unknown;
      prev.assign(sym.label);
    }
  }

  const auto& stats = monitor.stats();
  std::cout << "trace:   " << trace_path << " (" << stats.events_seen
            << " events, " << stats.events_observed << " on-stream)\n";
  std::cout << "windows: " << stats.windows_scored << " scored, "
            << stats.windows_flagged << " flagged, " << stats.alarms
            << " alarms (threshold "
            << format_double(detector.threshold(), 3) << ")\n";
  if (worst_window != nullptr) {
    std::cout << "worst:   window " << worst_window->window_index
              << " log-likelihood "
              << format_double(worst_window->log_likelihood, 3)
              << " (margin " << format_double(worst_window->margin, 3)
              << ")\n";
  }

  std::vector<std::pair<std::string, Transition>> ranked(transitions.begin(),
                                                         transitions.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.total != b.second.total) {
      return a.second.total < b.second.total;
    }
    return a.first < b.first;  // deterministic tie-break
  });
  const auto top = static_cast<std::size_t>(
      std::stoul(args.get("top", "10")));
  if (ranked.size() > top) ranked.resize(top);

  TablePrinter table({"Transition", "Count", "Total log-p", "Worst log-p",
                      "Unknown"});
  for (const auto& [name, t] : ranked) {
    table.add_row({name, std::to_string(t.count),
                   format_double(t.total, 3), format_double(t.worst, 3),
                   t.unknown ? "yes" : ""});
  }
  table.print();
  return stats.windows_flagged > 0 ? 2 : 0;  // grep-style exit code
}

/// One dashboard frame: /varz (ring-derived rates and quantiles) plus
/// /statusz (per-shard and per-loop ground truth). Returns the rendered
/// text so the caller can clear-and-repaint atomically.
std::string render_top_frame(const std::string& host, std::uint16_t port,
                             const util::JsonValue& varz,
                             const util::JsonValue& statusz) {
  const auto num = [](const util::JsonValue& doc, const std::string& path,
                      double fallback) {
    const util::JsonValue* value = doc.find_path(path);
    return value == nullptr ? fallback : value->number_or(fallback);
  };
  const auto str = [](const util::JsonValue& doc, const std::string& path,
                      const std::string& fallback) {
    const util::JsonValue* value = doc.find_path(path);
    return value == nullptr ? fallback : value->string_or(fallback);
  };
  const auto count = [](double value) {
    return std::to_string(static_cast<long long>(value));
  };
  const auto member = [](const util::JsonValue& obj, const char* key) {
    const util::JsonValue* value = obj.find(key);
    return value == nullptr ? 0.0 : value->number_or(0.0);
  };

  std::ostringstream out;
  out << "cmarkovd @ " << host << ":" << port << "   up "
      << count(num(statusz, "uptime_seconds", 0)) << "s   sessions "
      << count(num(statusz, "sessions_open", 0)) << "   workers "
      << count(num(statusz, "workers", 0)) << " (policy "
      << str(statusz, "policy", "?") << ")\n";
  out << "overload: " << str(statusz, "overload.name", "off") << " (L"
      << count(num(statusz, "overload.level", 0)) << ")   drift: ";
  const util::JsonValue* armed = statusz.find_path("drift.armed");
  if (armed != nullptr && armed->kind == util::JsonValue::Kind::kBool &&
      armed->boolean) {
    out << "armed ks=" << format_double(num(statusz, "drift.last_ks", 0), 4)
        << " streak=" << count(num(statusz, "drift.breach_streak", 0));
  } else {
    out << "off";
  }
  out << "\n\n";

  const std::string kEv = "counters.cmarkov_serve_events_processed_total.";
  const std::string kLat = "histograms.cmarkov_serve_latency_micros.";
  out << "ev/s " << format_double(num(varz, kEv + "rate_per_second", 0), 1)
      << "   windows/s "
      << format_double(
             num(varz,
                 "counters.cmarkov_serve_windows_total.rate_per_second", 0),
             1)
      << "   lat p50 " << format_double(num(varz, kLat + "p50", 0), 0)
      << "us p99 " << format_double(num(varz, kLat + "p99", 0), 0)
      << "us   drop/s "
      << format_double(
             num(varz,
                 "counters.cmarkov_serve_events_dropped_total"
                 ".rate_per_second",
                 0),
             1)
      << "   alarms +"
      << count(num(varz, "counters.cmarkov_serve_alarms_total.delta", 0))
      << " (" << count(num(varz, "counters.cmarkov_serve_alarms_total.value", 0))
      << " total)\n";
  out << "ring: " << count(num(varz, "samples", 0)) << " samples @ "
      << format_double(num(varz, "period_seconds", 0), 1) << "s (cap "
      << count(num(varz, "ring_capacity", 0)) << ")\n\n";

  const util::JsonValue* shards = statusz.find_path("shards");
  if (shards != nullptr && shards->is_array()) {
    TablePrinter table({"Shard", "Sessions", "Queue", "Processed", "Evicted",
                        "State KiB"});
    for (const auto& shard : shards->array) {
      table.add_row({count(member(shard, "shard")),
                     count(member(shard, "sessions")),
                     count(member(shard, "queue_depth")),
                     count(member(shard, "processed")),
                     count(member(shard, "evicted_sessions")),
                     format_double(member(shard, "state_bytes") / 1024.0, 1)});
    }
    out << table.to_string();
  }
  const util::JsonValue* loops = statusz.find_path("loops");
  if (loops != nullptr && loops->is_array() && !loops->array.empty()) {
    TablePrinter table({"Loop", "Conns", "Read KiB", "Written KiB", "Units"});
    for (const auto& loop : loops->array) {
      table.add_row({count(member(loop, "loop")),
                     count(member(loop, "connections_open")),
                     format_double(member(loop, "bytes_read") / 1024.0, 1),
                     format_double(member(loop, "bytes_written") / 1024.0, 1),
                     count(member(loop, "units"))});
    }
    out << table.to_string();
  }
  return out.str();
}

/// `cmarkov top`: live dashboard over a running cmarkovd's admin plane.
/// Repaints every --interval-ms from GET /varz + /statusz; --plain 1
/// appends frames instead of clearing (pipe/CI friendly), --iterations N
/// stops after N frames (0 = until interrupted).
int cmd_top(const Args& args) {
  const std::string port_text = args.get("port", "");
  if (port_text.empty()) {
    throw std::runtime_error(
        "top: need --port <admin-port> (start cmarkovd with --tcp and "
        "--admin-port)");
  }
  const std::uint16_t port = parse_port(port_text);
  const std::string host = args.get("host", "127.0.0.1");
  const auto interval_ms = std::stoull(args.get("interval-ms", "2000"));
  const auto iterations = std::stoull(args.get("iterations", "0"));
  const bool plain = args.get("plain", "0") == "1";

  std::size_t failures = 0;
  for (std::uint64_t frame = 0; iterations == 0 || frame < iterations;
       ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    try {
      const auto varz_reply = serve::net::admin_http_get(host, port, "/varz");
      const auto statusz_reply =
          serve::net::admin_http_get(host, port, "/statusz");
      if (varz_reply.status != 200 || statusz_reply.status != 200) {
        throw std::runtime_error("admin plane returned HTTP " +
                                 std::to_string(varz_reply.status != 200
                                                    ? varz_reply.status
                                                    : statusz_reply.status));
      }
      const util::JsonValue varz = util::parse_json(varz_reply.body);
      const util::JsonValue statusz = util::parse_json(statusz_reply.body);
      const std::string body = render_top_frame(host, port, varz, statusz);
      if (!plain) std::cout << "\x1b[H\x1b[2J";  // home + clear
      std::cout << body << std::flush;
      failures = 0;
    } catch (const std::exception& e) {
      // Transient poll failures (daemon restarting, collector warming up)
      // keep the dashboard alive; give up once they look permanent.
      std::cerr << "top: " << e.what() << "\n";
      if (++failures >= 5) {
        throw std::runtime_error("5 consecutive poll failures, giving up");
      }
    }
  }
  return 0;
}

int usage() {
  std::cerr << "usage: cmarkov "
               "<list|analyze|trace|train|scan|monitor|explain|compare|top> "
               "...\n"
            << "  list                              built-in program suites\n"
            << "  analyze <prog> [--filter sys|lib] static-analysis summary\n"
            << "  trace <prog> [--count N] [--seed S] [--out DIR]\n"
            << "  train <prog> [--filter sys|lib] [--context 0|1]\n"
            << "        [--traces N] [--target-fp P] [--out FILE]\n"
            << "        [--profile-json FILE] [--chrome-trace FILE]\n"
            << "  scan <model> <trace>...           classify recorded traces\n"
            << "  monitor <model> <trace>           streaming detection demo\n"
            << "  explain --model FILE --trace FILE [--top N] [--json 1]\n"
            << "        ranked audit of the transitions behind each verdict\n"
            << "  compare <suite> [--filter sys|lib] 4-model accuracy table\n"
            << "  gadgets <suite>                   ROP gadget census\n"
            << "  top --port N [--host H] [--interval-ms N] [--iterations N]\n"
            << "        [--plain 1]               live cmarkovd dashboard\n"
            << "        (polls the --admin-port plane; see docs/SERVING.md)\n"
            << "analyze/train/compare accept --threads N (0 = one worker per\n"
            << "hardware core, the default; at most 256); results are\n"
            << "identical at any N.\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    if (command == "list") return cmd_list();
    if (command == "analyze") return cmd_analyze(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "train") return cmd_train(args);
    if (command == "scan") return cmd_scan(args);
    if (command == "monitor") return cmd_monitor(args);
    if (command == "explain") return cmd_explain(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "gadgets") return cmd_gadgets(args);
    if (command == "top") return cmd_top(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "cmarkov " << command << ": " << e.what() << "\n";
    return 1;
  }
}
