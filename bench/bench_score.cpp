// Microbenchmark for the compiled ScoringKernel (ISSUE 7, BENCH_score.json):
// the serve hot path's per-window cost, kernel vs the reference forward
// pass, on a small-alphabet syscall model and a large-alphabet
// context-sensitive libcall model.
//
//   bench_score [--repeat R] [--full]
//
// Two scoring configurations per model:
//   reference — Detector::score_segment (ForwardResult matrix + scales
//               allocation per window, the offline classify path);
//   kernel    — ScoringKernel::score_window (hmm::forward_pass over flat
//               two-row scratch, bit-identical doubles).
//
// The bench also verifies, over every window it times, that the kernel's
// log-likelihoods are BIT-IDENTICAL to the reference. Finally it reports
// the monitor-level event rate (OnlineMonitor::on_event with the kernel, no
// serve layer) — the ceiling a single worker thread can reach before
// queueing costs.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/online_monitor.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

core::Detector train_detector(const workload::ProgramSuite& suite,
                              analysis::CallFilter filter,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = filter;
  config.training.max_iterations = 6;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 30, seed).traces);
  return detector;
}

/// Every complete sliding window of the suite's benign traces, encoded to
/// observation ids exactly as OnlineMonitor would (unknowns included — both
/// paths must agree on them too).
std::vector<hmm::ObservationSeq> build_windows(
    const core::Detector& detector, const workload::ProgramSuite& suite,
    std::uint64_t seed) {
  const auto& config = detector.config();
  const std::size_t length = config.segments.length;
  const auto encoding = config.pipeline.context_sensitive
                            ? hmm::ObservationEncoding::kContextSensitive
                            : hmm::ObservationEncoding::kContextFree;
  std::vector<hmm::ObservationSeq> windows;
  for (const auto& trace : workload::collect_traces(suite, 5, seed).traces) {
    hmm::ObservationSeq ids;
    for (const auto& event : trace.events) {
      if (!analysis::filter_matches(config.pipeline.filter, event.kind)) {
        continue;
      }
      const std::string obs =
          hmm::encode_observation(event.name, event.caller, encoding);
      ids.push_back(
          detector.alphabet().find(obs).value_or(detector.alphabet().size()));
    }
    for (std::size_t start = 0; start + length <= ids.size(); ++start) {
      windows.emplace_back(ids.begin() + start, ids.begin() + start + length);
    }
  }
  return windows;
}

double bits_equal(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

struct ModelReport {
  std::string name;
  std::size_t states = 0;
  std::size_t symbols = 0;
  std::size_t windows = 0;
  double reference_ns = 0.0;
  double kernel_ns = 0.0;
  bool bit_identical = true;
  double monitor_events_per_sec = 0.0;
  std::size_t kernel_image_bytes = 0;
};

ModelReport run_model(const std::string& name, const core::Detector& detector,
                      const workload::ProgramSuite& suite, std::size_t repeat,
                      std::uint64_t seed) {
  ModelReport report;
  report.name = name;
  report.states = detector.model().num_states();
  report.symbols = detector.model().num_symbols();

  const std::vector<hmm::ObservationSeq> windows =
      build_windows(detector, suite, seed);
  report.windows = windows.size();

  const auto kernel = core::ScoringKernel::compile(detector);
  report.kernel_image_bytes = kernel->image_bytes();

  // Timed loops accumulate the summed LL so the work cannot be elided; the
  // sums also cross-check that repeats scored identical values.
  double reference_sum = 0.0;
  {
    Stopwatch watch;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const auto& window : windows) {
        reference_sum += detector.score_segment(window).log_likelihood;
      }
    }
    report.reference_ns =
        watch.micros() * 1e3 / static_cast<double>(repeat * windows.size());
  }
  double kernel_sum = 0.0;
  core::KernelScratch scratch;
  {
    Stopwatch watch;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const auto& window : windows) {
        kernel_sum += kernel->score_window(window, scratch).log_likelihood;
      }
    }
    report.kernel_ns =
        watch.micros() * 1e3 / static_cast<double>(repeat * windows.size());
  }
  static_cast<void>(reference_sum + kernel_sum);

  for (const auto& window : windows) {
    const core::SegmentVerdict ref = detector.score_segment(window);
    const core::SegmentVerdict fast = kernel->score_window(window, scratch);
    if (!bits_equal(ref.log_likelihood, fast.log_likelihood) ||
        ref.flagged != fast.flagged ||
        ref.unknown_symbol != fast.unknown_symbol) {
      report.bit_identical = false;
    }
  }

  // Monitor-level rate: the full per-event hot path (filter, piecewise
  // intern, window slide, kernel score) on one thread.
  {
    std::vector<trace::CallEvent> feed;
    for (const auto& trace :
         workload::collect_traces(suite, 5, seed + 1).traces) {
      feed.insert(feed.end(), trace.events.begin(), trace.events.end());
    }
    core::OnlineMonitor monitor(detector, nullptr, {}, {}, kernel);
    Stopwatch watch;
    std::size_t events = 0;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const auto& event : feed) {
        monitor.on_event(event);
        ++events;
      }
    }
    report.monitor_events_per_sec =
        static_cast<double>(events) / watch.seconds();
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--full") return true;
    }
    return std::getenv("CMARKOV_FULL") != nullptr;
  }();
  std::size_t repeat = full ? 40 : 10;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--repeat") repeat = std::stoul(argv[i + 1]);
  }

  const workload::ProgramSuite gzip = workload::make_gzip_suite();
  const workload::ProgramSuite vim = workload::make_vim_suite();
  const core::Detector small =
      train_detector(gzip, analysis::CallFilter::kSyscalls, 91);
  const core::Detector large =
      train_detector(vim, analysis::CallFilter::kLibcalls, 23);

  std::vector<ModelReport> reports;
  reports.push_back(run_model("gzip-syscall", small, gzip, repeat, 7));
  reports.push_back(run_model("vim-libcall", large, vim, repeat, 7));

  TablePrinter table({"Model", "N", "M", "Windows", "Ref ns/win",
                      "Kernel ns/win", "Speedup", "Bit-identical",
                      "Monitor ev/s"});
  for (const auto& r : reports) {
    table.add_row({r.name, std::to_string(r.states), std::to_string(r.symbols),
                   std::to_string(r.windows), format_double(r.reference_ns, 0),
                   format_double(r.kernel_ns, 0),
                   format_double(r.reference_ns / r.kernel_ns, 2) + "x",
                   r.bit_identical ? "yes" : "NO",
                   format_double(r.monitor_events_per_sec, 0)});
  }
  table.print();

  bool pass = true;
  for (const auto& r : reports) {
    std::cout << r.name << ": image=" << r.kernel_image_bytes << "B\n";
    pass = pass && r.bit_identical;
  }
  std::cout << "kernel bit-compatibility: "
            << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
