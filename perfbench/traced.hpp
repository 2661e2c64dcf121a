// The traced run: replays a workload's seeded inputs in this process
// through each layer's public functions, with benchmark spans (in-memory
// obs::SpanRecords, written at the end through obs::chrome_trace_json)
// around every call. A library call cannot be split from outside, so a
// layer's self time is its span minus the spans of the calls it makes,
// each timed on the same batch right after it (see README.md).
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "serve.hpp"

namespace perfbench {

/// Per-layer metrics of a serve workload. Reads "daemon.cpu_us_per_event"
/// from `report` (the untraced run's) for trace.coverage.
void traced_serve(const ServeOptions& options, const std::string& trace_out,
                  Report& report);

/// Per-layer metrics of the train workload: builds, collects, fits and
/// saves the 16 models as `cmarkov train` does, writing them to
/// `models_out` for the digest check. `train_wall_s` is the untraced
/// run's wall time for the same 16 models (trace.coverage).
void traced_train(std::uint64_t seed, std::size_t threads,
                  const std::string& models_out, double train_wall_s,
                  const std::string& trace_out, Report& report);

/// The training corpus of the train workload for `seed`: per model, the
/// program runs collected ("corpus.<key>.runs"), the events the model
/// observes in them ("corpus.<key>.events") and the events in the unique
/// segments EM fits ("corpus.<key>.segment_events").
void train_corpus(std::uint64_t seed, Report& report);

}  // namespace perfbench
