// ExecContext — the one execution-environment knob bag threaded through
// every layer's options struct: the worker-thread count plus the
// observability sinks (MetricsRegistry, RunProfile). Composite stages pass
// it down whole (`inner.exec = outer.exec`); the enclosing stage's context
// is authoritative. Log output is filtered by the global level alone
// (set_log_level), not per component.
//
// Ownership: the pointers are non-owning. Callers keep the registry and
// profile alive for as long as any object holding the context (e.g. a
// Detector retaining its DetectorConfig) may run.
#pragma once

#include <cstddef>

namespace cmarkov::obs {
class MetricsRegistry;
class RunProfile;
}  // namespace cmarkov::obs

namespace cmarkov {

struct ExecContext {
  /// Worker threads for the component (0 = one per hardware core).
  /// Instrumented components keep the guarantee that results are
  /// bit-identical at any thread count.
  std::size_t threads = 1;
  /// Metrics sink; null disables metric recording entirely.
  obs::MetricsRegistry* metrics = nullptr;
  /// Stage profiler; null disables span recording. A RunProfile is driven
  /// by the orchestrating thread only (it is not thread-safe).
  obs::RunProfile* profile = nullptr;
};

}  // namespace cmarkov
