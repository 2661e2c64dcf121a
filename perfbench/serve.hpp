// End-to-end serve runs: a fresh cmarkovd per run, driven from outside over
// CMKB frames on loopback TCP by one single-threaded generator polling at
// most four connections. No benchmark spans run here; the per-layer numbers
// of these runs come from /proc and from one METRICS read after the
// measured phase.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct ServeOptions {
  std::string workload;  ///< "stream" or "runs"
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string daemon;      ///< cmarkovd binary
  std::string models_dir;  ///< cached serve models, <key>.model
  std::string log_path;    ///< daemon stderr
};

/// Runs one measured phase and fills `report` with the end-to-end metrics,
/// the /proc and METRICS per-layer metrics, and "daemon.cpu_us_per_event"
/// (the traced run's coverage denominator). Throws when the daemon cannot
/// be started or measured.
void run_serve(const ServeOptions& options, Report& report);

}  // namespace perfbench
