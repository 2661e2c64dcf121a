// Exporters for the observability layer:
//  - to_prometheus(): Prometheus text exposition (one scrape page),
//  - to_kv_line():    the versioned single-line `v=1 key=value ...` schema
//                     of the cmarkovd METRICS protocol verb,
//  - run_profile_json(): the machine-readable profile behind
//                     `cmarkov train --profile-json`.
// All output is deterministic for a given registry/profile state (sorted
// names, locale-independent number formatting) so golden-file tests can
// pin the formats.
#pragma once

#include <string>

#include "src/obs/metrics_registry.hpp"
#include "src/obs/run_profile.hpp"

namespace cmarkov::obs {

/// Version stamped into every to_kv_line() reply (`v=1 ...`). Bump when a
/// key changes meaning; adding keys is backward compatible.
inline constexpr int kKvSchemaVersion = 1;

/// Prometheus text exposition: `# TYPE` header per metric, histograms
/// expanded to cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
std::string to_prometheus(const MetricsRegistry& registry);

/// One-line `v=1 name=value ...` rendering of the registry, names sorted;
/// histograms contribute `<name>_count/_sum/_p50/_p99` keys.
std::string to_kv_line(const MetricsRegistry& registry);

/// JSON document {"schema":"cmarkov.profile.v1", "total_seconds":...,
/// "profile":{span tree}, "metrics":{...}}; `registry` may be null to omit
/// the metrics section.
std::string run_profile_json(const RunProfile& profile,
                             const MetricsRegistry* registry);

/// Locale-independent shortest-ish rendering used by all exporters
/// (printf %.10g, so "1.5" not "1.500000").
std::string format_metric_value(double value);

}  // namespace cmarkov::obs
