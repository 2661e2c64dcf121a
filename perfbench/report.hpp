// The result a benchmark subcommand prints: every metric with its unit and
// sample count, the attempt/failure counts and the correctness verdict.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures (oracle or digest mismatches); any one fails the
  /// run.
  std::vector<std::string> errors;
  /// Failures counted against attempts, kept for the log.
  std::vector<std::string> failures;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = {value, unit, samples};
  }
  void error(std::string message) { errors.push_back(std::move(message)); }
  void fail(std::string message) {
    ++failed;
    if (failures.size() < 20) failures.push_back(std::move(message));
  }
  std::string json() const;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> samples, double q);

}  // namespace perfbench
