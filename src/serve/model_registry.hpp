// Thread-safe store of trained detectors, shared immutably across every
// session of the serving layer: a plain map from model name to its current
// version. Replacing a name (hot swap) publishes a new version and drops
// the registry's reference to the old one.
//
// One lifetime rule covers every model version: whoever reads a model
// holds a shared_ptr to it. Sessions pin the detector they score with,
// monitors pin the compiled kernel, and decision records pin the detector
// whose alphabet their labels view, so a swapped-out version is freed when
// its last reader lets go — never under one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/core/detector.hpp"
#include "src/core/scoring_kernel.hpp"

namespace cmarkov::serve {

/// A model lookup with its registry identity: the instance `version` is
/// monotonic per name within this process (bumped by every swap), while
/// `fingerprint` hashes the detector's serialized content and is stable
/// across processes — session snapshots store it so a restore after a
/// daemon restart can tell "same model bytes" from "retrained model".
/// `kernel` is the compiled ScoringKernel image for this exact detector
/// version, compiled once at add/swap time and shared read-only by every
/// session bound to the version.
struct VersionedModel {
  std::shared_ptr<const core::Detector> detector;
  std::shared_ptr<const core::ScoringKernel> kernel;
  std::uint64_t version = 0;
  std::uint64_t fingerprint = 0;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or hot-swaps) a trained detector under `name`. Throws
  /// std::invalid_argument for untrained detectors: the serving layer only
  /// scores, it never trains.
  void add(const std::string& name, core::Detector detector);
  void add_shared(const std::string& name,
                  std::shared_ptr<const core::Detector> detector);

  /// Loads a detector file (core::load_detector_file format). Malformed
  /// files throw std::runtime_error naming the offending content; untrained
  /// models throw std::invalid_argument.
  void load_file(const std::string& name, const std::string& path);

  /// Loads every "*.model" file in `dir` under its stem name; returns the
  /// number of models loaded.
  std::size_t load_directory(const std::string& dir);

  /// The current detector of `name`. Throws std::invalid_argument when the
  /// name is unknown.
  std::shared_ptr<const core::Detector> require(const std::string& name) const;

  /// The current version of `name` with its kernel, version and
  /// fingerprint. Throws std::invalid_argument when the name is unknown.
  VersionedModel require_versioned(const std::string& name) const;

  std::vector<std::string> names() const;
  std::size_t size() const;

  /// Total arena bytes of the current compiled kernel images — the
  /// per-model-version memory bill the cmarkov_serve_kernel_image_bytes
  /// gauge reports.
  std::size_t kernel_image_bytes() const;

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, VersionedModel> models_;
};

}  // namespace cmarkov::serve
