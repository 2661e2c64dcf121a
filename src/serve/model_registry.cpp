#include "src/serve/model_registry.hpp"

#include <filesystem>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "src/core/model_io.hpp"
#include "src/util/logging.hpp"

namespace cmarkov::serve {

namespace {

/// Content identity of a detector: a hash over its serialized form, stable
/// across processes (model_io's text format is deterministic). Computed
/// once per add — the reload path, never the scoring path.
std::uint64_t fingerprint_detector(const core::Detector& detector) {
  std::ostringstream out;
  core::save_detector(out, detector);
  const std::string text = out.str();
  // FNV-1a, fixed parameters — std::hash is not stable across libraries.
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

void ModelRegistry::add(const std::string& name, core::Detector detector) {
  add_shared(name,
             std::make_shared<const core::Detector>(std::move(detector)));
}

void ModelRegistry::add_shared(
    const std::string& name,
    std::shared_ptr<const core::Detector> detector) {
  if (!detector) {
    throw std::invalid_argument("ModelRegistry: null detector for '" + name +
                                "'");
  }
  if (!detector->trained()) {
    throw std::invalid_argument("ModelRegistry: detector '" + name +
                                "' is not trained");
  }
  const std::uint64_t fingerprint = fingerprint_detector(*detector);
  // Compile the scoring image outside the lock — kernel compilation walks
  // the full model, and readers must never block on it.
  auto kernel = core::ScoringKernel::compile(*detector);
  const std::unique_lock lock(mu_);
  VersionedModel& entry = models_[name];
  entry.detector = std::move(detector);
  entry.kernel = std::move(kernel);
  entry.version += 1;
  entry.fingerprint = fingerprint;
}

void ModelRegistry::load_file(const std::string& name,
                              const std::string& path) {
  add(name, core::load_detector_file(path));
  log_info() << "registry: loaded model '" << name << "' from " << path;
}

std::size_t ModelRegistry::load_directory(const std::string& dir) {
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".model") {
      continue;
    }
    load_file(entry.path().stem().string(), entry.path().string());
    ++loaded;
  }
  return loaded;
}

std::shared_ptr<const core::Detector> ModelRegistry::require(
    const std::string& name) const {
  return require_versioned(name).detector;
}

VersionedModel ModelRegistry::require_versioned(
    const std::string& name) const {
  const std::shared_lock lock(mu_);
  const auto it = models_.find(name);
  if (it == models_.end()) {
    throw std::invalid_argument("ModelRegistry: no model named '" + name +
                                "'");
  }
  return it->second;
}

std::vector<std::string> ModelRegistry::names() const {
  const std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  const std::shared_lock lock(mu_);
  return models_.size();
}

std::size_t ModelRegistry::kernel_image_bytes() const {
  const std::shared_lock lock(mu_);
  std::size_t total = 0;
  for (const auto& [name, entry] : models_) {
    if (entry.kernel != nullptr) total += entry.kernel->image_bytes();
  }
  return total;
}

}  // namespace cmarkov::serve
