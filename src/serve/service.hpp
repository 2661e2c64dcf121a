// CmarkovService — cmarkovd's engine: a model registry plus a sharded
// session manager behind the line protocol's front door. Transports (stdin,
// TCP, in-memory test harnesses) each run one ProtocolSession; the service
// itself is transport-agnostic.
#pragma once

#include <iosfwd>

#include "src/serve/model_registry.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/session_manager.hpp"

namespace cmarkov::serve {

class CmarkovService {
 public:
  explicit CmarkovService(ServiceConfig config = {});

  /// Load models here before (or while) sessions connect; the registry is
  /// thread-safe.
  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }

  SessionManager& sessions() { return sessions_; }
  const SessionManager& sessions() const { return sessions_; }

  /// Registry of cmarkov_serve_* instruments (gauges refreshed); render
  /// with obs::to_kv_line or obs::to_prometheus.
  const obs::MetricsRegistry& metrics_registry() {
    return sessions_.metrics_registry();
  }

  /// Runs one protocol conversation over a line stream (the stdio
  /// front-end): reads request lines from `in`, writes one response line
  /// per request to `out` (flushed per line). Returns after BYE or when
  /// `in` reaches end of stream.
  void serve_stream(std::istream& in, std::ostream& out);

 private:
  ModelRegistry registry_;
  SessionManager sessions_;
};

}  // namespace cmarkov::serve
