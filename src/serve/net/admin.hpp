// cmarkovd's HTTP/1.1 admin plane (docs/OBSERVABILITY.md): out-of-band
// operational introspection on a separate port, hosted by the existing
// epoll front-end (EpollServer accepts admin connections on
// NetOptions::admin_port and binds them to an AdminConn instead of
// sniffing CMKB/text).
//
// Endpoints (GET only):
//   /metrics  Prometheus text exposition of the full registry
//   /healthz  liveness + overload-governor rung + drift arming state
//   /varz     the TimeSeriesCollector's rings with derived rates/quantiles
//   /statusz  per-shard SessionManager breakdown + per-event-loop counters
//
// None of these drain or block admission: every endpoint renders the
// manager's registry after its gauge refresh (metrics_registry(), whose
// shard sweep takes only a shared lock on the resident list), and /varz
// adds the collector's rings — a scrape can run at full tilt while 1M
// sessions score (admin_test hammers exactly that). The protocol support
// is deliberately minimal: GET, keep-alive/close, bounded headers, no
// bodies — it serves curl, Prometheus, and `cmarkov top`, not browsers.
#pragma once

#include <cstdint>
#include <string>

#include "src/serve/session_manager.hpp"

namespace cmarkov::obs {
class TimeSeriesCollector;
}

namespace cmarkov::serve::net {

struct HttpRequest {
  std::string method;
  std::string target;  // path only; any ?query is stripped before dispatch
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// Renders admin endpoints. One handler serves every admin connection
/// (handle() is thread-safe across event loops); the optional sources are
/// wired before the server starts and must outlive the handler.
class AdminHandler {
 public:
  /// Registers the cmarkov_admin_* instruments on manager.instruments().
  explicit AdminHandler(SessionManager& manager);

  /// /varz source (null: /varz answers 503). Set before traffic.
  void set_collector(const obs::TimeSeriesCollector* collector);
  /// /healthz and /statusz drift block (null: drift reported unarmed).
  void set_drift_monitor(const DriftMonitor* drift);

  HttpResponse handle(const HttpRequest& request);

 private:
  std::string healthz_json();
  std::string statusz_json();

  SessionManager& manager_;
  const obs::TimeSeriesCollector* collector_ = nullptr;
  const DriftMonitor* drift_ = nullptr;
  obs::Counter* requests_total_;
  obs::Counter* errors_total_;
  obs::Histogram* request_micros_;
};

/// Per-connection HTTP/1.1 request parser/encoder. The epoll loop feeds
/// raw bytes in; complete requests are dispatched to the shared handler
/// and encoded responses appended to `out` (pipelining works naturally).
class AdminConn {
 public:
  explicit AdminConn(AdminHandler& handler) : handler_(handler) {}

  /// Consumes every complete request currently in `inbuf`. Returns false
  /// when the connection must close once `out` is flushed (Connection:
  /// close, HTTP/1.0 default, or a malformed request).
  bool consume(std::string& inbuf, std::string& out);

  std::uint64_t requests_handled() const { return requests_; }

 private:
  AdminHandler& handler_;
  std::uint64_t requests_ = 0;
};

/// Blocking one-shot HTTP GET against the admin plane (the client side of
/// `cmarkov top`, the bench poller, and tests). Throws std::runtime_error
/// on connect/send/receive failure or malformed response.
struct HttpGetResult {
  int status = 0;
  std::string body;
};
HttpGetResult admin_http_get(const std::string& host, std::uint16_t port,
                             const std::string& path,
                             int timeout_ms = 5000);

}  // namespace cmarkov::serve::net
