#include "src/serve/net/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <stdexcept>

#include "src/obs/export.hpp"
#include "src/obs/timeseries.hpp"
#include "src/serve/drift_monitor.hpp"

namespace cmarkov::serve::net {

namespace {

// Header block cap: admin clients are curl/Prometheus/`cmarkov top`; a
// bigger block is a confused (or hostile) peer, not a legitimate scrape.
constexpr std::size_t kMaxHeaderBytes = 16 * 1024;

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

std::string ascii_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) s.remove_suffix(1);
  return s;
}

std::string overload_json(const OverloadGovernor& governor) {
  const OverloadLevel level = governor.level();
  std::string out = "{\"enabled\":";
  out += governor.enabled() ? "true" : "false";
  out += ",\"level\":" + std::to_string(static_cast<int>(level));
  out += ",\"name\":\"";
  out += overload_level_name(level);
  out += "\",\"retry_after_ms\":" + std::to_string(governor.retry_after_ms());
  out += "}";
  return out;
}

std::string drift_json(const DriftMonitor* drift) {
  if (drift == nullptr) return "{\"armed\":false}";
  std::string out = "{\"armed\":true,\"baseline_ready\":";
  out += drift->baseline_ready() ? "true" : "false";
  out += ",\"last_ks\":" + obs::format_metric_value(drift->last_ks());
  out += ",\"epochs_evaluated\":" + std::to_string(drift->epochs_evaluated());
  out += ",\"breach_streak\":" + std::to_string(drift->breach_streak());
  out += ",\"absorb_depth\":" + std::to_string(drift->absorb_depth());
  out += "}";
  return out;
}

/// Integer JSON rendering of a gauge that counts whole things (sessions,
/// bytes, queued events) — not format_metric_value's %.10g.
std::string integer_json(double value) {
  return std::to_string(static_cast<std::uint64_t>(value));
}

void encode_response(const HttpResponse& resp, bool keep_alive,
                     std::string& out) {
  out += "HTTP/1.1 " + std::to_string(resp.status) + " " +
         status_text(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += resp.body;
}

}  // namespace

AdminHandler::AdminHandler(SessionManager& manager) : manager_(manager) {
  obs::MetricsRegistry& m = manager.instruments();
  requests_total_ = &m.counter("cmarkov_admin_requests_total");
  errors_total_ = &m.counter("cmarkov_admin_errors_total");
  request_micros_ = &m.histogram("cmarkov_admin_request_micros",
                                 obs::latency_bucket_bounds());
}

void AdminHandler::set_collector(const obs::TimeSeriesCollector* collector) {
  collector_ = collector;
}

void AdminHandler::set_drift_monitor(const DriftMonitor* drift) {
  drift_ = drift;
}

std::string AdminHandler::healthz_json() {
  const obs::MetricsRegistry::Snapshot snap =
      manager_.metrics_registry().snapshot();
  double queued = 0.0;
  for (std::size_t i = 0; i < manager_.config().num_workers; ++i) {
    queued += snap.gauges.at("cmarkov_serve_queue_depth_w" + std::to_string(i));
  }
  const double uptime = snap.gauges.at("cmarkov_serve_uptime_seconds");
  const double sessions = snap.gauges.at("cmarkov_serve_sessions_open");
  std::string out = "{\"schema\":\"cmarkov.healthz.v1\",\"status\":\"ok\"";
  out += ",\"uptime_seconds\":" + obs::format_metric_value(uptime);
  out += ",\"sessions_open\":" + integer_json(sessions);
  out += ",\"queued_events\":" + integer_json(queued);
  out += ",\"overload\":" + overload_json(manager_.overload_governor());
  out += ",\"drift\":" + drift_json(drift_);
  out += "}";
  return out;
}

std::string AdminHandler::statusz_json() {
  const obs::MetricsRegistry::Snapshot snap =
      manager_.metrics_registry().snapshot();
  // at(), not a registry lookup: a missing instrument throws instead of
  // rendering a silently created zero.
  const auto gauge_at = [&snap](const std::string& name) {
    return snap.gauges.at(name);
  };
  const auto counter_at = [&snap](const std::string& name) {
    return std::to_string(snap.counters.at(name));
  };
  const ServiceConfig& config = manager_.config();
  std::string out = "{\"schema\":\"cmarkov.statusz.v1\"";
  out += ",\"uptime_seconds\":" +
         obs::format_metric_value(gauge_at("cmarkov_serve_uptime_seconds"));
  out += ",\"sessions_open\":" +
         integer_json(gauge_at("cmarkov_serve_sessions_open"));
  out += ",\"events_processed\":" +
         counter_at("cmarkov_serve_events_processed_total");
  out += ",\"workers\":" + std::to_string(config.num_workers);
  out += ",\"queue_capacity\":" + std::to_string(config.queue_capacity);
  out += ",\"policy\":\"";
  out += backpressure_policy_name(config.policy);
  out += "\",\"shards\":[";
  // Indexed, not a walk of the name-sorted map: "_w10" sorts before "_w2".
  for (std::size_t i = 0; i < config.num_workers; ++i) {
    const std::string w = "_w" + std::to_string(i);
    const double sessions = gauge_at("cmarkov_serve_shard_sessions" + w);
    const double bytes = gauge_at("cmarkov_serve_shard_state_bytes" + w);
    if (i > 0) out += ',';
    out += "{\"shard\":" + std::to_string(i);
    out += ",\"sessions\":" + integer_json(sessions);
    out += ",\"queue_depth\":" +
           integer_json(gauge_at("cmarkov_serve_queue_depth" + w));
    out += ",\"processed\":" +
           counter_at("cmarkov_serve_shard_processed_total" + w);
    out += ",\"evicted_sessions\":" +
           counter_at("cmarkov_serve_shard_evicted_total" + w);
    out += ",\"state_bytes\":" + integer_json(bytes);
    out += ",\"bytes_per_session\":" +
           obs::format_metric_value(sessions > 0 ? bytes / sessions : 0.0);
    out += "}";
  }
  // Loops exist once an EpollServer registered its per-loop instruments.
  out += "],\"loops\":[";
  for (std::size_t i = 0; snap.counters.count(
           "cmarkov_net_loop_units_total_w" + std::to_string(i)) > 0;
       ++i) {
    const std::string w = "_w" + std::to_string(i);
    const double conns = gauge_at("cmarkov_net_loop_connections_open" + w);
    if (i > 0) out += ',';
    out += "{\"loop\":" + std::to_string(i);
    out += ",\"connections_open\":" + obs::format_metric_value(conns);
    out += ",\"bytes_read\":" +
           counter_at("cmarkov_net_loop_bytes_read_total" + w);
    out += ",\"bytes_written\":" +
           counter_at("cmarkov_net_loop_bytes_written_total" + w);
    out += ",\"units\":" + counter_at("cmarkov_net_loop_units_total" + w);
    out += "}";
  }
  out += "],\"overload\":" + overload_json(manager_.overload_governor());
  out += ",\"drift\":" + drift_json(drift_);
  out += "}";
  return out;
}

HttpResponse AdminHandler::handle(const HttpRequest& request) {
  const double start_micros = manager_.now_micros();
  HttpResponse resp;
  if (request.method != "GET") {
    resp.status = 405;
    resp.body = "{\"error\":\"method not allowed\"}";
  } else if (request.target == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = obs::to_prometheus(manager_.metrics_registry());
  } else if (request.target == "/healthz") {
    resp.body = healthz_json();
  } else if (request.target == "/varz") {
    // Refresh the gauges the collector would sample so a direct scrape and
    // a ring sample describe the same instant.
    manager_.metrics_registry();
    if (collector_ == nullptr) {
      resp.status = 503;
      resp.body = "{\"error\":\"collector not running\"}";
    } else {
      resp.body = collector_->varz_json();
    }
  } else if (request.target == "/statusz") {
    resp.body = statusz_json();
  } else {
    resp.status = 404;
    resp.body = "{\"error\":\"not found\"}";
  }
  requests_total_->add(1);
  if (resp.status >= 400) errors_total_->add(1);
  request_micros_->record(manager_.now_micros() - start_micros);
  return resp;
}

bool AdminConn::consume(std::string& inbuf, std::string& out) {
  for (;;) {
    const std::size_t end = inbuf.find("\r\n\r\n");
    std::size_t header_len, terminator_len;
    if (end != std::string::npos) {
      header_len = end;
      terminator_len = 4;
    } else {
      const std::size_t lf = inbuf.find("\n\n");
      if (lf == std::string::npos) {
        if (inbuf.size() > kMaxHeaderBytes) {
          encode_response(HttpResponse{431, "application/json",
                                       "{\"error\":\"headers too large\"}"},
                          false, out);
          inbuf.clear();
          return false;
        }
        return true;  // incomplete request; wait for more bytes
      }
      header_len = lf;
      terminator_len = 2;
    }
    const std::string_view header(inbuf.data(), header_len);

    // Request line: METHOD SP TARGET SP VERSION.
    const std::size_t line_end = std::min(header.find('\n'), header.size());
    std::string_view line = trim(header.substr(0, line_end));
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
      encode_response(HttpResponse{400, "application/json",
                                   "{\"error\":\"malformed request line\"}"},
                      false, out);
      inbuf.clear();
      return false;
    }
    HttpRequest request;
    request.method = std::string(line.substr(0, sp1));
    std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::string_view version = trim(line.substr(sp2 + 1));
    const std::size_t query = target.find('?');
    if (query != std::string_view::npos) target = target.substr(0, query);
    request.target = std::string(target);

    // Headers we care about: Connection (keep-alive decision) and
    // Content-Length (bodies are not supported on the admin plane).
    bool keep_alive = version != "HTTP/1.0";
    bool has_body = false;
    std::size_t cursor = line_end == header.size() ? header.size() : line_end + 1;
    while (cursor < header.size()) {
      std::size_t eol = header.find('\n', cursor);
      if (eol == std::string_view::npos) eol = header.size();
      const std::string_view raw = header.substr(cursor, eol - cursor);
      cursor = eol + 1;
      const std::size_t colon = raw.find(':');
      if (colon == std::string_view::npos) continue;
      const std::string name = ascii_lower(trim(raw.substr(0, colon)));
      const std::string value = ascii_lower(trim(raw.substr(colon + 1)));
      if (name == "connection") {
        if (value == "close") keep_alive = false;
        if (value == "keep-alive") keep_alive = true;
      } else if (name == "content-length") {
        if (value != "0") has_body = true;
      } else if (name == "transfer-encoding") {
        has_body = true;
      }
    }
    inbuf.erase(0, header_len + terminator_len);

    if (has_body) {
      encode_response(HttpResponse{400, "application/json",
                                   "{\"error\":\"request bodies unsupported\"}"},
                      false, out);
      inbuf.clear();
      return false;
    }

    encode_response(handler_.handle(request), keep_alive, out);
    ++requests_;
    if (!keep_alive) {
      inbuf.clear();
      return false;
    }
    if (inbuf.empty()) return true;
    // Loop: a pipelining client may have queued the next request already.
  }
}

HttpGetResult admin_http_get(const std::string& host, std::uint16_t port,
                             const std::string& path, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("admin_http_get: socket() failed");
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};

  const timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("admin_http_get: bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("admin_http_get: connect to " + host + ":" +
                             std::to_string(port) + " failed");
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) throw std::runtime_error("admin_http_get: send failed");
    sent += static_cast<std::size_t>(n);
  }

  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) throw std::runtime_error("admin_http_get: recv failed");
    if (n == 0) break;  // Connection: close — EOF delimits the response
    raw.append(buf, static_cast<std::size_t>(n));
  }

  const std::size_t status_start = raw.find(' ');
  if (raw.compare(0, 5, "HTTP/") != 0 || status_start == std::string::npos) {
    throw std::runtime_error("admin_http_get: malformed response");
  }
  HttpGetResult result;
  result.status = std::atoi(raw.c_str() + status_start + 1);
  const std::size_t body = raw.find("\r\n\r\n");
  if (body == std::string::npos) {
    throw std::runtime_error("admin_http_get: truncated response header");
  }
  result.body = raw.substr(body + 4);
  return result;
}

}  // namespace cmarkov::serve::net
