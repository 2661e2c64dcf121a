#include "src/serve/protocol.hpp"

#include <memory>
#include <sstream>

#include "src/core/model_io.hpp"
#include "src/obs/export.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/strings.hpp"

namespace cmarkov::serve {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> words;
  std::istringstream stream{std::string(trim(line))};
  std::string word;
  while (stream >> word) words.push_back(std::move(word));
  return words;
}

/// Detaches a trailing "tid=<id>" token. Returns false (leaving `words`
/// untouched) when the last token is not a tid; the id may not be empty —
/// that surfaces as a usage error in the caller's arity check, since the
/// token is consumed with an empty value.
bool take_trace_id(std::vector<std::string>& words, std::string& tid) {
  if (words.size() < 2 || words.back().rfind("tid=", 0) != 0) return false;
  tid = words.back().substr(4);
  words.pop_back();
  return true;
}

}  // namespace

std::string format_session_stats(const SessionStats& stats) {
  std::ostringstream out;
  out << "STATS v=1 session=" << stats.id << " model=" << stats.model
      << " enqueued=" << stats.enqueued << " processed=" << stats.processed
      << " dropped=" << stats.dropped << " rejected=" << stats.rejected
      << " evicted_dropped=" << stats.evicted_dropped
      << " events=" << stats.monitor.events_seen
      << " observed=" << stats.monitor.events_observed
      << " windows=" << stats.monitor.windows_scored
      << " flagged=" << stats.monitor.windows_flagged
      << " alarms=" << stats.monitor.alarms;
  return out.str();
}

std::string format_hello_reply(const std::string& id, const std::string& model,
                               const std::string& trace_id) {
  std::string reply = "OK session=" + id + " model=" + model;
  if (!trace_id.empty()) reply += " tid=" + trace_id;
  return reply;
}

std::string format_trace_reply(
    const std::string& id, const std::vector<obs::DecisionRecord>& records) {
  std::string reply =
      "TRACE v=1 session=" + id + " n=" + std::to_string(records.size());
  for (const obs::DecisionRecord& record : records) {
    reply += '\n';
    reply += obs::decision_record_json(record);
  }
  return reply;
}

std::string format_evict_reply(const SessionStats& stats) {
  return "OK session=" + stats.id +
         " evicted_dropped=" + std::to_string(stats.evicted_dropped);
}

std::string format_bye_reply(const SessionStats& stats) {
  return "OK session=" + stats.id +
         " alarms=" + std::to_string(stats.monitor.alarms) +
         " processed=" + std::to_string(stats.processed);
}

ProtocolSession::ProtocolSession(SessionManager& manager)
    : manager_(manager) {}

ProtocolSession::~ProtocolSession() {
  if (!session_id_.empty() && !closed_) {
    try {
      manager_.close_session(session_id_);
    } catch (const std::exception&) {
      // Disconnect raced with an explicit close; nothing left to release.
    }
  }
}

std::string ProtocolSession::handle_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return "";
  const std::vector<std::string> words = tokenize(trimmed);
  const std::string& command = words.front();
  if (closed_) return "ERR session closed (BYE already processed)";
  try {
    if (command == "HELLO") return handle_hello(words);
    if (command == "EV") return handle_event(words);
    if (command == "STATS") {
      if (session_id_.empty()) return kNoSessionReply;
      manager_.drain();  // verdicts are async; settle before reporting
      return format_session_stats(manager_.session_stats(session_id_));
    }
    if (command == "METRICS") {
      manager_.drain();
      // Versioned key=value exposition generated from the metrics
      // registry (docs/SERVING.md documents the schema).
      return "METRICS " + obs::to_kv_line(manager_.metrics_registry());
    }
    if (command == "TRACE") return handle_trace(words);
    if (command == "EVICT") return handle_evict();
    if (command == "RELOAD") return handle_reload(words);
    if (command == "FAILPOINT") return handle_failpoint(words);
    if (command == "BYE") return handle_bye();
    return "ERR unknown command '" + command + "'";
  } catch (const std::exception& e) {
    return std::string("ERR ") + e.what();
  }
}

std::string ProtocolSession::handle_hello(std::vector<std::string> words) {
  if (!session_id_.empty()) {
    return "ERR session already bound to '" + session_id_ + "'";
  }
  std::string tid;
  const bool has_tid = take_trace_id(words, tid);
  if (words.size() < 2 || words.size() > 3 || (has_tid && tid.empty())) {
    return "ERR usage: HELLO <model> [session-id] [tid=<id>]";
  }
  const std::string& model = words[1];
  const std::string id =
      words.size() == 3 ? words[2] : manager_.next_session_id();
  manager_.open_session(id, model);
  session_id_ = id;
  default_trace_id_ = tid;
  return format_hello_reply(id, model, tid);
}

std::string ProtocolSession::handle_event(std::vector<std::string> words) {
  if (session_id_.empty()) return kNoSessionReply;
  std::string tid;
  const bool has_tid = take_trace_id(words, tid);
  if (words.size() < 3 || words.size() > 4 || (has_tid && tid.empty())) {
    return "ERR usage: EV <site> <callee> [sys|lib] [tid=<id>]";
  }
  trace::CallEvent event;
  event.caller = words[1];
  event.name = words[2];
  if (words.size() == 4) {
    if (words[3] == "sys") {
      event.kind = ir::CallKind::kSyscall;
    } else if (words[3] == "lib") {
      event.kind = ir::CallKind::kLibcall;
    } else {
      return "ERR unknown call kind '" + words[3] + "' (sys|lib)";
    }
  }
  const std::string& trace_id = has_tid ? tid : default_trace_id_;
  const std::string suffix = has_tid ? " tid=" + tid : std::string();
  // A non-empty trace id bypasses sampling, so the submit outcome below is
  // the only thing deciding whether a reply span exists for this event.
  const bool traced = manager_.tracer().enabled() && !trace_id.empty();
  const double reply_start = traced ? manager_.now_micros() : 0.0;
  std::uint64_t seq = 0;
  const SubmitResult result =
      manager_.submit(session_id_, std::move(event), trace_id, &seq);
  std::string reply;
  switch (result) {
    case SubmitResult::kAccepted:
      reply = "OK" + suffix;
      break;
    case SubmitResult::kDroppedOldest:
      reply = "OK dropped-oldest" + suffix;
      break;
    case SubmitResult::kRejected:
      return "ERR rejected queue-full";
    case SubmitResult::kUnknownSession:
      return "ERR session vanished";
  }
  if (traced) {
    obs::SpanRecord span;
    span.name = "reply";
    span.session = session_id_;
    span.trace_id = trace_id;
    span.seq = seq;
    span.start_micros = reply_start;
    span.duration_micros = manager_.now_micros() - reply_start;
    span.thread = 0;  // transport side; worker spans use the shard id
    manager_.record_span(std::move(span));
  }
  return reply;
}

std::string ProtocolSession::handle_trace(
    const std::vector<std::string>& words) {
  if (session_id_.empty()) return kNoSessionReply;
  if (words.size() > 2) return "ERR usage: TRACE [n]";
  std::size_t n = 16;
  if (words.size() == 2) {
    const std::string& arg = words[1];
    if (arg.empty() ||
        arg.find_first_not_of("0123456789") != std::string::npos) {
      return "ERR usage: TRACE [n]";
    }
    n = static_cast<std::size_t>(std::stoull(arg));
    if (n == 0) return "ERR usage: TRACE [n] (n must be > 0)";
  }
  manager_.drain();  // decisions are recorded by workers; settle first
  return format_trace_reply(session_id_,
                            manager_.recent_decisions(session_id_, n));
}

std::string ProtocolSession::handle_evict() {
  if (session_id_.empty()) return kNoSessionReply;
  // False when already frozen (an earlier EVICT, or the residency budget
  // beat us); the report is the same either way.
  manager_.evict_session(session_id_);
  return format_evict_reply(manager_.session_stats(session_id_));
}

std::string ProtocolSession::handle_reload(
    const std::vector<std::string>& words) {
  if (words.size() != 3) return "ERR usage: RELOAD <model> <path>";
  const ReloadReport report =
      manager_.reload_model(words[1], std::make_shared<const core::Detector>(
                                          core::load_detector_file(words[2])));
  return "OK model=" + words[1] + " version=" + std::to_string(report.version) +
         " rebound=" + std::to_string(report.sessions_rebound);
}

std::string ProtocolSession::handle_failpoint(
    const std::vector<std::string>& words) {
  auto& registry = util::FailpointRegistry::instance();
  if (words.size() == 1) {
    const std::vector<util::FailpointInfo> points = registry.snapshot();
    std::string reply =
        "FAILPOINT v=1 n=" + std::to_string(points.size());
    for (const util::FailpointInfo& info : points) {
      reply += '\n';
      reply += info.name + " " + util::failpoint_spec_name(info.spec) +
               " hits=" + std::to_string(info.hits);
    }
    return reply;
  }
  if (words.size() != 3) {
    return "ERR usage: FAILPOINT [<name> <off|always|once|every:N|after:N>]";
  }
  const auto spec = util::parse_failpoint_spec(words[2]);
  if (!spec) {
    return "ERR bad failpoint spec '" + words[2] +
           "' (off|always|once|every:N|after:N)";
  }
  registry.arm(words[1], *spec);
  return "OK failpoint=" + words[1] +
         " spec=" + util::failpoint_spec_name(*spec);
}

std::string ProtocolSession::handle_bye() {
  if (session_id_.empty()) return kNoSessionReply;
  const SessionStats stats = manager_.close_session(session_id_);
  closed_ = true;
  return format_bye_reply(stats);
}

}  // namespace cmarkov::serve
