#include "src/serve/conversation.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/core/model_io.hpp"
#include "src/obs/export.hpp"

namespace cmarkov::serve {

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

Conversation::~Conversation() {
  if (session_id_.empty() || closed_) return;
  try {
    manager_.close_session(session_id_);
  } catch (const std::exception&) {
    // Disconnect raced with an explicit close; nothing left to release.
  }
}

Reply Conversation::handle(Request request) {
  Reply reply;
  if (closed_) {
    reply.text = "ERR session closed (BYE already processed)";
    return reply;
  }
  try {
    reply.text =
        std::visit([&](auto& op) { return serve(op, reply); }, request);
  } catch (const std::exception& e) {
    reply.text = std::string("ERR ") + e.what();
  }
  return reply;
}

const std::string& Conversation::bound() const {
  if (session_id_.empty()) {
    throw std::logic_error("no session (send HELLO first)");
  }
  return session_id_;
}

std::string Conversation::serve(Hello& hello, Reply&) {
  if (!session_id_.empty()) {
    return "ERR session already bound to '" + session_id_ + "'";
  }
  std::string id = hello.session.empty() ? manager_.next_session_id()
                                         : std::move(hello.session);
  manager_.open_session(id, hello.model);
  session_id_ = std::move(id);
  trace_id_ = std::move(hello.tid);
  std::string text = "OK session=" + session_id_ + " model=" + hello.model;
  if (!trace_id_.empty()) text += " tid=" + trace_id_;
  return text;
}

std::string Conversation::serve(Events& batch, Reply& reply) {
  const std::string& id = bound();
  const std::string& tid = batch.tid.empty() ? trace_id_ : batch.tid;
  // A non-empty trace id bypasses sampling, so the submit outcome below is
  // the only thing deciding whether a reply span exists for an event. The
  // reply spans of one frame share its submit interval.
  const bool traced = manager_.tracer().enabled() && !tid.empty();
  const double start = traced ? manager_.now_micros() : 0.0;
  std::vector<std::uint64_t> seqs;
  const SubmitTally tally = manager_.submit_batch(
      id, std::move(batch.events), tid, traced ? &seqs : nullptr);
  if (tally.unknown_session) return "ERR session vanished";
  reply.accepted = tally.accepted;
  reply.dropped = tally.dropped;
  reply.rejected = tally.rejected;
  const double duration = traced ? manager_.now_micros() - start : 0.0;
  for (const std::uint64_t seq : seqs) {
    // Thread 0 is the transport side; worker spans use the shard id.
    manager_.record_span({"reply", id, tid, seq, start, duration,
                          /*thread=*/0});
  }
  return {};
}

std::string Conversation::serve(Stats&, Reply&) {
  const std::string& id = bound();
  manager_.drain(id);  // verdicts are async; settle before reporting
  return format_session_stats(manager_.session_stats(id));
}

std::string Conversation::serve(Metrics&, Reply&) {
  manager_.drain();  // the reply is service-wide: settle every shard
  // Versioned key=value exposition generated from the metrics registry
  // (docs/SERVING.md documents the schema).
  return "METRICS " + obs::to_kv_line(manager_.metrics_registry());
}

std::string Conversation::serve(Trace& trace, Reply&) {
  const std::string& id = bound();
  if (trace.n == 0) return "ERR usage: TRACE [n] (n must be > 0)";
  manager_.drain(id);  // decisions are recorded by workers; settle first
  const auto records = manager_.recent_decisions(id, trace.n);
  std::string text =
      "TRACE v=1 session=" + id + " n=" + std::to_string(records.size());
  for (const obs::DecisionRecord& record : records) {
    text += '\n';
    text += obs::decision_record_json(record);
  }
  return text;
}

std::string Conversation::serve(Evict&, Reply&) {
  const std::string& id = bound();
  // False when already frozen (an earlier EVICT, or the residency budget
  // beat us); the report is the same either way.
  manager_.evict_session(id);
  return "OK session=" + id + " evicted_dropped=" +
         std::to_string(manager_.session_stats(id).evicted_dropped);
}

std::string Conversation::serve(Reload& reload, Reply&) {
  const ReloadReport report = manager_.reload_model(
      reload.model, std::make_shared<const core::Detector>(
                        core::load_detector_file(reload.path)));
  return "OK model=" + reload.model +
         " version=" + std::to_string(report.version) +
         " rebound=" + std::to_string(report.sessions_rebound);
}

std::string Conversation::serve(Failpoint& failpoint, Reply&) {
  auto& registry = util::FailpointRegistry::instance();
  if (!failpoint.name.empty()) {
    registry.arm(failpoint.name, failpoint.spec);
    return "OK failpoint=" + failpoint.name +
           " spec=" + util::failpoint_spec_name(failpoint.spec);
  }
  const std::vector<util::FailpointInfo> points = registry.snapshot();
  std::string text = "FAILPOINT v=1 n=" + std::to_string(points.size());
  for (const util::FailpointInfo& info : points) {
    text += '\n';
    text += info.name + " " + util::failpoint_spec_name(info.spec) +
            " hits=" + std::to_string(info.hits);
  }
  return text;
}

std::string Conversation::serve(Bye&, Reply&) {
  const SessionStats stats = manager_.close_session(bound());
  closed_ = true;
  return "OK session=" + stats.id +
         " alarms=" + std::to_string(stats.monitor.alarms) +
         " processed=" + std::to_string(stats.processed);
}

}  // namespace cmarkov::serve
