// Tests for the epoll TCP front-end and the session lifecycle that backs
// it: CMKB frame encode/decode round trips, a table of hostile frames
// (reject, account, never crash), the BinarySession conversation, the
// bit-identical snapshot/evict/restore guarantee, snapshot persistence
// across manager instances, LRU residency enforcement, eviction drop
// accounting, hot model reload under live traffic, and end-to-end socket
// conversations in both text and binary mode against a real EpollServer.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/net/binary_session.hpp"
#include "src/serve/net/epoll_server.hpp"
#include "src/serve/net/frame.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/session_manager.hpp"
#include "src/util/parallel.hpp"
#include "src/util/strings.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::serve::net {
namespace {

core::Detector train_detector(const workload::ProgramSuite& suite,
                              std::uint64_t seed) {
  core::DetectorConfig config;
  config.pipeline.filter = analysis::CallFilter::kSyscalls;
  config.training.max_iterations = 4;
  core::Detector detector = core::Detector::build(suite.module(), config);
  detector.train(workload::collect_traces(suite, 20, seed).traces);
  return detector;
}

struct Fixture {
  workload::ProgramSuite gzip = workload::make_gzip_suite();
  std::shared_ptr<const core::Detector> gzip_model =
      std::make_shared<const core::Detector>(train_detector(gzip, 91));

  std::vector<trace::CallEvent> events_for(std::uint64_t seed,
                                           std::size_t runs = 3) const {
    std::vector<trace::CallEvent> events;
    for (const auto& trace :
         workload::collect_traces(gzip, runs, seed).traces) {
      events.insert(events.end(), trace.events.begin(), trace.events.end());
    }
    return events;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// A registry per lifecycle test keeps version bumps from one test out of
/// the restore staleness checks of the next (the detector itself is shared).
std::unique_ptr<ModelRegistry> make_registry() {
  auto registry = std::make_unique<ModelRegistry>();
  registry->add_shared("gzip", fixture().gzip_model);
  return registry;
}

ServiceConfig pump_config() {
  ServiceConfig config;
  config.num_workers = 1;
  config.manual_pump = true;
  return config;
}

// -- Frame round trips -----------------------------------------------------

TEST(FrameTest, EncodeDecodeRoundTrip) {
  const std::string payload = encode_hello_payload("gzip", "s-9", "tid-1");
  const std::string wire = encode_frame(FrameOp::kHello, 0, payload);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + payload.size());

  FrameParser parser;
  parser.feed(wire.data(), wire.size());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op, FrameOp::kHello);
  EXPECT_EQ(frame->flags, 0u);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_TRUE(parser.error().empty());
  EXPECT_EQ(parser.buffered(), 0u);
  EXPECT_FALSE(parser.next().has_value());

  const HelloRequest hello = decode_hello_payload(frame->payload);
  EXPECT_EQ(hello.model, "gzip");
  EXPECT_EQ(hello.session, "s-9");
  EXPECT_EQ(hello.trace_id, "tid-1");
}

TEST(FrameTest, EventBatchRoundTrip) {
  std::vector<trace::CallEvent> events(3);
  events[0].kind = ir::CallKind::kSyscall;
  events[0].caller = "main";
  events[0].name = "read";
  events[1].kind = ir::CallKind::kLibcall;
  events[1].caller = "compress_block";
  events[1].name = "malloc";
  events[2].kind = ir::CallKind::kSyscall;
  events[2].caller = "";
  events[2].name = "close";

  const std::string payload = encode_event_batch_payload(events);
  const std::vector<trace::CallEvent> decoded =
      decode_event_batch_payload(payload);
  ASSERT_EQ(decoded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].kind, events[i].kind) << i;
    EXPECT_EQ(decoded[i].caller, events[i].caller) << i;
    EXPECT_EQ(decoded[i].name, events[i].name) << i;
  }

  EXPECT_EQ(decode_trace_payload(encode_trace_payload(17)), 17u);
}

TEST(FrameTest, ParserHandlesByteAtATimeAndBackToBackFrames) {
  const std::string one = encode_frame(FrameOp::kStats, 0, "");
  const std::string two =
      encode_frame(FrameOp::kReply, kFlagNoReply, "OK n=5");

  FrameParser parser;
  for (char byte : one) {
    EXPECT_FALSE(parser.next().has_value());
    parser.feed(&byte, 1);
  }
  const auto first = parser.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->op, FrameOp::kStats);

  // Two complete frames in a single feed come out one next() at a time.
  const std::string both = two + two;
  parser.feed(both.data(), both.size());
  for (int i = 0; i < 2; ++i) {
    const auto frame = parser.next();
    ASSERT_TRUE(frame.has_value()) << i;
    EXPECT_EQ(frame->op, FrameOp::kReply) << i;
    EXPECT_EQ(frame->flags, kFlagNoReply) << i;
    EXPECT_EQ(frame->payload, "OK n=5") << i;
  }
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.buffered(), 0u);
}

// -- Hostile input ---------------------------------------------------------

/// Framing-level attacks: the parser must latch its error state and stop
/// producing frames — the connection is beyond resynchronization.
TEST(FrameTest, HostileHeadersLatchParserError) {
  struct Case {
    const char* name;
    std::string bytes;
    const char* error_substring;
  };
  const std::string good = encode_frame(FrameOp::kStats, 0, "");

  std::string bad_magic = good;
  bad_magic[0] = 'X';

  std::string bad_version = good;
  bad_version[4] = 2;

  std::string oversized = good;
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(&oversized[8], &huge, sizeof(huge));

  const Case cases[] = {
      {"bad magic", bad_magic, "bad magic"},
      {"unsupported version", bad_version, "unsupported version"},
      {"oversized payload_len", oversized, "exceeds the"},
  };
  for (const Case& c : cases) {
    FrameParser parser;
    parser.feed(c.bytes.data(), c.bytes.size());
    EXPECT_FALSE(parser.next().has_value()) << c.name;
    EXPECT_NE(parser.error().find(c.error_substring), std::string::npos)
        << c.name << ": " << parser.error();
    // Latched: further feeding cannot resurrect the stream.
    parser.feed(good.data(), good.size());
    EXPECT_FALSE(parser.next().has_value()) << c.name;
  }
}

/// Payload-level attacks: well-framed bytes whose contents lie. Every one
/// must surface as a kError reply + connection close from BinarySession —
/// decoded, rejected, never crashing, never allocating ahead of the data.
TEST(FrameTest, HostilePayloadsAnswerErrorFrameAndClose) {
  struct Case {
    const char* name;
    FrameOp op;
    std::string payload;
  };

  // count=100000 with 8 payload bytes: the count guard must fire before
  // any reserve.
  std::string lying_count;
  const std::uint32_t count = 100000;
  lying_count.append(reinterpret_cast<const char*>(&count), 4);
  lying_count.append(4, '\0');

  // One event whose kind byte is not 0/1.
  std::string bad_kind;
  const std::uint32_t one = 1;
  bad_kind.append(reinterpret_cast<const char*>(&one), 4);
  bad_kind.push_back(7);
  bad_kind.append(4, '\0');  // two empty strings

  // A string length that runs past the payload end.
  std::string lying_str;
  lying_str.push_back(static_cast<char>(0xff));
  lying_str.push_back(static_cast<char>(0xff));
  lying_str.append("gz");

  const Case cases[] = {
      {"truncated HELLO", FrameOp::kHello, std::string("\x04\x00gz", 4)},
      {"HELLO string length lies", FrameOp::kHello, lying_str},
      {"HELLO trailing bytes", FrameOp::kHello,
       encode_hello_payload("gzip", "", "") + "junk"},
      {"empty model name", FrameOp::kHello, encode_hello_payload("", "", "")},
      {"event count lies", FrameOp::kEventBatch, lying_count},
      {"unknown event kind", FrameOp::kEventBatch, bad_kind},
      {"truncated event batch", FrameOp::kEventBatch, std::string("\x01", 1)},
      {"truncated TRACE", FrameOp::kTrace, std::string("\x05\x00", 2)},
      {"server-side op from client", FrameOp::kReply, "spoof"},
      {"unknown op", static_cast<FrameOp>(0x42), ""},
  };
  for (const Case& c : cases) {
    auto registry = make_registry();
    SessionManager manager(*registry, pump_config());
    BinarySession session(manager);
    // The lifecycle verbs require a bound session; bind one so the hostile
    // payload is what gets rejected, not the missing HELLO.
    if (c.op != FrameOp::kHello) {
      Frame hello;
      hello.op = FrameOp::kHello;
      hello.payload = encode_hello_payload("gzip", "victim", "");
      const auto bound = session.handle_frame(hello);
      ASSERT_FALSE(bound.close) << c.name;
    }
    Frame frame;
    frame.op = c.op;
    frame.payload = c.payload;
    const BinarySession::Output out = session.handle_frame(frame);
    EXPECT_TRUE(out.close) << c.name;
    FrameParser parser;
    parser.feed(out.bytes.data(), out.bytes.size());
    const auto error_frame = parser.next();
    ASSERT_TRUE(error_frame.has_value()) << c.name;
    EXPECT_EQ(error_frame->op, FrameOp::kError) << c.name;
    EXPECT_FALSE(error_frame->payload.empty()) << c.name;
  }
}

// -- BinarySession conversation --------------------------------------------

std::string reply_text(const BinarySession::Output& out) {
  FrameParser parser;
  parser.feed(out.bytes.data(), out.bytes.size());
  const auto frame = parser.next();
  if (!frame.has_value()) return "<no frame>";
  return frame->payload;
}

Frame make_frame(FrameOp op, std::string payload, std::uint16_t flags = 0) {
  Frame frame;
  frame.op = op;
  frame.flags = flags;
  frame.payload = std::move(payload);
  return frame;
}

std::string event_line(const trace::CallEvent& event) {
  const std::string site = event.caller.empty() ? "?" : event.caller;
  const char* kind = event.kind == ir::CallKind::kLibcall ? "lib" : "sys";
  return "EV " + site + " " + event.name + " " + kind + "\n";
}

TEST(BinarySessionTest, FullConversationMatchesTextProtocolReplies) {
  auto registry = make_registry();
  // Decision tracing on, so the TRACE step carries records.
  ServiceConfig config = pump_config();
  config.monitor.decisions.enabled = true;
  config.monitor.decisions.sample_every = 1;
  SessionManager manager(*registry, config);
  BinarySession session(manager);
  // The same conversation over the text protocol, on its own manager so
  // both sessions can be called "bin-1": every reply must match byte for
  // byte (EV batches aside — the text protocol acks per event).
  SessionManager text_manager(*registry, config);
  ProtocolSession text(text_manager);

  // Application errors before HELLO are kReply "ERR ...", not kError.
  const auto early = session.handle_frame(
      make_frame(FrameOp::kEventBatch, encode_event_batch_payload({})));
  EXPECT_FALSE(early.close);
  EXPECT_EQ(reply_text(early), "ERR no session (send HELLO first)");
  EXPECT_EQ(text.handle_line("EV main read"), reply_text(early));

  const auto unknown_model = session.handle_frame(
      make_frame(FrameOp::kHello, encode_hello_payload("nope", "", "")));
  EXPECT_FALSE(unknown_model.close);
  EXPECT_TRUE(starts_with(reply_text(unknown_model), "ERR"));

  const auto hello = session.handle_frame(
      make_frame(FrameOp::kHello, encode_hello_payload("gzip", "bin-1", "")));
  EXPECT_FALSE(hello.close);
  EXPECT_EQ(reply_text(hello), "OK session=bin-1 model=gzip");
  EXPECT_EQ(text.handle_line("HELLO gzip bin-1"), reply_text(hello));
  EXPECT_EQ(session.session_id(), "bin-1");

  const std::vector<trace::CallEvent> events = fixture().events_for(5, 1);
  const auto batch = session.handle_frame(
      make_frame(FrameOp::kEventBatch, encode_event_batch_payload(events)));
  EXPECT_FALSE(batch.close);
  EXPECT_EQ(reply_text(batch), "OK n=" + std::to_string(events.size()) +
                                   " dropped=0 rejected=0");

  // kFlagNoReply suppresses the ack entirely.
  const auto silent = session.handle_frame(make_frame(
      FrameOp::kEventBatch, encode_event_batch_payload(events), kFlagNoReply));
  EXPECT_FALSE(silent.close);
  EXPECT_TRUE(silent.bytes.empty());
  for (int round = 0; round < 2; ++round) {
    for (const auto& event : events) {
      ASSERT_EQ(text.handle_line(event_line(event)), "OK");
    }
  }

  const auto stats = session.handle_frame(make_frame(FrameOp::kStats, ""));
  manager.drain();
  const std::string expected_stats =
      format_session_stats(manager.session_stats("bin-1"));
  EXPECT_EQ(reply_text(stats), expected_stats);
  EXPECT_EQ(text.handle_line("STATS"), expected_stats);
  EXPECT_NE(expected_stats.find("evicted_dropped=0"), std::string::npos);

  const auto trace = session.handle_frame(
      make_frame(FrameOp::kTrace, encode_trace_payload(3)));
  EXPECT_FALSE(trace.close);
  EXPECT_TRUE(starts_with(reply_text(trace), "TRACE v=1 session=bin-1 n=3\n"))
      << reply_text(trace);
  EXPECT_EQ(text.handle_line("TRACE 3"), reply_text(trace));

  // The second EVICT finds the session already frozen; same report.
  for (int round = 0; round < 2; ++round) {
    const auto evict = session.handle_frame(make_frame(FrameOp::kEvict, ""));
    EXPECT_FALSE(evict.close);
    EXPECT_EQ(reply_text(evict), "OK session=bin-1 evicted_dropped=0");
    EXPECT_EQ(text.handle_line("EVICT"), reply_text(evict));
  }

  const auto bye = session.handle_frame(make_frame(FrameOp::kBye, ""));
  EXPECT_TRUE(bye.close);
  EXPECT_TRUE(starts_with(reply_text(bye), "OK session=bin-1 alarms="));
  EXPECT_EQ(text.handle_line("BYE"), reply_text(bye));
  EXPECT_TRUE(session.closed());
  EXPECT_FALSE(manager.has_session("bin-1"));
}

TEST(BinarySessionTest, TracedConversationRecordsTheSameReplySpans) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.tracing.enabled = true;
  config.tracing.sample_every = 0;  // only trace-id carrying events trace
  SessionManager manager(*registry, config);
  SessionManager text_manager(*registry, config);
  BinarySession session(manager);
  ProtocolSession text(text_manager);

  const auto hello = session.handle_frame(make_frame(
      FrameOp::kHello, encode_hello_payload("gzip", "bin-1", "t-1")));
  EXPECT_EQ(reply_text(hello), "OK session=bin-1 model=gzip tid=t-1");
  EXPECT_EQ(text.handle_line("HELLO gzip bin-1 tid=t-1"), reply_text(hello));

  const std::vector<trace::CallEvent> events = fixture().events_for(5, 1);
  const auto batch = session.handle_frame(
      make_frame(FrameOp::kEventBatch, encode_event_batch_payload(events)));
  EXPECT_EQ(reply_text(batch), "OK n=" + std::to_string(events.size()) +
                                   " dropped=0 rejected=0");
  for (const auto& event : events) {
    ASSERT_EQ(text.handle_line(event_line(event)), "OK");
  }
  manager.drain();
  text_manager.drain();

  const auto reply_spans = [](const SessionManager& m) {
    std::vector<obs::SpanRecord> spans;
    for (const obs::SpanRecord& span : m.tracer().snapshot()) {
      if (span.name == "reply") spans.push_back(span);
    }
    return spans;
  };
  const std::vector<obs::SpanRecord> binary_spans = reply_spans(manager);
  const std::vector<obs::SpanRecord> text_spans = reply_spans(text_manager);
  ASSERT_EQ(binary_spans.size(), events.size());
  ASSERT_EQ(text_spans.size(), binary_spans.size());
  for (std::size_t i = 0; i < binary_spans.size(); ++i) {
    EXPECT_EQ(binary_spans[i].name, text_spans[i].name) << i;
    EXPECT_EQ(binary_spans[i].session, "bin-1") << i;
    EXPECT_EQ(text_spans[i].session, "bin-1") << i;
    EXPECT_EQ(binary_spans[i].trace_id, "t-1") << i;
    EXPECT_EQ(text_spans[i].trace_id, "t-1") << i;
  }
}

/// The sibling of HostilePayloadsAnswerErrorFrameAndClose: a well-formed
/// frame the conversation refuses is an application error — a kReply
/// "ERR …" on a connection that stays open.
TEST(BinarySessionTest, ApplicationErrorsAnswerReplyAndKeepTheConnection) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.overload.sustain_micros = 0.0;  // one observation per rung
  SessionManager manager(*registry, config);
  for (int rung = 0; rung < 2; ++rung) {
    manager.overload_governor().update(1.0, 100, 100, 0.0);
  }
  ASSERT_EQ(manager.overload_governor().level(), OverloadLevel::kShedHellos);

  BinarySession session(manager);
  const auto shed = session.handle_frame(
      make_frame(FrameOp::kHello, encode_hello_payload("gzip", "late", "")));
  EXPECT_FALSE(shed.close);
  FrameParser parser;
  parser.feed(shed.bytes.data(), shed.bytes.size());
  const auto frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->op, FrameOp::kReply);
  EXPECT_EQ(frame->payload, "ERR overloaded retry-after=1000");

  SessionManager text_manager(*registry, config);
  for (int rung = 0; rung < 2; ++rung) {
    text_manager.overload_governor().update(1.0, 100, 100, 0.0);
  }
  ProtocolSession text(text_manager);
  EXPECT_EQ(text.handle_line("HELLO gzip late"), frame->payload);
}

TEST(BinarySessionTest, DestructorClosesUnfinishedSession) {
  auto registry = make_registry();
  SessionManager manager(*registry, pump_config());
  {
    BinarySession session(manager);
    session.handle_frame(
        make_frame(FrameOp::kHello, encode_hello_payload("gzip", "gone", "")));
    EXPECT_TRUE(manager.has_session("gone"));
  }
  EXPECT_FALSE(manager.has_session("gone"));
}

TEST(BinarySessionTest, EvictVerbReportsLifecycleDrops) {
  auto registry = make_registry();
  SessionManager manager(*registry, pump_config());
  BinarySession session(manager);
  session.handle_frame(
      make_frame(FrameOp::kHello, encode_hello_payload("gzip", "ev-1", "")));
  // Queue three events and evict before pumping: the purge is lifecycle
  // loss and must be reported on the eviction counter.
  std::vector<trace::CallEvent> events(3);
  for (auto& event : events) {
    event.caller = "main";
    event.name = "read";
  }
  session.handle_frame(
      make_frame(FrameOp::kEventBatch, encode_event_batch_payload(events)));
  const auto evicted = session.handle_frame(make_frame(FrameOp::kEvict, ""));
  EXPECT_FALSE(evicted.close);
  EXPECT_EQ(reply_text(evicted), "OK session=ev-1 evicted_dropped=3");
}

// -- Session lifecycle: snapshot / evict / restore -------------------------

void feed(SessionManager& manager, const std::string& id,
          const std::vector<trace::CallEvent>& events, std::size_t begin,
          std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    ASSERT_EQ(manager.submit(id, events[i]), SubmitResult::kAccepted) << i;
  }
  manager.drain();
}

void expect_same_frozen_state(const SessionSnapshot& a,
                              const SessionSnapshot& b) {
  EXPECT_EQ(a.monitor.window, b.monitor.window);
  EXPECT_EQ(a.monitor.consecutive_flagged, b.monitor.consecutive_flagged);
  EXPECT_EQ(a.monitor.cooldown_remaining, b.monitor.cooldown_remaining);
  EXPECT_EQ(a.monitor.stats.events_seen, b.monitor.stats.events_seen);
  EXPECT_EQ(a.monitor.stats.events_observed, b.monitor.stats.events_observed);
  EXPECT_EQ(a.monitor.stats.windows_scored, b.monitor.stats.windows_scored);
  EXPECT_EQ(a.monitor.stats.windows_flagged, b.monitor.stats.windows_flagged);
  EXPECT_EQ(a.monitor.stats.alarms, b.monitor.stats.alarms);
  EXPECT_EQ(a.windows_to_alarm, b.windows_to_alarm);
  EXPECT_EQ(a.cooldown_events, b.cooldown_events);
}

TEST(SessionLifecycleTest, EvictRestoreIsBitIdentical) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.monitor.windows_to_alarm = 2;
  config.monitor.cooldown_events = 7;
  SessionManager manager(*registry, config);

  const std::vector<trace::CallEvent> events = fixture().events_for(23);
  ASSERT_GT(events.size(), 20u);
  // An odd cut point well inside the stream, deliberately mid-window.
  const std::size_t cut = events.size() / 2 + 1;

  manager.open_session("interrupted", "gzip");
  manager.open_session("straight", "gzip");
  feed(manager, "interrupted", events, 0, cut);
  feed(manager, "straight", events, 0, events.size());

  ASSERT_TRUE(manager.evict_session("interrupted"));
  EXPECT_FALSE(manager.evict_session("interrupted"));  // already evicted
  EXPECT_TRUE(manager.snapshot_store().contains("interrupted"));
  EXPECT_TRUE(manager.has_session("interrupted"));  // still addressable
  EXPECT_EQ(manager.resident_sessions(), 1u);

  // Stats of the evicted session remain queryable from its snapshot.
  const SessionStats frozen = manager.session_stats("interrupted");
  EXPECT_EQ(frozen.processed, cut);
  EXPECT_EQ(frozen.monitor.events_seen, cut);

  // Submitting to the evicted id transparently restores it.
  feed(manager, "interrupted", events, cut, events.size());
  EXPECT_FALSE(manager.snapshot_store().contains("interrupted"));
  EXPECT_EQ(manager.resident_sessions(), 2u);

  // Freeze both and compare the complete scoring state: the interrupted
  // session must be bit-identical to the one that never stopped.
  ASSERT_TRUE(manager.evict_session("interrupted"));
  ASSERT_TRUE(manager.evict_session("straight"));
  const auto a = manager.snapshot_store().peek("interrupted");
  const auto b = manager.snapshot_store().peek("straight");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  expect_same_frozen_state(*a, *b);
  EXPECT_EQ(a->processed, events.size());
  EXPECT_EQ(a->enqueued, events.size());
  EXPECT_EQ(a->dropped, 0u);
  EXPECT_EQ(a->evicted_dropped, 0u);

  // The text round trip itself is exact.
  const SessionSnapshot reparsed =
      decode_session_snapshot(encode_session_snapshot(*a));
  expect_same_frozen_state(reparsed, *a);
  EXPECT_EQ(reparsed.id, a->id);
  EXPECT_EQ(reparsed.model_fingerprint, a->model_fingerprint);
}

/// The CMKB HELLO admits arbitrary bytes in session and model names; the
/// snapshot text format length-prefixes those fields so whitespace (which
/// would derail a tokenizing reader) survives the round trip.
TEST(SessionSnapshotTest, WhitespaceIdAndModelSurviveTheRoundTrip) {
  SessionSnapshot snap;
  snap.id = "a b\nc\td ";
  snap.model = " gzip v2\n";
  snap.model_version = 3;
  snap.model_fingerprint = 0x1234;
  snap.enqueued = 17;
  snap.processed = 16;
  snap.windows_to_alarm = 2;
  snap.cooldown_events = 5;
  snap.monitor.window = {4, 7, 0};
  snap.monitor.consecutive_flagged = 1;
  snap.monitor.stats.events_seen = 16;

  const SessionSnapshot reparsed =
      decode_session_snapshot(encode_session_snapshot(snap));
  EXPECT_EQ(reparsed.id, snap.id);
  EXPECT_EQ(reparsed.model, snap.model);
  EXPECT_EQ(reparsed.model_version, snap.model_version);
  EXPECT_EQ(reparsed.enqueued, snap.enqueued);
  EXPECT_EQ(reparsed.processed, snap.processed);
  expect_same_frozen_state(reparsed, snap);

  // An empty id is legal too (the daemon names such sessions itself, but
  // the codec must not choke on the zero-length prefix).
  SessionSnapshot empty;
  empty.model = "m";
  const SessionSnapshot empty_back =
      decode_session_snapshot(encode_session_snapshot(empty));
  EXPECT_EQ(empty_back.id, "");
  EXPECT_EQ(empty_back.model, "m");
}

/// One corrupt .session file must not abort daemon startup: load moves it
/// into <dir>/quarantine/ (visible for forensics, never silently skipped)
/// and every healthy snapshot — including one whose id carries whitespace
/// straight off the wire — still comes back.
TEST(SessionLifecycleTest, BootLoadSkipsMalformedSnapshotFiles) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_net_snap_corrupt";
  std::filesystem::remove_all(dir);
  const std::vector<trace::CallEvent> events = fixture().events_for(53, 1);
  const std::string spaced_id = "fleet host-7 pid 4242";

  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.snapshot_dir = dir;
  {
    SessionManager first(*registry, config);
    first.open_session(spaced_id, "gzip");
    feed(first, spaced_id, events, 0, 6);
    ASSERT_TRUE(first.evict_session(spaced_id));
  }
  {
    std::ofstream junk(dir + "/junk.session", std::ios::binary);
    junk << "cmarkov-session 1\nid 4 oops\nmodel";  // truncated mid-stream
  }
  {
    std::ofstream noise(dir + "/noise.session", std::ios::binary);
    noise << "not a snapshot at all";
  }

  SessionManager second(*registry, config);
  EXPECT_EQ(second.snapshot_store().load_directory(), 1u);
  EXPECT_TRUE(second.has_session(spaced_id));
  // Both corrupt files were quarantined, not deleted and not left behind.
  EXPECT_EQ(second.snapshot_store().quarantined_count(), 2u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/junk.session"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine/noise.session"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/junk.session"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/noise.session"));
  feed(second, spaced_id, events, 6, events.size());
  const SessionStats stats = second.session_stats(spaced_id);
  EXPECT_EQ(stats.processed, events.size());
  std::filesystem::remove_all(dir);
}

/// A disk-write failure during eviction degrades the snapshot to
/// memory-only instead of throwing into the serving path — but not
/// forever: the id goes on the dirty list and the write is re-attempted
/// once the obstruction clears.
TEST(SessionSnapshotTest, PutDegradesToMemoryOnlyWhenDiskWriteFails) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_net_snap_degrade";
  std::filesystem::remove_all(dir);
  SnapshotStore store(dir);
  store.set_retry_backoff(0, 0);
  // Occupy the target path with a directory so the atomic rename fails
  // (permission tricks don't bite when the tests run as root).
  std::filesystem::create_directories(dir + "/blocked.session");

  SessionSnapshot snap;
  snap.id = "blocked";
  snap.model = "gzip";
  snap.processed = 9;
  EXPECT_NO_THROW(store.put(std::move(snap)));
  EXPECT_TRUE(store.contains("blocked"));
  EXPECT_EQ(store.dirty_count(), 1u);

  // While blocked, retries keep failing (and keep the entry dirty)...
  EXPECT_EQ(store.retry_pending_writes(), 0u);
  EXPECT_EQ(store.dirty_count(), 1u);

  // ...and once the obstruction clears, the pending write lands.
  std::filesystem::remove_all(dir + "/blocked.session");
  EXPECT_EQ(store.retry_pending_writes(), 1u);
  EXPECT_EQ(store.dirty_count(), 0u);
  EXPECT_TRUE(std::filesystem::is_regular_file(dir + "/blocked.session"));

  const auto taken = store.take("blocked");
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->processed, 9u);
  // take() removes the on-disk mirror with the memory entry.
  EXPECT_FALSE(std::filesystem::exists(dir + "/blocked.session"));
  std::filesystem::remove_all(dir);
}

TEST(SessionLifecycleTest, SnapshotsPersistAcrossManagerInstances) {
  const std::string dir = ::testing::TempDir() + "/cmarkov_net_snapshots";
  std::filesystem::remove_all(dir);
  const std::vector<trace::CallEvent> events = fixture().events_for(29);
  const std::size_t cut = events.size() / 2;

  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.snapshot_dir = dir;
  {
    SessionManager first(*registry, config);
    first.open_session("persist", "gzip");
    feed(first, "persist", events, 0, cut);
    ASSERT_TRUE(first.evict_session("persist"));
    ASSERT_TRUE(std::filesystem::exists(dir + "/persist.session"));
  }  // daemon restart

  SessionManager second(*registry, config);
  EXPECT_FALSE(second.has_session("persist"));
  EXPECT_EQ(second.snapshot_store().load_directory(), 1u);
  EXPECT_TRUE(second.has_session("persist"));
  feed(second, "persist", events, cut, events.size());

  second.open_session("straight", "gzip");
  feed(second, "straight", events, 0, events.size());

  ASSERT_TRUE(second.evict_session("persist"));
  ASSERT_TRUE(second.evict_session("straight"));
  const auto restored = second.snapshot_store().peek("persist");
  const auto straight = second.snapshot_store().peek("straight");
  ASSERT_TRUE(restored.has_value());
  ASSERT_TRUE(straight.has_value());
  expect_same_frozen_state(*restored, *straight);
  std::filesystem::remove_all(dir);
}

TEST(SessionLifecycleTest, ResidencyBudgetEvictsLeastRecentlyActive) {
  auto registry = make_registry();
  ServiceConfig config = pump_config();
  config.max_resident_sessions = 2;
  SessionManager manager(*registry, config);
  const std::vector<trace::CallEvent> events = fixture().events_for(31, 1);

  manager.open_session("lru-a", "gzip");
  manager.open_session("lru-b", "gzip");
  feed(manager, "lru-a", events, 0, 4);
  feed(manager, "lru-b", events, 0, 4);  // a is now the least recent

  manager.open_session("lru-c", "gzip");
  EXPECT_EQ(manager.resident_sessions(), 2u);
  EXPECT_TRUE(manager.snapshot_store().contains("lru-a"));
  EXPECT_FALSE(manager.snapshot_store().contains("lru-b"));
  EXPECT_FALSE(manager.snapshot_store().contains("lru-c"));

  // Touching the evicted session restores it and pushes another one out.
  feed(manager, "lru-a", events, 4, 8);
  EXPECT_EQ(manager.resident_sessions(), 2u);
  EXPECT_FALSE(manager.snapshot_store().contains("lru-a"));
  EXPECT_EQ(manager.snapshot_store().size(), 1u);
  const SessionStats stats = manager.session_stats("lru-a");
  EXPECT_EQ(stats.processed, 8u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.evicted_dropped, 0u);
}

/// Satellite: queued events purged by an eviction are lifecycle loss and
/// must land on evicted_dropped — never on the backpressure drop counter.
TEST(SessionLifecycleTest, EvictionDropsAreNotBackpressureDrops) {
  auto registry = make_registry();
  SessionManager manager(*registry, pump_config());
  manager.open_session("acct", "gzip");

  trace::CallEvent event;
  event.caller = "main";
  event.name = "read";
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(manager.submit("acct", event), SubmitResult::kAccepted);
  }
  // No drain: all five are still queued when the eviction lands.
  ASSERT_TRUE(manager.evict_session("acct"));

  const SessionStats stats = manager.session_stats("acct");
  EXPECT_EQ(stats.enqueued, 5u);
  EXPECT_EQ(stats.processed, 0u);
  EXPECT_EQ(stats.evicted_dropped, 5u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  // The service-wide backpressure counter must not move either.
  EXPECT_EQ(manager.metrics_registry().snapshot().counters.at(
                "cmarkov_serve_events_dropped_total"),
            0u);

  // The loss is permanent but the accounting survives restore.
  ASSERT_EQ(manager.submit("acct", event), SubmitResult::kAccepted);
  manager.drain();
  const SessionStats after = manager.session_stats("acct");
  EXPECT_EQ(after.evicted_dropped, 5u);
  EXPECT_EQ(after.processed, 1u);
}

TEST(SessionLifecycleTest, HotReloadUnderLiveTrafficLosesNothing) {
  auto registry = make_registry();
  ServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;  // small: force real backpressure blocking
  config.policy = BackpressurePolicy::kBlock;
  SessionManager manager(*registry, config);

  const std::vector<trace::CallEvent> events = fixture().events_for(37);
  const std::size_t kRounds = 4;
  manager.open_session("live-a", "gzip");
  manager.open_session("live-b", "gzip");

  std::atomic<bool> reloads_done{false};
  std::vector<std::thread> producers;
  for (const std::string id : {"live-a", "live-b"}) {
    producers.emplace_back([&, id] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const auto& event : events) {
          ASSERT_EQ(manager.submit(id, event), SubmitResult::kAccepted);
        }
      }
    });
  }
  std::thread reloader([&] {
    for (int i = 0; i < 3; ++i) {
      const ReloadReport report = manager.reload_model(
          "gzip",
          std::make_shared<const core::Detector>(*fixture().gzip_model));
      EXPECT_EQ(report.sessions_rebound, 2u) << i;
      EXPECT_GT(report.version, 1u) << i;
      EXPECT_GT(report.micros, 0.0) << i;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    reloads_done.store(true);
  });
  for (auto& producer : producers) producer.join();
  reloader.join();
  ASSERT_TRUE(reloads_done.load());
  manager.drain();

  // Zero-loss: every accepted event was scored; nothing dropped, nothing
  // rejected, no lifecycle loss.
  const std::size_t expected = kRounds * events.size();
  for (const std::string id : {"live-a", "live-b"}) {
    const SessionStats stats = manager.session_stats(id);
    EXPECT_EQ(stats.enqueued, expected) << id;
    EXPECT_EQ(stats.processed, expected) << id;
    EXPECT_EQ(stats.dropped, 0u) << id;
    EXPECT_EQ(stats.rejected, 0u) << id;
    EXPECT_EQ(stats.evicted_dropped, 0u) << id;
    EXPECT_EQ(stats.monitor.events_seen, expected) << id;
  }
}

// -- End-to-end: EpollServer sockets ---------------------------------------

/// Minimal blocking client for the e2e tests; 5s receive timeout so a
/// server bug fails the test instead of hanging it.
class TcpClient {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting (set then so the
  /// advertised TCP window honors it) — the slow-reader test uses it to
  /// fill the server's send path with little data.
  explicit TcpClient(std::uint16_t port, int rcvbuf = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{};
    timeout.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~TcpClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_all(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// One text-protocol response line, '\n' stripped.
  std::string read_line() {
    std::string line;
    while (true) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      if (!fill()) return line;
    }
  }

  /// One complete CMKB frame (empty optional on EOF/timeout). The parser
  /// persists across calls so pipelined replies — several frames landing
  /// in one recv — are handed out one at a time, none dropped.
  std::optional<Frame> read_frame() {
    while (true) {
      if (auto frame = parser_.next()) return frame;
      if (!parser_.error().empty()) {
        ADD_FAILURE() << "client-side framing error: " << parser_.error();
        return std::nullopt;
      }
      if (!buffer_.empty()) {
        parser_.feed(buffer_.data(), buffer_.size());
        buffer_.clear();
        continue;
      }
      if (!fill()) return std::nullopt;
    }
  }

  /// True when the server has closed the connection (orderly EOF).
  bool at_eof() {
    if (!buffer_.empty()) return false;
    return !fill();
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  FrameParser parser_;
};

struct ServerHarness {
  std::unique_ptr<ModelRegistry> registry = make_registry();
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<EpollServer> server;

  /// `handshake_timeout_micros` == 0 keeps the NetOptions default (the
  /// tests that want the reaper pass a short explicit window).
  explicit ServerHarness(std::size_t num_loops = 2,
                         std::size_t outbuf_high_water = 4 * 1024 * 1024,
                         std::uint64_t handshake_timeout_micros = 0) {
    ServiceConfig config;
    config.num_workers = 2;
    manager = std::make_unique<SessionManager>(*registry, config);
    NetOptions net;
    net.port = 0;  // ephemeral
    net.num_loops = num_loops;
    net.outbuf_high_water = outbuf_high_water;
    if (handshake_timeout_micros > 0) {
      net.handshake_timeout_micros = handshake_timeout_micros;
    }
    server = std::make_unique<EpollServer>(*manager, net);
    server->start();
  }
  ~ServerHarness() { server->stop(); }
};

TEST(EpollServerTest, RejectsLoopCountAboveTheThreadLimit) {
  // The constructor refuses before start() could spawn a single loop.
  auto registry = make_registry();
  ServiceConfig config;
  config.manual_pump = true;
  SessionManager manager(*registry, config);
  NetOptions net;
  net.num_loops = kMaxThreads + 1;
  EXPECT_THROW(EpollServer(manager, net), std::invalid_argument);
}

TEST(EpollServerTest, TextAndBinaryClientsScoreIdentically) {
  ServerHarness harness;
  const std::vector<trace::CallEvent> events = fixture().events_for(41, 2);

  // Text client: the classic line conversation, one reply per line.
  TcpClient text(harness.server->port());
  text.send_all("HELLO gzip text-1\n");
  EXPECT_EQ(text.read_line(), "OK session=text-1 model=gzip");
  std::string lines;
  for (const auto& event : events) lines += event_line(event);
  text.send_all(lines);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(text.read_line(), "OK") << i;
  }
  text.send_all("STATS\n");
  const std::string text_stats = text.read_line();

  // Binary client: the same events in one batched frame, one ack.
  TcpClient binary(harness.server->port());
  binary.send_all(
      encode_frame(FrameOp::kHello, 0,
                   encode_hello_payload("gzip", "bin-1", "")));
  auto hello = binary.read_frame();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->op, FrameOp::kReply);
  EXPECT_EQ(hello->payload, "OK session=bin-1 model=gzip");
  binary.send_all(encode_frame(FrameOp::kEventBatch, 0,
                               encode_event_batch_payload(events)));
  auto ack = binary.read_frame();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->payload, "OK n=" + std::to_string(events.size()) +
                              " dropped=0 rejected=0");
  binary.send_all(encode_frame(FrameOp::kStats, 0, ""));
  auto stats = binary.read_frame();
  ASSERT_TRUE(stats.has_value());

  // Same events, same model: the two transports must report identical
  // scoring state (only the session id differs).
  std::string text_normalized = text_stats;
  std::string binary_normalized = stats->payload;
  auto scrub_id = [](std::string& line, const std::string& id) {
    const auto pos = line.find(id);
    ASSERT_NE(pos, std::string::npos) << line;
    line.replace(pos, id.size(), "X");
  };
  scrub_id(text_normalized, "text-1");
  scrub_id(binary_normalized, "bin-1");
  EXPECT_EQ(text_normalized, binary_normalized);

  text.send_all("BYE\n");
  EXPECT_TRUE(starts_with(text.read_line(), "OK"));
  binary.send_all(encode_frame(FrameOp::kBye, 0, ""));
  auto bye = binary.read_frame();
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(starts_with(bye->payload, "OK session=bin-1"));
  EXPECT_TRUE(binary.at_eof());  // BYE closes the binary connection
}

TEST(EpollServerTest, NoReplyBatchesAreAccountedWithoutAcks) {
  ServerHarness harness;
  const std::vector<trace::CallEvent> events = fixture().events_for(43, 1);
  TcpClient client(harness.server->port());
  client.send_all(encode_frame(
      FrameOp::kHello, 0, encode_hello_payload("gzip", "quiet", "")));
  ASSERT_TRUE(client.read_frame().has_value());
  for (int i = 0; i < 3; ++i) {
    client.send_all(encode_frame(FrameOp::kEventBatch, kFlagNoReply,
                                 encode_event_batch_payload(events)));
  }
  // The only reply in flight is the STATS one: no acks were sent.
  client.send_all(encode_frame(FrameOp::kStats, 0, ""));
  auto stats = client.read_frame();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->payload.find(
                "processed=" + std::to_string(3 * events.size())),
            std::string::npos)
      << stats->payload;
}

/// A client that pipelines requests without reading its socket must not
/// grow the server's reply buffer without bound: reads pause at the
/// high-water mark and resume as the backlog drains, and once the client
/// finally reads, every reply arrives intact.
TEST(EpollServerTest, SlowReaderBacklogPausesAndResumesWithoutLoss) {
  ServerHarness harness(/*num_loops=*/1, /*outbuf_high_water=*/8 * 1024);
  TcpClient client(harness.server->port(), /*rcvbuf=*/4096);
  client.send_all(encode_frame(
      FrameOp::kHello, 0, encode_hello_payload("gzip", "slow", "")));
  auto hello = client.read_frame();
  ASSERT_TRUE(hello.has_value());

  // ~2000 STATS replies (~100 bytes each) dwarf the 8 KiB high-water mark
  // many times over while the client refuses to read.
  constexpr int kRequests = 2000;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += encode_frame(FrameOp::kStats, 0, "");
  }
  client.send_all(burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Now drain: the pause must lift as the backlog empties, and all
  // replies must come through in order, none lost, none mangled.
  for (int i = 0; i < kRequests; ++i) {
    auto reply = client.read_frame();
    ASSERT_TRUE(reply.has_value()) << "reply " << i;
    EXPECT_EQ(reply->op, FrameOp::kReply) << i;
    EXPECT_TRUE(starts_with(reply->payload, "STATS v=1 session=slow"))
        << reply->payload;
  }
  client.send_all(encode_frame(FrameOp::kBye, 0, ""));
  auto bye = client.read_frame();
  ASSERT_TRUE(bye.has_value());
  EXPECT_TRUE(starts_with(bye->payload, "OK session=slow"));
}

TEST(EpollServerTest, HostileFrameGetsErrorFrameThenClose) {
  ServerHarness harness;
  TcpClient client(harness.server->port());
  // Valid magic+version so the binary mode binds, then a hostile payload.
  client.send_all(encode_frame(FrameOp::kHello, 0, "\x01junk"));
  auto error = client.read_frame();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->op, FrameOp::kError);
  EXPECT_TRUE(starts_with(error->payload, "frame:")) << error->payload;
  EXPECT_TRUE(client.at_eof());
}

TEST(EpollServerTest, BadMagicOnBinaryLookingStreamStaysText) {
  ServerHarness harness;
  // Garbage that is not CMKB is sniffed as text; an unknown verb answers
  // an ERR line and the connection survives.
  TcpClient client(harness.server->port());
  client.send_all("BOGUS gzip\n");
  EXPECT_TRUE(starts_with(client.read_line(), "ERR"));
  client.send_all("HELLO gzip still-alive\n");
  EXPECT_EQ(client.read_line(), "OK session=still-alive model=gzip");
}

TEST(EpollServerTest, DisconnectWithoutByeClosesTheSession) {
  ServerHarness harness;
  {
    TcpClient client(harness.server->port());
    client.send_all(encode_frame(
        FrameOp::kHello, 0, encode_hello_payload("gzip", "drop-out", "")));
    ASSERT_TRUE(client.read_frame().has_value());
    EXPECT_TRUE(harness.manager->has_session("drop-out"));
  }  // client vanishes
  // The loop reaps the connection asynchronously; poll briefly.
  for (int i = 0; i < 200 && harness.manager->has_session("drop-out"); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(harness.manager->has_session("drop-out"));
}

/// A connection that never completes its first protocol unit is closed
/// once the handshake window elapses — half-open scanners and silent
/// clients cannot pin fds — while a handshaken connection on the same
/// loop is untouched.
TEST(EpollServerTest, SilentConnectionIsReapedAfterHandshakeTimeout) {
  ServerHarness harness(/*num_loops=*/1,
                        /*outbuf_high_water=*/4 * 1024 * 1024,
                        /*handshake_timeout_micros=*/100'000);

  // A healthy client handshakes immediately; the reaper must skip it.
  TcpClient healthy(harness.server->port());
  healthy.send_all("HELLO gzip keeper\n");
  EXPECT_EQ(healthy.read_line(), "OK session=keeper model=gzip");

  // The silent client sends nothing. at_eof() blocks in recv until the
  // server's orderly close arrives (~100-150ms; the client's own 5s
  // receive timeout is the failure backstop).
  TcpClient silent(harness.server->port());
  EXPECT_TRUE(silent.at_eof());
  EXPECT_EQ(harness.manager->instruments()
                .counter("cmarkov_net_handshake_timeouts_total")
                .value(),
            1u);

  // The handshaken connection survived the sweeps and still serves.
  healthy.send_all("STATS\n");
  const std::string stats = healthy.read_line();
  EXPECT_NE(stats.find("session=keeper"), std::string::npos) << stats;
}

TEST(EpollServerTest, ManyConcurrentConnectionsAcrossLoops) {
  ServerHarness harness(3);
  const std::vector<trace::CallEvent> events = fixture().events_for(47, 1);
  constexpr int kClients = 12;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client(harness.server->port());
      const std::string id = "conc-" + std::to_string(c);
      client.send_all(encode_frame(
          FrameOp::kHello, 0, encode_hello_payload("gzip", id, "")));
      auto hello = client.read_frame();
      ASSERT_TRUE(hello.has_value()) << id;
      client.send_all(encode_frame(FrameOp::kEventBatch, 0,
                                   encode_event_batch_payload(events)));
      auto ack = client.read_frame();
      ASSERT_TRUE(ack.has_value()) << id;
      EXPECT_TRUE(starts_with(ack->payload, "OK n=")) << ack->payload;
      client.send_all(encode_frame(FrameOp::kBye, 0, ""));
      auto bye = client.read_frame();
      ASSERT_TRUE(bye.has_value()) << id;
      EXPECT_TRUE(starts_with(bye->payload, "OK session=" + id));
    });
  }
  for (auto& thread : threads) thread.join();
  harness.manager->drain();
  EXPECT_EQ(harness.manager->resident_sessions(), 0u);
}

}  // namespace
}  // namespace cmarkov::serve::net
