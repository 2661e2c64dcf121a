// Tests for the operational introspection plane: TimeSeriesRing windowing
// and derived rates, bucket_quantile parity with the live Histogram, the
// TimeSeriesCollector (manual sample_now drive and the real thread), the
// strict JSON parser behind `cmarkov top`, AdminConn HTTP/1.1 parsing
// (keep-alive, pipelining, partial input, hostile requests), end-to-end
// scrapes against a live EpollServer, per-shard /statusz ground truth
// under churn, and a concurrent scrape hammer proving a scrape never
// stalls admission.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/obs/metrics_registry.hpp"
#include "src/obs/timeseries.hpp"
#include "src/serve/net/admin.hpp"
#include "src/serve/net/epoll_server.hpp"
#include "src/serve/session_manager.hpp"
#include "src/util/json.hpp"
#include "src/workload/testcase_generator.hpp"

namespace cmarkov::serve::net {
namespace {

/// `object`'s number field `key`, or NaN (which equals nothing) if the
/// field is missing, so a renamed /varz key fails one assertion.
double number_at(const util::JsonValue& object, std::string_view key) {
  const util::JsonValue* field = object.find(key);
  return field != nullptr ? field->number_or(std::nan(""))
                          : std::nan("");
}

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

std::unique_ptr<ModelRegistry> make_registry() {
  auto registry = std::make_unique<ModelRegistry>();
  registry->add_shared("gzip", fixture().gzip_model);
  return registry;
}

/// The shard a session id hashes onto (must mirror SessionManager).
std::size_t shard_of(const std::string& id, std::size_t num_workers) {
  return std::hash<std::string>{}(id) % num_workers;
}

// -- TimeSeriesRing --------------------------------------------------------

TEST(TimeSeriesRingTest, EmptyAndSingleSampleDeriveZero) {
  obs::TimeSeriesRing ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.latest(), 0.0);
  EXPECT_EQ(ring.delta(), 0.0);
  EXPECT_EQ(ring.rate_per_second(), 0.0);

  ring.push(1.0, 100.0);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.latest(), 100.0);
  EXPECT_EQ(ring.delta(), 0.0);  // needs two samples for a window
  EXPECT_EQ(ring.rate_per_second(), 0.0);
}

TEST(TimeSeriesRingTest, WrapAroundKeepsNewestAndDerivesWindowedRate) {
  obs::TimeSeriesRing ring(3);
  for (int i = 0; i < 7; ++i) {
    ring.push(static_cast<double>(i), static_cast<double>(i) * 10.0);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.oldest().t_seconds, 4.0);
  EXPECT_EQ(ring.newest().t_seconds, 6.0);
  EXPECT_EQ(ring.latest(), 60.0);
  EXPECT_EQ(ring.delta(), 20.0);          // 60 - 40 over the retained window
  EXPECT_EQ(ring.rate_per_second(), 10.0);  // 20 over 2 seconds

  const auto samples = ring.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().value, 40.0);  // oldest first
  EXPECT_EQ(samples.back().value, 60.0);
}

TEST(TimeSeriesRingTest, ZeroWidthWindowRateIsZero) {
  obs::TimeSeriesRing ring(4);
  ring.push(5.0, 1.0);
  ring.push(5.0, 9.0);  // same timestamp: delta defined, rate guarded
  EXPECT_EQ(ring.delta(), 8.0);
  EXPECT_EQ(ring.rate_per_second(), 0.0);
}

// -- bucket_quantile -------------------------------------------------------

TEST(BucketQuantileTest, MatchesLiveHistogramQuantile) {
  const std::vector<double> bounds = {1.0, 2.0, 5.0, 10.0};
  obs::Histogram live{std::span<const double>(bounds)};
  for (double v : {0.5, 0.7, 1.5, 1.6, 1.9, 3.0, 4.0, 4.5, 8.0, 25.0}) {
    live.record(v);
  }
  const std::vector<std::uint64_t> counts = live.bucket_counts();
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(obs::bucket_quantile(bounds, counts, q), live.quantile(q))
        << "q=" << q;
  }
}

TEST(BucketQuantileTest, EmptyDistributionAndOverflowSaturation) {
  const std::vector<double> bounds = {1.0, 2.0};
  EXPECT_EQ(obs::bucket_quantile(bounds, {0, 0, 0}, 0.5), 0.0);
  // All mass in the overflow bucket: saturate at the last finite bound.
  EXPECT_EQ(obs::bucket_quantile(bounds, {0, 0, 7}, 0.99), 2.0);
}

// -- TimeSeriesCollector ---------------------------------------------------

TEST(TimeSeriesCollectorTest, DerivesCounterRatesFromManualSamples) {
  obs::MetricsRegistry registry;
  obs::Counter& events = registry.counter("cmarkov_test_events_total");
  obs::Gauge& depth = registry.gauge("cmarkov_test_depth_open");

  obs::TimeSeriesCollector collector(registry);
  events.add(100);
  depth.set(3.0);
  collector.sample_now(0.0);
  events.add(50);
  depth.set(7.0);
  collector.sample_now(10.0);

  EXPECT_EQ(collector.samples_taken(), 2u);
  const util::JsonValue varz = util::parse_json(collector.varz_json());
  const util::JsonValue* events_series =
      varz.find_path("counters.cmarkov_test_events_total");
  ASSERT_NE(events_series, nullptr);
  EXPECT_EQ(number_at(*events_series, "value"), 150.0);
  EXPECT_EQ(number_at(*events_series, "rate_per_second"), 5.0);
  const util::JsonValue* depth_series =
      varz.find_path("gauges.cmarkov_test_depth_open");
  ASSERT_NE(depth_series, nullptr);
  EXPECT_EQ(number_at(*depth_series, "value"), 7.0);
  EXPECT_EQ(varz.find_path("counters.cmarkov_unknown_total"), nullptr);
}

TEST(TimeSeriesCollectorTest, HistogramWindowUsesDeltasNotLifetime) {
  obs::MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 10.0, 100.0};
  obs::Histogram& hist = registry.histogram(
      "cmarkov_test_latency_micros", std::span<const double>(bounds));

  // 1000 fast recordings before the window opens...
  for (int i = 0; i < 1000; ++i) hist.record(0.5);
  obs::TimeSeriesCollector collector(registry);
  collector.sample_now(0.0);
  // ...and 10 slow ones inside it: windowed quantiles must see only these.
  for (int i = 0; i < 10; ++i) hist.record(50.0);
  collector.sample_now(5.0);

  const util::JsonValue varz = util::parse_json(collector.varz_json());
  const util::JsonValue* window =
      varz.find_path("histograms.cmarkov_test_latency_micros");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(number_at(*window, "count"), 1010.0);
  EXPECT_EQ(number_at(*window, "count_delta"), 10.0);
  EXPECT_EQ(number_at(*window, "rate_per_second"), 2.0);
  // All windowed mass in the (10,100] bucket:
  EXPECT_EQ(number_at(*window, "p50"), 100.0);
  EXPECT_EQ(number_at(*window, "p99"), 100.0);
  // Lifetime distribution would have said p50 = 1.0:
  EXPECT_EQ(hist.quantile(0.5), 1.0);
}

TEST(TimeSeriesCollectorTest, SingleSampleFallsBackToLifetimeQuantiles) {
  obs::MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 10.0};
  obs::Histogram& hist = registry.histogram(
      "cmarkov_test_wait_micros", std::span<const double>(bounds));
  for (int i = 0; i < 8; ++i) hist.record(0.5);
  obs::TimeSeriesCollector collector(registry);
  collector.sample_now(0.0);
  const util::JsonValue varz = util::parse_json(collector.varz_json());
  const util::JsonValue* window =
      varz.find_path("histograms.cmarkov_test_wait_micros");
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(number_at(*window, "count"), 8.0);
  EXPECT_EQ(number_at(*window, "count_delta"), 0.0);
  // Lifetime fallback until the ring has 2 samples:
  EXPECT_EQ(number_at(*window, "p50"), 1.0);
}

TEST(TimeSeriesCollectorTest, VarzJsonParsesWithSchemaAndDerivations) {
  obs::MetricsRegistry registry;
  registry.counter("cmarkov_test_events_total").add(30);
  obs::TimeSeriesCollector collector(registry);
  collector.sample_now(0.0);
  registry.counter("cmarkov_test_events_total").add(30);
  collector.sample_now(3.0);

  const util::JsonValue varz = util::parse_json(collector.varz_json());
  ASSERT_TRUE(varz.is_object());
  EXPECT_EQ(varz.find("schema")->string_or(""), "cmarkov.varz.v1");
  EXPECT_EQ(varz.find("samples")->number_or(0), 2.0);
  const util::JsonValue* series =
      varz.find_path("counters.cmarkov_test_events_total");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->find("value")->number_or(0), 60.0);
  EXPECT_EQ(series->find("delta")->number_or(0), 30.0);
  EXPECT_EQ(series->find("rate_per_second")->number_or(0), 10.0);
}

TEST(TimeSeriesCollectorTest, ThreadSamplesAndRunsPreSampleHook) {
  obs::MetricsRegistry registry;
  registry.counter("cmarkov_test_ticks_total").add(1);
  std::atomic<int> hook_runs{0};
  obs::CollectorOptions options;
  options.period_seconds = 0.005;
  options.pre_sample = [&hook_runs] { hook_runs.fetch_add(1); };
  obs::TimeSeriesCollector collector(registry, options);
  collector.start();
  collector.start();  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (collector.samples_taken() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  collector.stop();
  collector.stop();  // idempotent
  EXPECT_GE(collector.samples_taken(), 3u);
  EXPECT_GE(hook_runs.load(), 3);
  const util::JsonValue varz = util::parse_json(collector.varz_json());
  const util::JsonValue* ticks =
      varz.find_path("counters.cmarkov_test_ticks_total");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(number_at(*ticks, "value"), 1.0);
}

// -- JSON parser -----------------------------------------------------------

TEST(JsonParserTest, ParsesNestedDocument) {
  const util::JsonValue doc = util::parse_json(
      R"({"a": 1.5, "b": [true, false, null, -2e3],
          "nested": {"deep": {"x": "hi\nthere"}}, "empty": {}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("a")->number_or(0), 1.5);
  const util::JsonValue* array = doc.find("b");
  ASSERT_TRUE(array->is_array());
  ASSERT_EQ(array->array.size(), 4u);
  EXPECT_TRUE(array->array[0].boolean);
  EXPECT_EQ(array->array[1].kind, util::JsonValue::Kind::kBool);
  EXPECT_EQ(array->array[2].kind, util::JsonValue::Kind::kNull);
  EXPECT_EQ(array->array[3].number_or(0), -2000.0);
  EXPECT_EQ(doc.find_path("nested.deep.x")->string_or(""), "hi\nthere");
  EXPECT_EQ(doc.find_path("nested.missing.x"), nullptr);
  EXPECT_EQ(doc.find("zzz"), nullptr);
}

TEST(JsonParserTest, RejectsMalformedInput) {
  EXPECT_THROW(util::parse_json(""), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{} trailing"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("01"), std::invalid_argument);
  EXPECT_THROW(util::parse_json("nul"), std::invalid_argument);
  // Depth bomb: past the parser's nesting cap.
  std::string bomb;
  for (int i = 0; i < 80; ++i) bomb += '[';
  for (int i = 0; i < 80; ++i) bomb += ']';
  EXPECT_THROW(util::parse_json(bomb), std::invalid_argument);
}

TEST(JsonParserTest, RoundTripsAdminNumbers) {
  const util::JsonValue doc =
      util::parse_json(R"({"v": 1234567.25, "neg": -0.5, "exp": 2.5e-3})");
  EXPECT_EQ(doc.find("v")->number_or(0), 1234567.25);
  EXPECT_EQ(doc.find("neg")->number_or(0), -0.5);
  EXPECT_EQ(doc.find("exp")->number_or(0), 0.0025);
}

// -- AdminConn HTTP parsing (no sockets) -----------------------------------

struct HandlerHarness {
  std::unique_ptr<ModelRegistry> registry = make_registry();
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<AdminHandler> handler;

  explicit HandlerHarness(std::size_t num_workers = 2) {
    ServiceConfig config;
    config.num_workers = num_workers;
    config.manual_pump = true;
    manager = std::make_unique<SessionManager>(*registry, config);
    handler = std::make_unique<AdminHandler>(*manager);
  }
};

/// Splits a response buffer into (status line, body) for one response.
int parse_status(const std::string& out, std::size_t from = 0) {
  const std::size_t sp = out.find(' ', from);
  return sp == std::string::npos ? -1 : std::atoi(out.c_str() + sp + 1);
}

std::string body_of(const std::string& out) {
  const std::size_t body = out.find("\r\n\r\n");
  return body == std::string::npos ? "" : out.substr(body + 4);
}

TEST(AdminConnTest, HealthzKeepAliveRequest) {
  HandlerHarness h;
  AdminConn conn(*h.handler);
  std::string in = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  std::string out;
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(parse_status(out), 200);
  EXPECT_NE(out.find("Connection: keep-alive"), std::string::npos);
  EXPECT_EQ(conn.requests_handled(), 1u);

  const util::JsonValue health = util::parse_json(body_of(out));
  EXPECT_EQ(health.find("schema")->string_or(""), "cmarkov.healthz.v1");
  EXPECT_EQ(health.find("status")->string_or(""), "ok");
  EXPECT_EQ(health.find_path("drift.armed")->kind,
            util::JsonValue::Kind::kBool);
}

TEST(AdminConnTest, PipelinedAndPartialRequests) {
  HandlerHarness h;
  AdminConn conn(*h.handler);
  std::string out;
  // Two pipelined requests land in one feed...
  std::string in =
      "GET /healthz HTTP/1.1\r\n\r\nGET /statusz HTTP/1.1\r\n\r\nGET /sta";
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_EQ(conn.requests_handled(), 2u);
  EXPECT_EQ(in, "GET /sta");  // the partial third request waits
  // ...and the tail completes on the next feed.
  in += "tusz HTTP/1.1\r\n\r\n";
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_EQ(conn.requests_handled(), 3u);
  EXPECT_TRUE(in.empty());
}

TEST(AdminConnTest, BareLfTerminatorAndQueryStringAccepted) {
  HandlerHarness h;
  AdminConn conn(*h.handler);
  std::string in = "GET /healthz?probe=1 HTTP/1.1\n\n";
  std::string out;
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_EQ(parse_status(out), 200);
}

TEST(AdminConnTest, ConnectionCloseAndHttp10Close) {
  HandlerHarness h;
  {
    AdminConn conn(*h.handler);
    std::string in = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    std::string out;
    EXPECT_FALSE(conn.consume(in, out));
    EXPECT_NE(out.find("Connection: close"), std::string::npos);
  }
  {
    AdminConn conn(*h.handler);
    std::string in = "GET /healthz HTTP/1.0\r\n\r\n";
    std::string out;
    EXPECT_FALSE(conn.consume(in, out));
    EXPECT_EQ(parse_status(out), 200);
  }
}

TEST(AdminConnTest, HostileRequestsAreRejected) {
  HandlerHarness h;
  {  // non-GET method
    AdminConn conn(*h.handler);
    std::string in = "POST /healthz HTTP/1.1\r\n\r\n";
    std::string out;
    conn.consume(in, out);
    EXPECT_EQ(parse_status(out), 405);
  }
  {  // unknown target
    AdminConn conn(*h.handler);
    std::string in = "GET /nope HTTP/1.1\r\n\r\n";
    std::string out;
    EXPECT_TRUE(conn.consume(in, out));
    EXPECT_EQ(parse_status(out), 404);
  }
  {  // malformed request line closes the connection
    AdminConn conn(*h.handler);
    std::string in = "GARBAGE\r\n\r\n";
    std::string out;
    EXPECT_FALSE(conn.consume(in, out));
    EXPECT_EQ(parse_status(out), 400);
  }
  {  // request bodies are unsupported on the admin plane
    AdminConn conn(*h.handler);
    std::string in = "GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
    std::string out;
    EXPECT_FALSE(conn.consume(in, out));
    EXPECT_EQ(parse_status(out), 400);
  }
  {  // unbounded header block
    AdminConn conn(*h.handler);
    std::string in = "GET /healthz HTTP/1.1\r\nX-Pad: ";
    in.append(20 * 1024, 'a');
    std::string out;
    EXPECT_FALSE(conn.consume(in, out));
    EXPECT_EQ(parse_status(out), 431);
  }
}

TEST(AdminConnTest, VarzWithoutCollectorIs503) {
  HandlerHarness h;
  AdminConn conn(*h.handler);
  std::string in = "GET /varz HTTP/1.1\r\n\r\n";
  std::string out;
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_EQ(parse_status(out), 503);
}

TEST(AdminConnTest, MetricsEndpointServesPrometheusText) {
  HandlerHarness h;
  AdminConn conn(*h.handler);
  std::string in = "GET /metrics HTTP/1.1\r\n\r\n";
  std::string out;
  EXPECT_TRUE(conn.consume(in, out));
  EXPECT_EQ(parse_status(out), 200);
  EXPECT_NE(out.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(body_of(out).find("cmarkov_serve_events_processed_total"),
            std::string::npos);
  // The admin plane's own instruments are on the same surface.
  EXPECT_NE(body_of(out).find("cmarkov_admin_requests_total"),
            std::string::npos);
}

// -- /statusz ground truth (manual pump: exact queue depths) ---------------

// Parameter: num_workers. 12 matters: the registry's name-sorted map puts
// "_w10" and "_w11" before "_w2", so a renderer that walked the map instead
// of indexing shards would report them in the wrong order.
class StatuszTest : public ::testing::TestWithParam<std::size_t> {};

/// cmarkov_serve_session_state_bytes is the per-shard sweep's total over
/// the resident count, exactly, within one registry snapshot.
void expect_bytes_per_session_from_sweep(SessionManager& manager,
                                         std::size_t workers) {
  const obs::MetricsRegistry::Snapshot snap =
      manager.metrics_registry().snapshot();
  double shard_bytes = 0.0;
  for (std::size_t i = 0; i < workers; ++i) {
    shard_bytes +=
        snap.gauges.at("cmarkov_serve_shard_state_bytes_w" + std::to_string(i));
  }
  const double resident = snap.gauges.at("cmarkov_serve_sessions_open");
  ASSERT_GT(resident, 0.0);
  EXPECT_GT(shard_bytes, 0.0);
  EXPECT_EQ(snap.gauges.at("cmarkov_serve_session_state_bytes"),
            shard_bytes / resident);
}

TEST_P(StatuszTest, PerShardCountsMatchGroundTruthExactly) {
  const std::size_t workers = GetParam();
  HandlerHarness h(workers);
  SessionManager& manager = *h.manager;
  const std::vector<trace::CallEvent> events = fixture().events_for(7, 1);
  ASSERT_GE(events.size(), 4u);

  // Fixed names plus one id per shard, so every shard (w10 and w11
  // included) holds a session and a distinct queue depth.
  std::vector<std::string> ids = {"alpha", "bravo", "charlie", "delta",
                                  "echo"};
  for (std::size_t shard = 0, k = 0; shard < workers; ++k) {
    const std::string id = "s" + std::to_string(k);
    if (shard_of(id, workers) != shard) continue;
    ids.push_back(id);
    ++shard;
  }
  std::vector<std::size_t> want_sessions(workers, 0);
  std::vector<std::size_t> want_depth(workers, 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    manager.open_session(ids[i], "gzip");
    const std::size_t shard = shard_of(ids[i], workers);
    want_sessions[shard] += 1;
    // i+1 events per session, queued but not pumped: exact depths.
    for (std::size_t e = 0; e <= i; ++e) {
      ASSERT_EQ(manager.submit(ids[i], events[e % events.size()]),
                SubmitResult::kAccepted);
      want_depth[shard] += 1;
    }
  }

  auto statusz = [&] {
    return util::parse_json(
        h.handler->handle({"GET", "/statusz"}).body);
  };
  {
    const util::JsonValue doc = statusz();
    const util::JsonValue* shards = doc.find("shards");
    ASSERT_TRUE(shards != nullptr && shards->is_array());
    ASSERT_EQ(shards->array.size(), workers);
    for (std::size_t s = 0; s < workers; ++s) {
      const util::JsonValue& shard = shards->array[s];
      EXPECT_EQ(shard.find("shard")->number_or(-1),
                static_cast<double>(s));
      EXPECT_EQ(shard.find("sessions")->number_or(-1),
                static_cast<double>(want_sessions[s]))
          << "shard " << s;
      EXPECT_EQ(shard.find("queue_depth")->number_or(-1),
                static_cast<double>(want_depth[s]))
          << "shard " << s;
      EXPECT_EQ(shard.find("processed")->number_or(-1), 0.0);
    }
    EXPECT_EQ(doc.find("sessions_open")->number_or(0),
              static_cast<double>(ids.size()));
  }

  // Drain and evict: queues empty, processed counts land on the right
  // shard, and the eviction is charged to the evicted id's shard.
  manager.drain();
  ASSERT_TRUE(manager.evict_session("alpha"));
  {
    const util::JsonValue doc = statusz();
    const util::JsonValue* shards = doc.find("shards");
    std::uint64_t processed = 0;
    for (std::size_t s = 0; s < workers; ++s) {
      const util::JsonValue& shard = shards->array[s];
      EXPECT_EQ(shard.find("queue_depth")->number_or(-1), 0.0);
      processed +=
          static_cast<std::uint64_t>(shard.find("processed")->number_or(0));
      EXPECT_EQ(shard.find("evicted_sessions")->number_or(-1),
                s == shard_of("alpha", workers) ? 1.0 : 0.0);
      // Resident sessions hold scoring state; the evicted one released its.
      if (shard.find("sessions")->number_or(0) > 0) {
        EXPECT_GT(shard.find("state_bytes")->number_or(0), 0.0);
      }
    }
    std::size_t want_events = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) want_events += i + 1;
    EXPECT_EQ(processed, want_events);
    EXPECT_EQ(doc.find("sessions_open")->number_or(0),
              static_cast<double>(ids.size() - 1));
  }
  expect_bytes_per_session_from_sweep(manager, workers);

  // A reload rebinds every session; the gauge follows the new per-session
  // bytes through the same sweep.
  manager.reload_model("gzip", fixture().gzip_model);
  expect_bytes_per_session_from_sweep(manager, workers);
}

INSTANTIATE_TEST_SUITE_P(Workers, StatuszTest,
                         ::testing::Values(std::size_t{2}, std::size_t{12}));

// -- End-to-end over sockets -----------------------------------------------

struct AdminServerHarness {
  std::unique_ptr<ModelRegistry> registry = make_registry();
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<AdminHandler> admin;
  std::unique_ptr<obs::TimeSeriesCollector> collector;
  std::unique_ptr<EpollServer> server;

  explicit AdminServerHarness(std::size_t num_workers = 2,
                              std::size_t max_resident = 0,
                              std::size_t num_loops = 2) {
    ServiceConfig config;
    config.num_workers = num_workers;
    config.max_resident_sessions = max_resident;
    manager = std::make_unique<SessionManager>(*registry, config);
    admin = std::make_unique<AdminHandler>(*manager);
    obs::CollectorOptions copts;
    copts.period_seconds = 0.02;
    collector =
        std::make_unique<obs::TimeSeriesCollector>(manager->instruments(),
                                                   std::move(copts));
    admin->set_collector(collector.get());
    NetOptions net;
    net.port = 0;
    net.num_loops = num_loops;
    net.admin = admin.get();
    net.admin_port = 0;
    server = std::make_unique<EpollServer>(*manager, net);
    server->start();
    collector->start();
  }
  ~AdminServerHarness() {
    collector->stop();
    server->stop();
  }
};

TEST(AdminEndToEndTest, ScrapesAllEndpointsOverHttp) {
  AdminServerHarness harness;
  const std::uint16_t port = harness.server->admin_port();
  ASSERT_GT(port, 0);

  const auto health = admin_http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(health.status, 200);
  const util::JsonValue health_doc = util::parse_json(health.body);
  EXPECT_EQ(health_doc.find("schema")->string_or(""), "cmarkov.healthz.v1");
  EXPECT_EQ(health_doc.find_path("overload.level")->number_or(-1), 0.0);

  const auto metrics = admin_http_get("127.0.0.1", port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("cmarkov_net_connections_total"),
            std::string::npos);

  // The collector thread needs at least one tick before /varz has data.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (harness.collector->samples_taken() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto varz = admin_http_get("127.0.0.1", port, "/varz");
  EXPECT_EQ(varz.status, 200);
  const util::JsonValue varz_doc = util::parse_json(varz.body);
  EXPECT_EQ(varz_doc.find("schema")->string_or(""), "cmarkov.varz.v1");
  EXPECT_NE(varz_doc.find_path(
                "counters.cmarkov_serve_events_processed_total"),
            nullptr);

  const auto statusz = admin_http_get("127.0.0.1", port, "/statusz");
  EXPECT_EQ(statusz.status, 200);
  const util::JsonValue statusz_doc = util::parse_json(statusz.body);
  const util::JsonValue* loops = statusz_doc.find("loops");
  ASSERT_TRUE(loops != nullptr && loops->is_array());
  EXPECT_EQ(loops->array.size(), 2u);

  // At quiescence every loops[i] field is the matching per-loop instrument.
  // Rendered in-process once the scrape connections above have closed: an
  // HTTP scrape's own reply bytes are counted after it is rendered.
  const auto open_connections = [&harness] {
    return harness.manager->metrics_registry().snapshot().gauges.at(
        "cmarkov_net_connections_open");
  };
  const auto quiet_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (open_connections() > 0 &&
         std::chrono::steady_clock::now() < quiet_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(open_connections(), 0.0);
  const util::JsonValue quiet =
      util::parse_json(harness.admin->handle({"GET", "/statusz"}).body);
  const obs::MetricsRegistry::Snapshot snap =
      harness.manager->metrics_registry().snapshot();
  const util::JsonValue* quiet_loops = quiet.find("loops");
  ASSERT_TRUE(quiet_loops != nullptr && quiet_loops->is_array());
  ASSERT_EQ(quiet_loops->array.size(), 2u);
  double bytes_read = 0.0;
  for (std::size_t i = 0; i < 2; ++i) {
    const util::JsonValue& loop = quiet_loops->array[i];
    const std::string w = "_w" + std::to_string(i);
    EXPECT_EQ(loop.find("loop")->number_or(-1), static_cast<double>(i));
    EXPECT_EQ(loop.find("connections_open")->number_or(-1),
              snap.gauges.at("cmarkov_net_loop_connections_open" + w));
    EXPECT_EQ(loop.find("bytes_read")->number_or(-1),
              static_cast<double>(
                  snap.counters.at("cmarkov_net_loop_bytes_read_total" + w)));
    EXPECT_EQ(loop.find("bytes_written")->number_or(-1),
              static_cast<double>(snap.counters.at(
                  "cmarkov_net_loop_bytes_written_total" + w)));
    EXPECT_EQ(loop.find("units")->number_or(-1),
              static_cast<double>(
                  snap.counters.at("cmarkov_net_loop_units_total" + w)));
    bytes_read += loop.find("bytes_read")->number_or(0);
  }
  EXPECT_GT(bytes_read, 0.0);  // the scrapes above went through the loops

  const auto missing = admin_http_get("127.0.0.1", port, "/nope");
  EXPECT_EQ(missing.status, 404);
}

TEST(AdminEndToEndTest, StatuszTracksSessionsUnderLiveTrafficAndChurn) {
  // Residency budget of 3 forces eviction churn while sessions open.
  AdminServerHarness harness(2, 3);
  const std::uint16_t port = harness.server->admin_port();
  SessionManager& manager = *harness.manager;
  const std::vector<trace::CallEvent> events = fixture().events_for(11, 1);

  for (int i = 0; i < 8; ++i) {
    const std::string id = "churn-" + std::to_string(i);
    manager.open_session(id, "gzip");
    for (std::size_t e = 0; e < 16 && e < events.size(); ++e) {
      manager.submit(id, events[e]);
    }
    // Residency is only enforced against idle sessions (pending == 0):
    // drain between opens so each enforcement pass has evictable victims
    // and the cap holds deterministically.
    manager.drain();
  }

  const auto statusz = admin_http_get("127.0.0.1", port, "/statusz");
  ASSERT_EQ(statusz.status, 200);
  const util::JsonValue doc = util::parse_json(statusz.body);
  const util::JsonValue* shards = doc.find("shards");
  ASSERT_TRUE(shards != nullptr && shards->is_array());

  std::size_t resident = 0, evicted = 0;
  for (const util::JsonValue& shard : shards->array) {
    resident += static_cast<std::size_t>(
        shard.find("sessions")->number_or(0));
    evicted += static_cast<std::size_t>(
        shard.find("evicted_sessions")->number_or(0));
    EXPECT_EQ(shard.find("queue_depth")->number_or(-1), 0.0);
  }
  EXPECT_EQ(resident, manager.resident_sessions());
  EXPECT_LE(resident, 3u);
  EXPECT_EQ(evicted, 8u - resident);  // every non-resident session evicted
  EXPECT_EQ(doc.find("sessions_open")->number_or(0),
            static_cast<double>(resident));
}

// -- Concurrent scrape hammer ----------------------------------------------

/// Metric names on a Prometheus page (every non-comment line's first
/// token, label block stripped) — the stability key for concurrent
/// scrapes: values move, the name set must not.
std::set<std::string> prometheus_names(const std::string& page) {
  std::set<std::string> names;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t cut = line.find_first_of("{ ");
    names.insert(line.substr(0, cut));
  }
  return names;
}

TEST(AdminEndToEndTest, ConcurrentScrapesNeverStallTrafficOrChangeKeys) {
  AdminServerHarness harness(2, 4);
  const std::uint16_t admin_port = harness.server->admin_port();
  const std::uint16_t port = harness.server->port();
  const std::vector<trace::CallEvent> events = fixture().events_for(23, 1);

  // Baseline key set after the server is fully wired (all instruments are
  // registered eagerly in constructors, so no scrape may mint new names).
  const std::set<std::string> baseline =
      prometheus_names(admin_http_get("127.0.0.1", admin_port,
                                      "/metrics").body);
  ASSERT_FALSE(baseline.empty());

  std::atomic<int> scrape_failures{0};
  std::atomic<int> keyset_changes{0};
  std::atomic<bool> stop_scraping{false};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&, s] {
      while (!stop_scraping.load()) {
        try {
          const auto metrics =
              admin_http_get("127.0.0.1", admin_port, "/metrics");
          const auto varz = admin_http_get("127.0.0.1", admin_port, "/varz");
          const auto statusz =
              admin_http_get("127.0.0.1", admin_port, "/statusz");
          if (metrics.status != 200 || varz.status != 200 ||
              statusz.status != 200) {
            scrape_failures.fetch_add(1);
          }
          if (prometheus_names(metrics.body) != baseline) {
            keyset_changes.fetch_add(1);
          }
          util::parse_json(varz.body);    // throws on malformed JSON
          util::parse_json(statusz.body);
        } catch (const std::exception&) {
          scrape_failures.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1 + s));
      }
    });
  }

  // Live traffic under the scrape hammer: text and binary sessions with
  // eviction churn (residency budget 4, 12 distinct ids).
  auto tcp_events = [&](const std::string& id, std::uint64_t salt) {
    std::string lines = "HELLO gzip " + id + "\n";
    for (std::size_t e = 0; e < 24 && e < events.size(); ++e) {
      const auto& event = events[(e + salt) % events.size()];
      const std::string site = event.caller.empty() ? "?" : event.caller;
      lines += "EV " + site + " " + event.name + " " +
               (event.kind == ir::CallKind::kLibcall ? "lib" : "sys") + "\n";
    }
    lines += "BYE\n";
    return lines;
  };
  std::vector<std::thread> clients;
  std::atomic<int> traffic_failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        const std::string id =
            "hammer-" + std::to_string(c) + "-" + std::to_string(round);
        try {
          if (c % 2 == 0) {
            // Direct submits exercise the manager-side churn path.
            SessionManager& manager = *harness.manager;
            manager.open_session(id, "gzip");
            for (std::size_t e = 0; e < 24 && e < events.size(); ++e) {
              manager.submit(id, events[e]);
            }
          } else {
            // Text-protocol client through the real socket path.
            struct Client {
              int fd;
              explicit Client(std::uint16_t p) {
                fd = ::socket(AF_INET, SOCK_STREAM, 0);
                sockaddr_in addr{};
                addr.sin_family = AF_INET;
                addr.sin_port = htons(p);
                addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) != 0) {
                  throw std::runtime_error("connect failed");
                }
              }
              ~Client() { ::close(fd); }
              void send_all(const std::string& data) {
                std::size_t sent = 0;
                while (sent < data.size()) {
                  const ssize_t n = ::send(fd, data.data() + sent,
                                           data.size() - sent, 0);
                  if (n <= 0) throw std::runtime_error("send failed");
                  sent += static_cast<std::size_t>(n);
                }
              }
              std::string recv_some() {
                char buf[4096];
                const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                return n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                             : std::string();
              }
            } client(port);
            client.send_all(tcp_events(id, static_cast<std::uint64_t>(c)));
            (void)client.recv_some();  // at least one reply chunk landed
          }
        } catch (const std::exception&) {
          traffic_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  harness.manager->drain();
  stop_scraping.store(true);
  for (auto& t : scrapers) t.join();

  EXPECT_EQ(scrape_failures.load(), 0);
  EXPECT_EQ(keyset_changes.load(), 0);
  EXPECT_EQ(traffic_failures.load(), 0);
  EXPECT_GT(harness.manager->metrics_registry().snapshot().counters.at(
                "cmarkov_serve_events_processed_total"),
            0u);
  // One final scrape post-churn: still the same instrument surface.
  EXPECT_EQ(prometheus_names(
                admin_http_get("127.0.0.1", admin_port, "/metrics").body),
            baseline);
}

}  // namespace
}  // namespace cmarkov::serve::net
