#include "feeds.hpp"

#include <stdexcept>

#include "src/attack/exploit_driver.hpp"
#include "src/attack/payloads.hpp"
#include "src/cfg/cfg_builder.hpp"
#include "src/serve/net/frame.hpp"
#include "src/trace/interpreter.hpp"
#include "src/trace/symbolizer.hpp"
#include "src/workload/program_suite.hpp"
#include "src/workload/testcase_generator.hpp"

namespace perfbench {

using cmarkov::analysis::CallFilter;
namespace net = cmarkov::serve::net;

namespace {

constexpr std::size_t kStreamTraces = 96;
constexpr std::size_t kRunTraces = 192;
constexpr std::uint64_t kAttackEvery = 20;

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 over the pair, so nearby seeds give unrelated streams.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string ModelSpec::key() const {
  return program + (filter == CallFilter::kSyscalls ? "-sys" : "-lib");
}

std::vector<ModelSpec> all_models() {
  std::vector<ModelSpec> out;
  for (const CallFilter filter : {CallFilter::kSyscalls, CallFilter::kLibcalls}) {
    for (const std::string& program : cmarkov::workload::all_suite_names()) {
      out.push_back({program, filter});
    }
  }
  return out;
}

std::vector<ModelSpec> serve_models(const std::string& workload) {
  if (workload == "stream") {
    // Session i gets server id s<i+1>, and cmarkovd's id hash puts s1, s2
    // on shard 0 and s3, s4 on shard 1. Each shard gets one of the cheaper
    // models (nginx, proftpd) and one of the dearer (vim, bash), so both
    // workers stay saturated. Paired nginx+proftpd against vim+bash, the
    // faster worker idled half the time while the one loop blocked on the
    // other's full queue, and throughput followed every scheduling hiccup.
    return {{"nginx", CallFilter::kLibcalls},
            {"vim", CallFilter::kLibcalls},
            {"proftpd", CallFilter::kLibcalls},
            {"bash", CallFilter::kLibcalls}};
  }
  if (workload == "runs") {
    return {{"gzip", CallFilter::kSyscalls},
            {"grep", CallFilter::kSyscalls},
            {"sed", CallFilter::kSyscalls},
            {"flex", CallFilter::kSyscalls}};
  }
  throw std::invalid_argument("no serve models for workload '" + workload +
                              "'");
}

std::vector<std::string> daemon_flags(const std::string& workload) {
  // stream acknowledges a batch when it is queued, so its closed loop keeps
  // both shard queues full by construction. The overload ladder would read
  // that as a sustained breach, and its first rung suspends the sampled
  // auditing stream is defined by, in some runs and not others. So the
  // ladder is off there; runs keeps cmarkovd's defaults.
  if (workload == "stream") {
    return {"--trace-sample", "100", "--overload", "off"};
  }
  return {};
}

cmarkov::serve::ServiceConfig daemon_config(const std::string& workload) {
  // Mirrors cmarkovd's parse_options for the flags daemon_flags() passes.
  cmarkov::serve::ServiceConfig config;
  if (workload == "stream") {
    config.overload.enabled = false;
    config.tracing.enabled = true;
    config.tracing.sample_every = 100;
    config.monitor.decisions.enabled = true;
    config.monitor.decisions.sample_every = 100;
  }
  return config;
}

std::uint64_t train_seed(std::uint64_t workload_seed) {
  return kTrainSeedBase + workload_seed % kTrainSeedCount;
}

std::vector<StreamFeed> make_stream_feeds(std::uint64_t seed) {
  std::vector<StreamFeed> feeds;
  std::uint64_t tag = 0;
  for (const ModelSpec& spec : serve_models("stream")) {
    const auto suite = cmarkov::workload::make_suite(spec.program);
    const auto collection = cmarkov::workload::collect_traces(
        suite, kStreamTraces, mix_seed(seed, ++tag));
    StreamFeed feed;
    feed.model = spec.program;
    for (const auto& trace : collection.traces) {
      if (trace.count(spec.filter) > 0) feed.traces.push_back(trace.events);
    }
    if (feed.traces.empty()) {
      throw std::runtime_error("stream feed for " + spec.program +
                               " has no events");
    }
    feed.order_seed = mix_seed(seed, 100 + tag);
    feeds.push_back(std::move(feed));
  }
  return feeds;
}

FeedCursor::FeedCursor(const StreamFeed& feed)
    : feed_(&feed), rng_(feed.order_seed) {
  trace_ = rng_.index(feed.traces.size());
}

void FeedCursor::next(std::size_t n, Events& out) {
  while (n > 0) {
    const Events& trace = feed_->traces[trace_];
    const std::size_t take = std::min(n, trace.size() - pos_);
    out.insert(out.end(), trace.begin() + static_cast<std::ptrdiff_t>(pos_),
               trace.begin() + static_cast<std::ptrdiff_t>(pos_ + take));
    pos_ += take;
    n -= take;
    if (pos_ == trace.size()) {
      ++traces_completed_;
      pos_ = 0;
      trace_ = rng_.index(feed_->traces.size());
    }
  }
}

RunsPlan make_runs_plan(std::uint64_t seed) {
  RunsPlan plan;
  std::uint64_t tag = 200;
  for (const ModelSpec& spec : serve_models("runs")) {
    const auto suite = cmarkov::workload::make_suite(spec.program);
    const auto collection = cmarkov::workload::collect_traces(
        suite, kRunTraces, mix_seed(seed, ++tag));
    for (const auto& trace : collection.traces) {
      if (trace.count(spec.filter) == 0) continue;
      plan.benign.push_back(plan.pool.size());
      plan.pool.push_back({spec.program, trace.events, false});
    }
  }
  const auto gzip = cmarkov::workload::make_suite("gzip");
  for (const auto& attack : cmarkov::attack::build_attack_traces(
           gzip, cmarkov::attack::gzip_payloads(), mix_seed(seed, 300))) {
    if (attack.trace.count(CallFilter::kSyscalls) == 0) continue;
    plan.attacks.push_back(plan.pool.size());
    plan.pool.push_back({"gzip", attack.trace.events, true});
  }
  if (plan.benign.empty() || plan.attacks.empty()) {
    throw std::runtime_error("runs plan is missing benign or attack runs");
  }
  plan.order_seed = mix_seed(seed, 400);
  return plan;
}

RunOrder::RunOrder(const RunsPlan& plan)
    : plan_(&plan), rng_(plan.order_seed) {}

std::size_t RunOrder::next() {
  ++count_;
  const auto& from =
      count_ % kAttackEvery == 0 ? plan_->attacks : plan_->benign;
  return from[rng_.index(from.size())];
}

std::size_t batch_count(std::size_t events) {
  return (events + kBatchEvents - 1) / kBatchEvents;
}

std::string encode_run(const RunInput& run) {
  std::string out = net::encode_frame(
      net::FrameOp::kHello, 0, net::encode_hello_payload(run.model, "", ""));
  for (std::size_t at = 0; at < run.events.size(); at += kBatchEvents) {
    const auto end = std::min(run.events.size(), at + kBatchEvents);
    const Events batch(run.events.begin() + static_cast<std::ptrdiff_t>(at),
                       run.events.begin() + static_cast<std::ptrdiff_t>(end));
    out += net::encode_frame(net::FrameOp::kEventBatch, 0,
                             net::encode_event_batch_payload(batch));
  }
  out += net::encode_frame(net::FrameOp::kBye, 0, "");
  return out;
}

std::vector<cmarkov::trace::Trace> collect_like_cli(
    const cmarkov::ir::ProgramModule& program, std::size_t count,
    std::uint64_t seed) {
  // Mirrors collect_program_traces in tools/cmarkov_cli.cpp step for step;
  // the traced run's model digests prove the two stay in agreement.
  const auto module_cfg = cmarkov::cfg::build_module_cfg(program);
  const cmarkov::trace::Interpreter interpreter(module_cfg);
  const cmarkov::trace::Symbolizer symbolizer(module_cfg);
  cmarkov::Rng rng(seed);
  std::vector<cmarkov::trace::Trace> traces;
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::int64_t> inputs;
    const std::size_t len = 16 + rng.index(80);
    for (std::size_t j = 0; j < len; ++j) {
      inputs.push_back(rng.uniform_int(0, 99));
    }
    cmarkov::trace::SeededEnvironment environment(rng.engine()());
    auto run = interpreter.run(inputs, environment);
    if (!run.completed) continue;
    symbolizer.symbolize(run.trace);
    run.trace.program = program.name();
    traces.push_back(std::move(run.trace));
  }
  return traces;
}

}  // namespace perfbench
