// Seeded inputs shared by the socket generator and the traced run. Both
// derive every feed, run order and attack pick from the workload seed, so
// the traced run replays exactly the inputs the daemon received.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/context.hpp"
#include "src/ir/module.hpp"
#include "src/serve/session_manager.hpp"
#include "src/trace/event.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using cmarkov::trace::CallEvent;
using Events = std::vector<CallEvent>;

/// Events per EV-batch frame (the daemon's per-frame unit of work).
inline constexpr std::size_t kBatchEvents = 256;
/// The models every serve model and the train workload are trained with:
/// `cmarkov train --traces 60 --seed <kTrainSeedBase + k>`.
inline constexpr std::uint64_t kTrainSeedBase = 1000;
inline constexpr std::uint64_t kTrainSeedCount = 64;
inline constexpr std::size_t kTrainTraces = 60;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// One deployed model: a program's syscall or libcall stream.
struct ModelSpec {
  std::string program;
  cmarkov::analysis::CallFilter filter;
  /// "gzip-sys", "nginx-lib": the cache file stem.
  std::string key() const;
};

/// The 16 models of the train workload (8 programs x {sys, lib}).
std::vector<ModelSpec> all_models();
/// The serve models: stream = four long-running programs' libcalls, runs =
/// four utilities' syscalls. The daemon names each model after its program.
std::vector<ModelSpec> serve_models(const std::string& workload);

/// cmarkovd flags of a serve workload beyond the model list and port:
/// default settings, plus `--trace-sample 100` (the documented production
/// decision-audit setting) on stream.
std::vector<std::string> daemon_flags(const std::string& workload);
/// The ServiceConfig cmarkovd builds from daemon_flags(); the oracle and
/// the traced run use it so they score exactly as the daemon does.
cmarkov::serve::ServiceConfig daemon_config(const std::string& workload);

/// Training seed the train workload uses for a workload seed. Maps onto the
/// kTrainSeedCount seeds whose model digests are recorded.
std::uint64_t train_seed(std::uint64_t workload_seed);

/// One long-lived stream session: a program's benign traces played back to
/// back in a seeded order. Traces carry both call kinds, as a tracer
/// records them; the daemon's monitor observes only its model's kind.
struct StreamFeed {
  std::string model;
  std::vector<Events> traces;
  std::uint64_t order_seed = 0;
};
std::vector<StreamFeed> make_stream_feeds(std::uint64_t seed);

/// Endless event sequence of one StreamFeed; two cursors over the same feed
/// yield the same events.
class FeedCursor {
 public:
  explicit FeedCursor(const StreamFeed& feed);
  /// Appends the next `n` events to `out`.
  void next(std::size_t n, Events& out);
  /// Traces whose last event has been handed out.
  std::uint64_t traces_completed() const { return traces_completed_; }

 private:
  const StreamFeed* feed_;
  cmarkov::Rng rng_;
  std::size_t trace_ = 0;
  std::size_t pos_ = 0;
  std::uint64_t traces_completed_ = 0;
};

/// One short session of the runs workload: HELLO, a finished run, BYE.
struct RunInput {
  std::string model;
  Events events;
  bool attack = false;
};

struct RunsPlan {
  std::vector<RunInput> pool;
  std::vector<std::size_t> benign;  ///< pool indices of benign runs
  std::vector<std::size_t> attacks;  ///< pool indices of attack replays
  std::uint64_t order_seed = 0;
};
RunsPlan make_runs_plan(std::uint64_t seed);

/// The seeded run order: every 20th run replays an attack trace.
class RunOrder {
 public:
  explicit RunOrder(const RunsPlan& plan);
  std::size_t next();

 private:
  const RunsPlan* plan_;
  cmarkov::Rng rng_;
  std::uint64_t count_ = 0;
};

/// Frames of one run: HELLO (server-assigned id), the events in batches of
/// kBatchEvents, BYE.
std::string encode_run(const RunInput& run);
/// Number of EV-batch frames encode_run emits for `events` events.
std::size_t batch_count(std::size_t events);

/// The collection `cmarkov train` performs before fitting (same interpreter
/// inputs and environment seeds), so the traced run replays its corpus.
std::vector<cmarkov::trace::Trace> collect_like_cli(
    const cmarkov::ir::ProgramModule& program, std::size_t count,
    std::uint64_t seed);

}  // namespace perfbench
