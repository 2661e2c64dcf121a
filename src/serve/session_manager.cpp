#include "src/serve/session_manager.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/serve/drift_monitor.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/logging.hpp"
#include "src/util/parallel.hpp"

namespace cmarkov::serve {

namespace {
/// Frames a worker moves out of its queue per lock acquisition.
constexpr std::size_t kBatchSize = 64;
/// Item::seqs entry of an event not admitted for tracing.
constexpr std::uint64_t kUntraced = ~std::uint64_t{0};
/// Resident sessions probed per eviction round. Redis-style approximate
/// LRU: with more residents than this we sample instead of scanning, and
/// with at most this many the scan is exhaustive (exact LRU — what the
/// lifecycle tests rely on).
constexpr std::size_t kEvictionProbes = 8;
/// Capacity of the service-wide JSONL decision log (appends beyond it are
/// dropped and counted — flight-recorder semantics).
constexpr std::size_t kDecisionLogCapacity = 4096;
}  // namespace

const char* backpressure_policy_name(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop-oldest";
    case BackpressurePolicy::kReject:
      return "reject";
  }
  return "?";
}

std::optional<BackpressurePolicy> parse_backpressure_policy(
    std::string_view name) {
  if (name == "block") return BackpressurePolicy::kBlock;
  if (name == "drop-oldest") return BackpressurePolicy::kDropOldest;
  if (name == "reject") return BackpressurePolicy::kReject;
  return std::nullopt;
}

struct SessionManager::Session {
  Session(std::string id, std::string model_name, VersionedModel model,
          std::size_t shard, core::MonitorOptions options,
          core::MonitorStorage storage)
      : id(std::move(id)),
        model_name(std::move(model_name)),
        shard(shard),
        options(options),
        model(std::move(model)),
        monitor(*this->model.detector, nullptr, options, std::move(storage),
                this->model.kernel) {}

  const std::string id;
  const std::string model_name;
  const std::size_t shard;
  const core::MonitorOptions options;

  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> rejected{0};
  /// Queued events discarded because the session was evicted.
  std::atomic<std::uint64_t> evicted_dropped{0};
  /// Events queued or scoring right now. Eviction waits for zero before
  /// freezing the monitor, so no event ever races a snapshot.
  std::atomic<std::uint64_t> pending{0};
  /// Activity tick of the last submit (LRU ordering for eviction).
  std::atomic<std::uint64_t> last_active{0};

  /// Set under the shard worker's mu when the session is evicted or
  /// closed (retire_locked). A producer that still holds this (stale)
  /// object re-resolves through the snapshot store instead of queueing
  /// into a frozen session.
  bool evicted = false;

  /// Position in SessionManager::session_list_ (guarded by sessions_mu_).
  std::size_t list_index = 0;
  /// monitor.state_bytes(), written on insertion and reloads; atomic so
  /// the gauge refresh can sweep it under only sessions_mu_.
  std::atomic<std::size_t> state_bytes{0};

  /// Guards `monitor` and the model binding below: held by the owning
  /// worker while scoring one frame, by stats readers while snapshotting,
  /// and by reload_model while rebinding (uncontended in steady state — one
  /// worker owns the session's shard).
  mutable std::mutex monitor_mu;
  /// Current binding; its shared_ptrs keep the detector and kernel the
  /// monitor scores with alive across registry hot-swaps.
  VersionedModel model;
  core::OnlineMonitor monitor;
};

/// One queued frame: its events stay in the bytes they arrived in.
struct SessionManager::Item {
  std::shared_ptr<Session> session;
  EventBatch events;
  /// The events still queued: `count` of them from byte `offset`, the
  /// first being event `first` of the frame. Drop-oldest trims the front.
  std::size_t offset = EventBatch::kHeaderSize;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  double enqueue_micros = 0.0;
  /// Protocol tid= value; stamped into any decision record produced.
  std::string trace_id;
  /// Per event of the frame, the sequence number correlating its
  /// queue/score/reply spans (kUntraced when the tracer's sampling guard
  /// did not admit it); empty when no event is traced.
  std::vector<std::uint64_t> seqs;
  std::uint64_t ticket = 0;  // Worker::pushed at the push

  /// Drops `n` < count events off the front.
  void trim_front(std::uint32_t n) {
    EventCursor cursor(events, offset);
    cursor.skip(n);
    offset = cursor.offset(events);
    first += n;
    count -= n;
  }
};

struct SessionManager::Worker {
  /// This worker's shard index (set once at construction).
  std::size_t index = 0;
  /// Events queued (the sum of the items' counts): what queue_capacity
  /// bounds. Changed only under `mu`, where the producers' wait predicate
  /// reads it; the gauge refresh and the governor read it with one relaxed
  /// load instead of taking every worker's mutex.
  std::atomic<std::size_t> depth{0};
  mutable std::mutex mu;
  std::condition_variable cv_nonempty;  // producer -> worker
  std::condition_variable cv_space;     // worker -> blocked producers
  std::condition_variable cv_idle;      // worker -> settle(), retire
  std::deque<Item> queue;  // frames in ticket order: pops and purges keep it
  std::uint64_t pushed = 0;     // tickets issued; the first is 1
  std::uint64_t in_flight = 0;  // first ticket of the running batch, or 0
  bool stop = false;
  std::thread thread;
};

SessionManager::SessionManager(ModelRegistry& registry, ServiceConfig config)
    : registry_(registry),
      config_(config),
      snapshots_(config.snapshot_dir),
      governor_(config.overload) {
  if (config_.num_workers == 0 || config_.num_workers > kMaxThreads) {
    throw std::invalid_argument("SessionManager: num_workers must be in [1, " +
                                std::to_string(kMaxThreads) + "]");
  }
  if (config_.queue_capacity == 0) {
    throw std::invalid_argument("SessionManager: queue_capacity must be > 0");
  }
  enqueued_total_ = &metrics_.counter("cmarkov_serve_events_enqueued_total");
  processed_total_ =
      &metrics_.counter("cmarkov_serve_events_processed_total");
  dropped_total_ = &metrics_.counter("cmarkov_serve_events_dropped_total");
  rejected_total_ = &metrics_.counter("cmarkov_serve_events_rejected_total");
  windows_total_ = &metrics_.counter("cmarkov_serve_windows_total");
  kernel_windows_total_ =
      &metrics_.counter("cmarkov_serve_kernel_windows_total");
  window_memo_hits_total_ =
      &metrics_.counter("cmarkov_serve_window_memo_hits_total");
  alarms_total_ = &metrics_.counter("cmarkov_serve_alarms_total");
  sessions_evicted_total_ =
      &metrics_.counter("cmarkov_serve_sessions_evicted_total");
  sessions_restored_total_ =
      &metrics_.counter("cmarkov_serve_sessions_restored_total");
  evicted_dropped_total_ =
      &metrics_.counter("cmarkov_serve_events_dropped_evicted_total");
  model_reloads_total_ =
      &metrics_.counter("cmarkov_serve_model_reloads_total");
  kernel_builds_total_ =
      &metrics_.counter("cmarkov_serve_kernel_builds_total");
  overload_transitions_total_ =
      &metrics_.counter("cmarkov_serve_overload_transitions_total");
  overload_shed_traces_total_ =
      &metrics_.counter("cmarkov_serve_overload_shed_traces_total");
  overload_shed_hellos_total_ =
      &metrics_.counter("cmarkov_serve_overload_shed_hellos_total");
  overload_early_evicted_total_ =
      &metrics_.counter("cmarkov_serve_overload_early_evicted_total");
  reload_micros_ = &metrics_.histogram("cmarkov_serve_model_reload_micros",
                                       obs::latency_bucket_bounds());
  kernel_build_micros_ = &metrics_.histogram(
      "cmarkov_serve_kernel_build_micros", obs::latency_bucket_bounds());
  latency_micros_ = &metrics_.histogram("cmarkov_serve_latency_micros",
                                        obs::latency_bucket_bounds());
  uptime_gauge_ = &metrics_.gauge("cmarkov_serve_uptime_seconds");
  sessions_gauge_ = &metrics_.gauge("cmarkov_serve_sessions_open");
  state_bytes_gauge_ = &metrics_.gauge("cmarkov_serve_session_state_bytes");
  kernel_image_bytes_gauge_ =
      &metrics_.gauge("cmarkov_serve_kernel_image_bytes");
  overload_level_gauge_ = &metrics_.gauge("cmarkov_serve_overload_level");
  snapshots_.bind_instruments(metrics_);
  queue_depth_gauges_.reserve(config_.num_workers);
  shard_sessions_gauges_.reserve(config_.num_workers);
  shard_state_bytes_gauges_.reserve(config_.num_workers);
  shard_processed_totals_.reserve(config_.num_workers);
  shard_evicted_totals_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    queue_depth_gauges_.push_back(
        &metrics_.gauge("cmarkov_serve_queue_depth_w" + std::to_string(i)));
    shard_sessions_gauges_.push_back(
        &metrics_.gauge("cmarkov_serve_shard_sessions_w" + std::to_string(i)));
    shard_state_bytes_gauges_.push_back(&metrics_.gauge(
        "cmarkov_serve_shard_state_bytes_w" + std::to_string(i)));
    shard_processed_totals_.push_back(&metrics_.counter(
        "cmarkov_serve_shard_processed_total_w" + std::to_string(i)));
    shard_evicted_totals_.push_back(&metrics_.counter(
        "cmarkov_serve_shard_evicted_total_w" + std::to_string(i)));
  }
  tracer_ = std::make_unique<obs::Tracer>(config_.tracing);
  decision_log_ = std::make_unique<core::DecisionLog>(kDecisionLogCapacity);
  spans_total_ = &metrics_.counter("cmarkov_trace_spans_total");
  spans_dropped_total_ = &metrics_.counter("cmarkov_trace_spans_dropped_total");
  decisions_total_ = &metrics_.counter("cmarkov_trace_decisions_total");
  decisions_dropped_total_ =
      &metrics_.counter("cmarkov_trace_decisions_dropped_total");
  workers_.reserve(config_.num_workers);
  for (std::size_t i = 0; i < config_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->index = i;
  }
  if (!config_.manual_pump) {
    for (auto& worker : workers_) {
      worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
    }
  }
}

SessionManager::~SessionManager() {
  for (auto& worker : workers_) {
    {
      const std::lock_guard lock(worker->mu);
      worker->stop = true;
    }
    worker->cv_nonempty.notify_all();
    worker->cv_space.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void SessionManager::open_session(const std::string& id,
                                  const std::string& model,
                                  std::optional<core::MonitorOptions> options) {
  const std::lock_guard lifecycle(lifecycle_mu_);
  {
    const std::shared_lock lock(sessions_mu_);
    if (sessions_.find(id) != sessions_.end()) {
      throw std::invalid_argument("SessionManager: session '" + id +
                                  "' is already open");
    }
  }
  if (snapshots_.contains(id)) {
    // HELLO for an evicted session: resume it. The snapshot's hysteresis
    // settings win over `options` — they are the session's own history.
    auto snapshot = snapshots_.peek(id);
    if (snapshot->model != model) {
      throw std::invalid_argument(
          "SessionManager: session '" + id + "' has a pending snapshot for "
          "model '" + snapshot->model + "', not '" + model + "'");
    }
    restore_locked(std::move(*snapshots_.take(id)));
    return;
  }
  if (governor_.enabled() && governor_.shed_new_sessions()) {
    // Ladder level 2: genuinely NEW sessions are refused with a retry
    // hint. Restores (handled above) stay admitted — submit() would
    // transparently restore those sessions anyway, so refusing their
    // HELLO here would shed nothing.
    overload_shed_hellos_total_->add(1);
    throw OverloadedError(governor_.retry_after_ms());
  }
  VersionedModel versioned = registry_.require_versioned(model);
  const std::size_t shard = std::hash<std::string>{}(id) % workers_.size();
  auto session = std::make_shared<Session>(
      id, model, std::move(versioned), shard,
      options.value_or(config_.monitor), pool_.acquire());
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  insert_resident(session);
  enforce_residency_locked(session.get());
}

SubmitResult SessionManager::submit(const std::string& id,
                                    const trace::CallEvent& event,
                                    const std::string& trace_id,
                                    std::uint64_t* seq_out) {
  EventBatch batch;
  batch.append(event);
  std::vector<std::uint64_t> seqs;
  const SubmitTally tally = submit_batch(id, std::move(batch), trace_id,
                                         seq_out != nullptr ? &seqs : nullptr);
  if (!seqs.empty()) *seq_out = seqs.front();
  if (tally.unknown_session) return SubmitResult::kUnknownSession;
  if (tally.rejected != 0) return SubmitResult::kRejected;
  if (tally.dropped != 0) return SubmitResult::kDroppedOldest;
  return SubmitResult::kAccepted;
}

std::vector<std::uint64_t> SessionManager::sample_frame(std::uint32_t n,
                                                        bool forced) {
  std::vector<std::uint64_t> seqs;
  std::uint64_t shed = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!forced && governor_.shed_trace_sampling()) {
      // Ladder level 1: suspend sampled tracing (the cheapest shed — pure
      // observability, zero scoring impact). Explicit tid= traces are
      // debugging requests and stay honored.
      ++shed;
    } else if (tracer_->sample(forced)) {
      if (seqs.empty()) seqs.assign(n, kUntraced);
      seqs[i] = tracer_->next_seq();
    }
  }
  if (shed != 0) overload_shed_traces_total_->add(shed);
  return seqs;
}

SubmitTally SessionManager::submit_batch(const std::string& id,
                                         EventBatch events,
                                         const std::string& trace_id,
                                         std::vector<std::uint64_t>* seqs_out) {
  SubmitTally tally;
  const std::uint32_t n = events.size();
  if (n == 0) return tally;
  const std::size_t capacity = config_.queue_capacity;
  // One sampling decision per event, taken before the queue so the queue
  // span covers the full wait; explicit trace ids always trace. Taken once
  // even if the enqueue below has to retry across an eviction.
  std::vector<std::uint64_t> seqs;
  bool sampled = false;
  bool stale = false;

  for (;;) {
    // A stale session is being retired under lifecycle_mu_: wait that out
    // in try_restore instead of spinning on the resident map.
    std::shared_ptr<Session> session = stale ? nullptr : find_session(id);
    stale = false;
    if (!session) {
      // Not resident: transparently restore from the snapshot store (the
      // session may have been evicted — possibly by a previous daemon run).
      session = try_restore(id);
      if (!session) {
        tally.unknown_session = true;
        return tally;
      }
    }
    if (!sampled && tracer_->enabled()) {
      sampled = true;
      seqs = sample_frame(n, !trace_id.empty());
    }

    Worker& worker = *workers_[session->shard];
    std::uint32_t admitted = n;   // events accepted
    std::uint32_t self_trim = 0;  // accepted events dropped off our front
    std::size_t victims = 0;      // older queued events dropped for room
    {
      std::unique_lock lock(worker.mu);
      const auto room = [&] {
        const std::size_t depth = worker.depth.load(std::memory_order_relaxed);
        return depth >= capacity ? std::size_t{0} : capacity - depth;
      };
      if (session->evicted) {
        stale = true;  // evicted between find and lock: re-resolve
      } else if (room() < n || CMARKOV_FAILPOINT("serve.admit_full")) {
        const bool forced = room() >= n;  // the failpoint, not the depth
        switch (config_.policy) {
          case BackpressurePolicy::kBlock:
            if (config_.manual_pump) {
              // No worker thread will ever make room: pump inline instead.
              lock.unlock();
              pump_worker(worker);
              lock.lock();
            } else {
              // A frame larger than the whole queue waits for it to empty.
              worker.cv_space.wait(lock, [&] {
                return room() >= n ||
                       worker.depth.load(std::memory_order_relaxed) == 0 ||
                       worker.stop || session->evicted;
              });
              if (worker.stop) {
                tally.rejected = n;
                return tally;
              }
            }
            if (session->evicted) stale = true;
            break;
          case BackpressurePolicy::kDropOldest: {
            // As if submitted one by one: each event that finds the queue
            // full evicts the oldest queued one, which past the old
            // backlog is this frame's own front.
            const std::size_t depth =
                worker.depth.load(std::memory_order_relaxed);
            const std::size_t needed = forced ? n : n - room();
            victims = std::min(needed, depth);
            if (n > capacity) {
              self_trim = static_cast<std::uint32_t>(n - capacity);
            }
            drop_oldest_locked(worker, victims);
            break;
          }
          case BackpressurePolicy::kReject:
            admitted = forced ? 0 : static_cast<std::uint32_t>(room());
            break;
        }
      }
      if (!stale && admitted != 0) {
        if (seqs_out != nullptr && !seqs.empty()) {
          for (std::uint32_t i = 0; i < admitted; ++i) {
            if (seqs[i] != kUntraced) seqs_out->push_back(seqs[i]);
          }
        }
        // Counted under worker.mu, with the push: a retirement that purges
        // or freezes this session then sees the events and their count
        // together. Past a drop-oldest self trim, some are left.
        const std::uint32_t queued = admitted - self_trim;
        session->pending.fetch_add(queued, std::memory_order_relaxed);
        session->enqueued.fetch_add(admitted, std::memory_order_relaxed);
        session->dropped.fetch_add(self_trim, std::memory_order_relaxed);
        Item item{session,  std::move(events), EventBatch::kHeaderSize,
                  0,        admitted,          clock_.micros(),
                  trace_id, std::move(seqs),   ++worker.pushed};
        if (self_trim != 0) item.trim_front(self_trim);
        worker.queue.push_back(std::move(item));
        worker.depth.fetch_add(queued, std::memory_order_relaxed);
      }
      if (!stale && admitted != n) {
        session->rejected.fetch_add(n - admitted, std::memory_order_relaxed);
      }
    }
    if (stale) continue;
    tally.accepted = admitted;
    tally.dropped = victims + self_trim;
    tally.rejected = n - admitted;
    if (tally.rejected != 0) rejected_total_->add(tally.rejected);
    if (self_trim != 0) dropped_total_->add(self_trim);
    if (admitted != 0) {
      worker.cv_nonempty.notify_one();
      session->last_active.store(
          activity_clock_.fetch_add(1, std::memory_order_relaxed),
          std::memory_order_relaxed);
      enqueued_total_->add(admitted);
    }
    // A refused submit is still a pressure observation — under a hard
    // overload with the reject policy it may be the only one.
    maybe_update_governor(n);
    return tally;
  }
}

void SessionManager::drop_oldest_locked(Worker& worker, std::size_t count) {
  while (count != 0) {
    Item& victim = worker.queue.front();
    const auto take =
        static_cast<std::uint32_t>(std::min<std::size_t>(count, victim.count));
    victim.session->dropped.fetch_add(take, std::memory_order_relaxed);
    victim.session->pending.fetch_sub(take, std::memory_order_release);
    dropped_total_->add(take);
    worker.depth.fetch_sub(take, std::memory_order_relaxed);
    count -= take;
    if (take == victim.count) {
      worker.queue.pop_front();
    } else {
      victim.trim_front(take);
    }
  }
}

bool SessionManager::has_session(const std::string& id) const {
  const auto present = [&] {
    return find_session(id) != nullptr || snapshots_.contains(id);
  };
  if (present()) return true;
  const std::lock_guard lifecycle(lifecycle_mu_);  // see session_stats
  return present();
}

SessionStats SessionManager::session_stats(const std::string& id) const {
  if (const auto session = find_session(id)) return snapshot(*session);
  // A miss may fall between an eviction's unlink and its store, or a
  // restore's take and its insert; under the lifecycle lock the session
  // is in exactly one of the two.
  const std::lock_guard lifecycle(lifecycle_mu_);
  if (const auto session = find_session(id)) return snapshot(*session);
  if (const auto snap = snapshots_.peek(id)) return stats_from_snapshot(*snap);
  throw std::invalid_argument("SessionManager: no session '" + id + "'");
}

SessionStats SessionManager::close_session(const std::string& id) {
  drain(id);  // before the lifecycle lock, so that lock is held briefly
  const std::lock_guard lifecycle(lifecycle_mu_);
  // Resolved under the lifecycle lock, so a concurrent eviction or restore
  // cannot move the session between the map and the store meanwhile.
  if (const auto session = find_session(id)) {
    retire_locked(*session, /*purge=*/false);
    SessionStats stats = snapshot(*session);
    const std::lock_guard lock(session->monitor_mu);
    pool_.release(session->monitor.release_storage());
    return stats;
  }
  if (auto snap = snapshots_.take(id)) return stats_from_snapshot(*snap);
  throw std::invalid_argument("SessionManager: no session '" + id + "'");
}

bool SessionManager::evict_session(const std::string& id) {
  const std::lock_guard lifecycle(lifecycle_mu_);
  const auto session = find_session(id);
  if (!session) return false;
  evict_locked(*session);
  return true;
}

std::size_t SessionManager::resident_sessions() const {
  const std::shared_lock lock(sessions_mu_);
  return sessions_.size();
}

ReloadReport SessionManager::reload_model(
    const std::string& name, std::shared_ptr<const core::Detector> detector) {
  const double start_micros = clock_.micros();
  if (CMARKOV_FAILPOINT("serve.reload_fail")) {
    // Simulated publish failure, before any registry mutation: the old
    // version keeps serving and every session keeps its binding. Thrown as
    // invalid_argument (a logic_error) so both protocols answer ERR — a
    // failed reload is an operator problem, not a framing violation.
    throw std::invalid_argument(
        "SessionManager: reload of model '" + name +
        "' failed (failpoint serve.reload_fail)");
  }
  registry_.add_shared(name, std::move(detector));
  const VersionedModel versioned = registry_.require_versioned(name);
  // add_shared compiled a fresh kernel image for the new version; account
  // the build the service just paid for.
  kernel_builds_total_->add(1);
  kernel_build_micros_->record(versioned.kernel->build_micros());

  ReloadReport report;
  report.version = versioned.version;
  report.fingerprint = versioned.fingerprint;

  const std::lock_guard lifecycle(lifecycle_mu_);
  std::vector<std::shared_ptr<Session>> affected;
  {
    const std::shared_lock lock(sessions_mu_);
    for (const auto& session : session_list_) {
      if (session->model_name == name) affected.push_back(session);
    }
  }
  for (const auto& session : affected) {
    // monitor_mu serializes against the owning worker: an event scoring
    // right now finishes against the old model; the next one sees the new
    // binding. Nothing queued is dropped.
    const std::lock_guard lock(session->monitor_mu);
    session->monitor.rebind(*versioned.detector, versioned.kernel);
    session->model = versioned;
    session->state_bytes.store(session->monitor.state_bytes(),
                               std::memory_order_relaxed);
    ++report.sessions_rebound;
  }

  report.micros = clock_.micros() - start_micros;
  model_reloads_total_->add(1);
  reload_micros_->record(report.micros);
  log_info() << "reload: model '" << name << "' -> v" << report.version
             << " (" << report.sessions_rebound << " session(s) rebound)";
  return report;
}

void SessionManager::set_drift_monitor(DriftMonitor* monitor,
                                       std::string model_name) {
  drift_model_name_ = std::move(model_name);
  drift_monitor_.store(monitor, std::memory_order_release);
}

void SessionManager::drain() {
  for (auto& worker : workers_) settle(*worker);
}

void SessionManager::drain(const std::string& id) {
  if (const auto session = find_session(id)) settle(*workers_[session->shard]);
}

void SessionManager::settle(Worker& worker) {
  if (config_.manual_pump) return pump_worker(worker);
  std::unique_lock lock(worker.mu);
  const std::uint64_t target = worker.pushed;
  // Until the oldest unfinished ticket is past the last one pushed so far.
  worker.cv_idle.wait(lock, [&] {
    if (worker.in_flight != 0) return worker.in_flight > target;
    return worker.queue.empty() || worker.queue.front().ticket > target;
  });
}

void SessionManager::refresh_gauges() {
  uptime_gauge_->set(clock_.seconds());
  std::size_t resident = 0;
  std::vector<std::size_t> shard_sessions(workers_.size(), 0);
  std::vector<std::uint64_t> shard_bytes(workers_.size(), 0);
  {
    const std::shared_lock lock(sessions_mu_);
    resident = sessions_.size();
    for (const auto& session : session_list_) {
      shard_sessions[session->shard] += 1;
      shard_bytes[session->shard] +=
          session->state_bytes.load(std::memory_order_relaxed);
    }
  }
  sessions_gauge_->set(static_cast<double>(resident));
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    shard_sessions_gauges_[i]->set(static_cast<double>(shard_sessions[i]));
    shard_state_bytes_gauges_[i]->set(static_cast<double>(shard_bytes[i]));
    bytes += shard_bytes[i];
  }
  // Average per-resident-session scoring-state footprint — the number the
  // sessions-per-gigabyte budget in docs/SERVING.md is written against.
  state_bytes_gauge_->set(
      resident == 0 ? 0.0
                    : static_cast<double>(bytes) /
                          static_cast<double>(resident));
  // Shared per-model-version footprint, reported separately from the
  // per-session bytes above so the 16 KiB/session budget stays honest.
  kernel_image_bytes_gauge_->set(
      static_cast<double>(registry_.kernel_image_bytes()));
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    queue_depth_gauges_[i]->set(static_cast<double>(
        workers_[i]->depth.load(std::memory_order_relaxed)));
  }
  // The METRICS refresh doubles as a governor heartbeat, so a service
  // whose producers stopped submitting (overloaded clients backing off!)
  // still walks the ladder back down.
  update_governor();
  overload_level_gauge_->set(
      static_cast<double>(static_cast<int>(governor_.level())));
  sync_failpoint_hits();
}

void SessionManager::maybe_update_governor(std::uint64_t events) {
  if (!governor_.enabled()) return;
  const std::uint64_t tick =
      governor_ticks_.fetch_add(events, std::memory_order_relaxed);
  const bool elevated = governor_.level() != OverloadLevel::kNormal;
  // Whenever the events [tick, tick + events) hold a multiple of 64 in
  // steady state (the update takes a mutex); every submit while elevated,
  // so shedding starts and stops promptly.
  const std::uint64_t phase = tick & 63u;
  if (!elevated && phase != 0 && phase + events <= 64) return;
  update_governor();
}

void SessionManager::update_governor() {
  if (!governor_.enabled()) return;
  const OverloadLevel before = governor_.level();
  std::size_t queued = 0;
  for (const auto& worker : workers_) {
    queued += worker->depth.load(std::memory_order_relaxed);
  }
  const OverloadGovernor::Update update =
      governor_.update(clock_.micros(), queued,
                       config_.num_workers * config_.queue_capacity,
                       service_ema_micros());
  if (update.transitions == 0) return;
  overload_transitions_total_->add(
      static_cast<std::uint64_t>(update.transitions));
  log_info() << "overload: " << overload_level_name(before) << " -> "
             << overload_level_name(update.level) << " (queued=" << queued
             << ", ema=" << service_ema_micros() << "us)";
  if (update.level == OverloadLevel::kShedIdle &&
      before != OverloadLevel::kShedIdle) {
    // Entering level 3: shrink the resident working set right away rather
    // than waiting for the next open/restore to trigger enforcement.
    const std::lock_guard lifecycle(lifecycle_mu_);
    enforce_residency_locked(nullptr);
  }
}

void SessionManager::note_service_time(double micros_per_event) {
  // Approximate EMA over a lock-free double: racing writers may drop a
  // sample, which only delays the estimate — never corrupts it.
  const std::uint64_t raw = service_ema_bits_.load(std::memory_order_relaxed);
  double ema = 0.0;
  std::memcpy(&ema, &raw, sizeof(ema));
  ema = ema <= 0.0 ? micros_per_event
                   : 0.8 * ema + 0.2 * micros_per_event;
  std::uint64_t out = 0;
  std::memcpy(&out, &ema, sizeof(out));
  service_ema_bits_.store(out, std::memory_order_relaxed);
}

double SessionManager::service_ema_micros() const {
  const std::uint64_t raw = service_ema_bits_.load(std::memory_order_relaxed);
  double ema = 0.0;
  std::memcpy(&ema, &raw, sizeof(ema));
  return ema;
}

void SessionManager::sync_failpoint_hits() {
  // No armed-check shortcut here: hits accrued while a point was armed
  // must still be mirrored by a METRICS refresh that runs after it was
  // disarmed. The registry snapshot is cheap and METRICS is not hot.
  const std::lock_guard lock(failpoint_sync_mu_);
  for (const util::FailpointInfo& info :
       util::FailpointRegistry::instance().snapshot()) {
    std::uint64_t& seen = failpoint_hits_seen_[info.name];
    if (info.hits <= seen) continue;
    std::string metric = "cmarkov_failpoint_";
    for (const char c : info.name) metric.push_back(c == '.' ? '_' : c);
    metric += "_hits_total";
    metrics_.counter(metric).add(info.hits - seen);
    seen = info.hits;
  }
}

const obs::MetricsRegistry& SessionManager::metrics_registry() {
  refresh_gauges();
  return metrics_;
}

std::string SessionManager::next_session_id() {
  return "s" + std::to_string(
                   next_id_.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::shared_ptr<SessionManager::Session> SessionManager::find_session(
    const std::string& id) const {
  const std::shared_lock lock(sessions_mu_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::shared_ptr<SessionManager::Session> SessionManager::try_restore(
    const std::string& id) {
  const std::lock_guard lifecycle(lifecycle_mu_);
  // Another producer may have restored it while we waited for the lock.
  if (auto session = find_session(id)) return session;
  auto snapshot = snapshots_.take(id);
  if (!snapshot) return nullptr;
  return restore_locked(std::move(*snapshot));
}

std::shared_ptr<SessionManager::Session> SessionManager::restore_locked(
    SessionSnapshot snap) {
  VersionedModel versioned = registry_.require_versioned(snap.model);
  core::MonitorOptions options = config_.monitor;
  options.windows_to_alarm = static_cast<std::size_t>(snap.windows_to_alarm);
  options.cooldown_events = static_cast<std::size_t>(snap.cooldown_events);
  const std::size_t shard = std::hash<std::string>{}(snap.id) % workers_.size();
  auto session = std::make_shared<Session>(snap.id, snap.model,
                                           std::move(versioned), shard,
                                           options, pool_.acquire());
  session->enqueued.store(snap.enqueued, std::memory_order_relaxed);
  session->processed.store(snap.processed, std::memory_order_relaxed);
  session->dropped.store(snap.dropped, std::memory_order_relaxed);
  session->rejected.store(snap.rejected, std::memory_order_relaxed);
  session->evicted_dropped.store(snap.evicted_dropped,
                                 std::memory_order_relaxed);
  core::MonitorSnapshot monitor = std::move(snap.monitor);
  if (session->model.fingerprint != snap.model_fingerprint) {
    // The model changed while the session was frozen: the window ids index
    // a dead alphabet. Keep the cumulative stats and any pending cooldown,
    // start a fresh window (same contract as a live rebind).
    monitor.window.clear();
    monitor.consecutive_flagged = 0;
  }
  session->monitor.restore(monitor);
  session->last_active.store(
      activity_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  insert_resident(session);
  sessions_restored_total_->add(1);
  enforce_residency_locked(session.get());
  return session;
}

void SessionManager::insert_resident(std::shared_ptr<Session> session) {
  Session* raw = session.get();
  {
    const std::unique_lock lock(sessions_mu_);
    if (!sessions_.emplace(raw->id, session).second) {
      throw std::invalid_argument("SessionManager: session '" + raw->id +
                                  "' is already open");
    }
    raw->list_index = session_list_.size();
    session_list_.push_back(std::move(session));
  }
  raw->state_bytes.store(raw->monitor.state_bytes(),
                         std::memory_order_relaxed);
}

void SessionManager::retire_locked(Session& session, bool purge) {
  Worker& worker = *workers_[session.shard];
  {
    // A producer that resolved this session earlier observes the flag
    // under worker.mu and re-resolves (submit's stale retry) instead of
    // enqueueing into a monitor whose storage is about to be released.
    std::unique_lock lock(worker.mu);
    session.evicted = true;
    if (purge) {
      auto& queue = worker.queue;
      std::size_t purged = 0;  // events, not frames
      const auto keep_end =
          std::remove_if(queue.begin(), queue.end(), [&](const Item& item) {
            if (item.session.get() != &session) return false;
            purged += item.count;
            return true;
          });
      queue.erase(keep_end, queue.end());
      // Lifecycle loss, not backpressure: accounted on its own counter
      // (events_dropped_total would misattribute it to queue pressure).
      session.pending.fetch_sub(purged, std::memory_order_release);
      session.evicted_dropped.fetch_add(purged, std::memory_order_relaxed);
      evicted_dropped_total_->add(purged);
      worker.depth.fetch_sub(purged, std::memory_order_relaxed);
      // It may have finished a settle's backlog with nothing left to run.
      worker.cv_idle.notify_all();
    }
    // Blocked producers of this session must re-resolve it (their wait
    // predicate checks the evicted flag), so wake them even if no queued
    // item was purged.
    worker.cv_space.notify_all();
    // Queued (close) or popped into a worker batch (either): let the score
    // finish so the caller's snapshot sees its effect. Bounded: nothing of
    // this session is pushed after the mark (manual_pump: close's drain(id)
    // has already scored its queue). A worker lowers pending outside
    // worker.mu, but notifies under it after every batch.
    worker.cv_idle.wait(lock, [&] {
      return session.pending.load(std::memory_order_acquire) == 0;
    });
  }
  const std::unique_lock lock(sessions_mu_);
  sessions_.erase(session.id);
  const std::size_t index = session.list_index;
  if (index + 1 != session_list_.size()) {
    session_list_[index] = std::move(session_list_.back());
    session_list_[index]->list_index = index;
  }
  session_list_.pop_back();
}

void SessionManager::evict_locked(Session& session) {
  retire_locked(session, /*purge=*/true);
  SessionSnapshot snap;
  {
    const std::lock_guard lock(session.monitor_mu);
    snap = freeze(session);
    pool_.release(session.monitor.release_storage());
  }
  snapshots_.put(std::move(snap));
  sessions_evicted_total_->add(1);
  shard_evicted_totals_[session.shard]->add(1);
}

void SessionManager::enforce_residency_locked(const Session* keep) {
  if (config_.max_resident_sessions == 0) return;
  // Ladder level 3: enforce against a reduced budget, evicting idle
  // sessions EARLY to shrink the working set (they lose nothing — snapshot
  // + transparent restore — they just pay a restore once pressure clears).
  const std::size_t limit =
      governor_.resident_budget(config_.max_resident_sessions);
  // Bounded rounds: when every sampled candidate is busy (pending > 0) we
  // tolerate a temporary overshoot rather than spinning — the next open or
  // restore tries again.
  for (std::size_t round = 0; round < 4 * kEvictionProbes; ++round) {
    std::shared_ptr<Session> victim;
    bool early = false;
    {
      const std::shared_lock lock(sessions_mu_);
      if (session_list_.size() <= limit) return;
      // Only evictions the normal budget would NOT have forced count as
      // ladder-induced.
      early = session_list_.size() <= config_.max_resident_sessions;
      std::uint64_t best_tick = std::numeric_limits<std::uint64_t>::max();
      const auto consider = [&](const std::shared_ptr<Session>& candidate) {
        if (candidate.get() == keep) return;
        if (candidate->pending.load(std::memory_order_acquire) != 0) return;
        const std::uint64_t tick =
            candidate->last_active.load(std::memory_order_relaxed);
        if (tick < best_tick) {
          best_tick = tick;
          victim = candidate;
        }
      };
      if (session_list_.size() <= kEvictionProbes) {
        for (const auto& candidate : session_list_) consider(candidate);
      } else {
        for (std::size_t probe = 0; probe < kEvictionProbes; ++probe) {
          // xorshift-free LCG; only the high bits are used.
          evict_rng_state_ =
              evict_rng_state_ * 6364136223846793005ull +
              1442695040888963407ull;
          const std::size_t index = static_cast<std::size_t>(
              (evict_rng_state_ >> 33) % session_list_.size());
          consider(session_list_[index]);
        }
      }
    }
    if (!victim) return;  // all sampled candidates busy
    evict_locked(*victim);
    if (early) overload_early_evicted_total_->add(1);
  }
}

SessionStats SessionManager::stats_from_snapshot(
    const SessionSnapshot& snap) const {
  SessionStats stats;
  stats.id = snap.id;
  stats.model = snap.model;
  stats.enqueued = snap.enqueued;
  stats.processed = snap.processed;
  stats.dropped = snap.dropped;
  stats.rejected = snap.rejected;
  stats.evicted_dropped = snap.evicted_dropped;
  stats.monitor = snap.monitor.stats;
  return stats;
}

void SessionManager::process_item(Item& item, BatchCounters& batch) {
  Session& session = *item.session;
  const bool traced_frame = !item.seqs.empty();
  DriftMonitor* drift = drift_monitor_.load(std::memory_order_acquire);
  if (drift != nullptr && session.model_name != drift_model_name_) {
    drift = nullptr;
  }
  EventCursor cursor(item.events, item.offset);
  {
    // One hold for the whole frame: a reload's rebind or a stats read
    // lands between frames.
    const std::lock_guard lock(session.monitor_mu);
    for (std::uint32_t i = 0; i < item.count; ++i) {
      const EventView event = cursor.next();
      const std::uint64_t seq =
          traced_frame ? item.seqs[item.first + i] : kUntraced;
      // The dequeue timestamp only feeds the queue/score span pair, so
      // only traced events pay the clock read (latency spans enqueue ->
      // done).
      const double dequeue_micros = seq != kUntraced ? clock_.micros() : 0.0;
      const core::MonitorUpdate update =
          session.monitor.on_event(event.kind, event.site, event.callee);
      if (drift != nullptr && update.window_complete &&
          update.window != nullptr) {
        // Must stay under monitor_mu: update.window points into the
        // monitor's scoring scratch, which a concurrent reload_model ->
        // rebind clears under this same mutex.
        drift->observe(update.log_likelihood, update.flagged,
                       update.unknown_symbol, *update.window);
      }
      if (update.decision != nullptr) {
        // Stamp ids and the detector pin into the monitor's ring entry
        // (served by TRACE) and append a copy to the service-wide JSONL log
        // (a wait-free append) while the binding cannot change. A read
        // derives the record from this detector, so the entry keeps it
        // alive past any reload; a reused entry that already pins it takes
        // no new reference. Once the flight-recorder log is full the copy
        // would only be dropped, so skip it and count the drop instead.
        core::DecisionEntry* entry = session.monitor.last_decision();
        entry->session = session.id;
        entry->trace_id = item.trace_id;
        if (entry->label_owner != session.model.detector) {
          entry->label_owner = session.model.detector;
        }
        if (decision_log_->full()) {
          decision_log_->drop();
          decisions_dropped_total_->add(1);
        } else if (decision_log_->append(*entry)) {
          decisions_total_->add(1);
        } else {
          decisions_dropped_total_->add(1);
        }
      }
      if (update.window_complete) batch.windows += 1;
      if (update.memo_hit) batch.memo_hits += 1;
      if (update.alarm) {
        batch.alarms += 1;
        log_debug() << "alarm session=" << session.id
                    << " model=" << session.model_name
                    << (update.unknown_symbol ? " cause=unknown-context"
                                              : " cause=low-likelihood");
      }
      const double done_micros = clock_.micros();
      latency_micros_->record(done_micros - item.enqueue_micros);
      if (seq == kUntraced) continue;
      if (tracer_->full()) {
        // Flight recorder exhausted: skip span construction, keep the drop
        // accounting exact (one queue + one score span per traced event).
        tracer_->drop(2);
        spans_dropped_total_->add(2);
        continue;
      }
      const auto make_span = [&](const char* name, double start, double end) {
        obs::SpanRecord span;
        span.name = name;
        span.session = session.id;
        span.trace_id = item.trace_id;
        span.seq = seq;
        span.start_micros = start;
        span.duration_micros = end - start;
        span.thread = session.shard;
        return span;
      };
      record_span(make_span("queue", item.enqueue_micros, dequeue_micros));
      record_span(make_span("score", dequeue_micros, done_micros));
    }
  }
  session.processed.fetch_add(item.count, std::memory_order_relaxed);
  batch.processed += item.count;
  session.pending.fetch_sub(item.count, std::memory_order_release);
  item.session.reset();
}

void SessionManager::flush_batch(std::size_t shard,
                                 const BatchCounters& batch) {
  if (batch.processed > 0) {
    processed_total_->add(batch.processed);
    shard_processed_totals_[shard]->add(batch.processed);
  }
  if (batch.windows > 0) {
    // Every window scores through the shared kernel, audited ones too.
    windows_total_->add(batch.windows);
    kernel_windows_total_->add(batch.windows);
  }
  if (batch.memo_hits > 0) window_memo_hits_total_->add(batch.memo_hits);
  if (batch.alarms > 0) alarms_total_->add(batch.alarms);
}

void SessionManager::record_span(obs::SpanRecord span) {
  if (tracer_->record(std::move(span))) {
    spans_total_->add(1);
  } else {
    spans_dropped_total_->add(1);
  }
}

std::vector<obs::DecisionRecord> SessionManager::recent_decisions(
    const std::string& id, std::size_t n) const {
  auto session = find_session(id);
  if (!session) {
    const std::lock_guard lifecycle(lifecycle_mu_);  // see session_stats
    session = find_session(id);
    if (!session && snapshots_.contains(id)) return {};  // ring not kept
  }
  if (!session) {
    throw std::invalid_argument("SessionManager: no session '" + id + "'");
  }
  std::vector<core::DecisionEntry> entries;
  {
    const std::lock_guard lock(session->monitor_mu);
    entries = session->monitor.recent_entries(n);
  }
  std::vector<obs::DecisionRecord> out;
  out.reserve(entries.size());
  for (const core::DecisionEntry& entry : entries) {
    out.push_back(entry.record());
    out.back().session = session->id;
  }
  return out;
}

void SessionManager::run_batch(Worker& worker,
                               std::unique_lock<std::mutex>& lock,
                               std::vector<Item>& batch) {
  std::size_t events = 0;
  while (!worker.queue.empty() && batch.size() < kBatchSize) {
    events += worker.queue.front().count;
    batch.push_back(std::move(worker.queue.front()));
    worker.queue.pop_front();
  }
  worker.in_flight = batch.front().ticket;
  // Lowered under worker.mu: a producer's wait predicate reads depth, and
  // a change it could miss between its check and its wait is a lost
  // wakeup.
  worker.depth.fetch_sub(events, std::memory_order_relaxed);
  lock.unlock();
  worker.cv_space.notify_all();
  BatchCounters counters;
  const double batch_start_micros = clock_.micros();
  for (Item& item : batch) process_item(item, counters);
  note_service_time((clock_.micros() - batch_start_micros) /
                    static_cast<double>(events));
  // Flushed before in_flight is cleared, so a settle implies the
  // service-wide counters already cover everything it waited for.
  flush_batch(worker.index, counters);
  batch.clear();
  lock.lock();
  worker.in_flight = 0;
  worker.cv_idle.notify_all();
}

void SessionManager::pump_worker(Worker& worker) {
  std::vector<Item> batch;
  std::unique_lock lock(worker.mu);
  while (!worker.queue.empty()) run_batch(worker, lock, batch);
}

void SessionManager::worker_loop(Worker& worker) {
  std::vector<Item> batch;
  batch.reserve(kBatchSize);
  std::unique_lock lock(worker.mu);
  for (;;) {
    worker.cv_nonempty.wait(
        lock, [&] { return worker.stop || !worker.queue.empty(); });
    if (worker.queue.empty()) return;  // stop requested, queue drained
    run_batch(worker, lock, batch);
  }
}

SessionStats SessionManager::snapshot(const Session& session) const {
  SessionStats stats;
  stats.id = session.id;
  stats.model = session.model_name;
  stats.enqueued = session.enqueued.load(std::memory_order_relaxed);
  stats.processed = session.processed.load(std::memory_order_relaxed);
  stats.dropped = session.dropped.load(std::memory_order_relaxed);
  stats.rejected = session.rejected.load(std::memory_order_relaxed);
  stats.evicted_dropped =
      session.evicted_dropped.load(std::memory_order_relaxed);
  const std::lock_guard lock(session.monitor_mu);
  stats.monitor = session.monitor.stats();
  return stats;
}

SessionSnapshot SessionManager::freeze(Session& session) const {
  // Caller holds monitor_mu and has proven pending == 0.
  SessionSnapshot snap;
  snap.id = session.id;
  snap.model = session.model_name;
  snap.model_version = session.model.version;
  snap.model_fingerprint = session.model.fingerprint;
  snap.enqueued = session.enqueued.load(std::memory_order_relaxed);
  snap.processed = session.processed.load(std::memory_order_relaxed);
  snap.dropped = session.dropped.load(std::memory_order_relaxed);
  snap.rejected = session.rejected.load(std::memory_order_relaxed);
  snap.evicted_dropped =
      session.evicted_dropped.load(std::memory_order_relaxed);
  snap.windows_to_alarm = session.options.windows_to_alarm;
  snap.cooldown_events = session.options.cooldown_events;
  snap.monitor = session.monitor.snapshot();
  return snap;
}

}  // namespace cmarkov::serve
