// The concurrency heart of cmarkovd: one OnlineMonitor per monitored
// process (a "session"), sharded across a fixed worker pool by session id.
//
// Threading model (docs/SERVING.md has the full picture):
//   - Producers (transport threads) call submit_batch() with one frame's
//     events (EventBatch, the frame's own payload bytes); the frame lands,
//     as one queue item with one ticket, on the bounded MPSC queue of the
//     worker that owns the session's shard. submit() is the one-event
//     frame.
//   - Each worker drains its own queue in FIFO batches of frames and
//     scores each frame's events in order under one hold of the session's
//     monitor lock, so events of one session are always scored in arrival
//     order by a single thread, and a reload or a stats read lands between
//     frames.
//   - Queue capacity is counted in events. Backpressure on a full queue is
//     explicit policy: block the producer until the frame fits, evict the
//     oldest queued events (counted against the evicted events' sessions),
//     or reject the events that do not fit (counted against the
//     submitter).
//
// Session lifecycle: resident sessions hold a
// pool-allocated monitor; when max_resident_sessions is exceeded, the
// least-recently-active idle session is snapshotted into the SnapshotStore
// and released. A later submit (or HELLO) for that id transparently
// restores it — bit-identically when the model version is unchanged. Hot
// model reload (reload_model) atomically publishes a new version in the
// ModelRegistry and rebinds every affected session at a window boundary.
// A model version lives as long as a shared_ptr to it does: the session's
// binding, the monitor's kernel, and every decision entry and record that
// may still explain a window with it (DecisionEntry::label_owner).
//
// Per-session verdicts are bit-identical to feeding the same events through
// a standalone core::OnlineMonitor, provided each session has one producer
// and no events are dropped (block policy) — serve_test asserts this.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/online_monitor.hpp"
#include "src/obs/metrics_registry.hpp"
#include "src/obs/trace/tracer.hpp"
#include "src/serve/event_batch.hpp"
#include "src/serve/model_registry.hpp"
#include "src/serve/overload_governor.hpp"
#include "src/serve/session_snapshot.hpp"
#include "src/serve/state_pool.hpp"
#include "src/util/stopwatch.hpp"

namespace cmarkov::serve {

class DriftMonitor;

enum class BackpressurePolicy { kBlock, kDropOldest, kReject };

const char* backpressure_policy_name(BackpressurePolicy policy);
/// "block" | "drop-oldest" | "reject"; nullopt for anything else.
std::optional<BackpressurePolicy> parse_backpressure_policy(
    std::string_view name);

struct ServiceConfig {
  /// Shard worker threads, in [1, kMaxThreads].
  std::size_t num_workers = 2;
  /// Maximum queued events per worker (must be > 0). Under the block
  /// policy a frame larger than this waits for an empty queue.
  std::size_t queue_capacity = 1024;
  BackpressurePolicy policy = BackpressurePolicy::kBlock;
  /// Monitor options for sessions opened without explicit options.
  core::MonitorOptions monitor;
  /// Resident-session budget: opening or restoring a session beyond this
  /// count evicts the least-recently-active idle session into the snapshot
  /// store (approximate LRU, Redis-style sampling). 0 = unlimited.
  std::size_t max_resident_sessions = 0;
  /// Directory persisting evicted-session snapshots ("" = memory only).
  /// With a directory, sessions survive daemon restarts
  /// (snapshot_store().load_directory() at boot).
  std::string snapshot_dir;
  /// Test hook: spawn no worker threads; queued events are processed
  /// synchronously by drain() on the calling thread. Makes backpressure
  /// accounting deterministic. (A full queue under the block policy is
  /// pumped inline instead of deadlocking.)
  bool manual_pump = false;
  /// Per-event span tracing (queue/score/reply); off by default. The
  /// sampling decision is taken once per event at submit time; events
  /// carrying an explicit protocol trace id (tid=) are always traced.
  /// Decision-record sampling is configured separately via
  /// monitor.decisions (cmarkovd's --trace-sample sets both).
  obs::TracerOptions tracing;
  /// Overload degradation ladder (overload_governor.hpp): deadline budget
  /// and hysteresis hold time. `overload.enabled = false` turns the whole
  /// ladder off (no admission checks, no level gauge movement).
  OverloadOptions overload;
};

/// What happened to a submitted batch, event by event.
struct SubmitTally {
  /// An accepted event that evicted an older one counts in both
  /// `accepted` and `dropped`.
  std::uint64_t accepted = 0, dropped = 0, rejected = 0;
  /// Neither resident nor in the snapshot store; nothing was queued.
  bool unknown_session = false;
};

/// What happened to a submitted event.
enum class SubmitResult {
  kAccepted,
  /// Accepted, but the oldest queued event was evicted to make room.
  kDroppedOldest,
  /// Refused; the event was not queued.
  kRejected,
  kUnknownSession,
};

struct SessionStats {
  std::string id;
  std::string model;
  std::uint64_t enqueued = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;   ///< this session's events evicted from a queue
  std::uint64_t rejected = 0;  ///< this session's submissions refused
  /// Queued events discarded because the session itself was evicted
  /// (lifecycle loss, accounted separately from backpressure `dropped`).
  std::uint64_t evicted_dropped = 0;
  /// Cumulative monitor counters (alarms live in monitor.alarms).
  core::MonitorStats monitor;
};

/// Outcome of a hot model reload (reload_model).
struct ReloadReport {
  std::uint64_t version = 0;
  std::uint64_t fingerprint = 0;
  /// Live sessions rebound to the new version.
  std::size_t sessions_rebound = 0;
  double micros = 0.0;
};

class SessionManager {
 public:
  SessionManager(ModelRegistry& registry, ServiceConfig config = {});
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session scoring against `model`. If a snapshot for `id` is
  /// pending in the store (evicted earlier, or persisted by a previous
  /// daemon run), the session is restored from it instead — `model` must
  /// then match the snapshot's model. Throws std::invalid_argument on
  /// duplicate id, unknown model, snapshot/model mismatch, or invalid
  /// monitor options; throws OverloadedError when the degradation ladder
  /// is at shed-hellos or above and `id` is genuinely new (restores of
  /// evicted sessions are still admitted — submit() would restore them
  /// transparently anyway).
  void open_session(const std::string& id, const std::string& model,
                    std::optional<core::MonitorOptions> options = std::nullopt);

  /// Queues one frame of events for the session as one item, in one
  /// worker.mu hold with one ticket; applies the backpressure policy, in
  /// events, when it does not fit:
  ///   - block: waits until the whole frame fits, or for an empty queue
  ///     when the frame alone exceeds queue_capacity;
  ///   - drop-oldest: trims the events it needs off the front of the
  ///     oldest queued frames (a frame larger than queue_capacity also
  ///     loses its own front), each counted against its session;
  ///   - reject: queues the prefix that fits and rejects the rest.
  /// Safe from any thread. Sessions evicted to the snapshot store are
  /// transparently restored first. A non-empty `trace_id` (protocol tid=)
  /// forces span tracing for every event (sampling bypassed) and is
  /// stamped into any decision record they produce. `seqs_out` (if
  /// non-null) receives the span sequence numbers of the accepted events
  /// admitted for tracing, in order, so the caller can record correlated
  /// spans (the conversation's "reply" spans).
  SubmitTally submit_batch(const std::string& id, EventBatch events,
                           const std::string& trace_id = {},
                           std::vector<std::uint64_t>* seqs_out = nullptr);

  /// submit_batch of a one-event frame. When the event is admitted for
  /// tracing, `seq_out` (if non-null) receives its span sequence number.
  SubmitResult submit(const std::string& id, const trace::CallEvent& event,
                      const std::string& trace_id = {},
                      std::uint64_t* seq_out = nullptr);

  /// True for resident sessions and for sessions evicted to the store.
  bool has_session(const std::string& id) const;

  /// Live counters (no drain; may lag concurrent processing). Works for
  /// resident and evicted sessions alike. The monitor counters are read
  /// under the session's monitor lock, which scoring holds for one frame.
  SessionStats session_stats(const std::string& id) const;

  /// Settles the session's shard (drain(id)), then removes the session and
  /// returns its final stats (an evicted session's snapshot is consumed and
  /// reported). Throws std::invalid_argument for unknown ids.
  SessionStats close_session(const std::string& id);

  /// Snapshot-evicts one resident session into the store: queued events
  /// are discarded (counted as evicted_dropped, NOT backpressure drops),
  /// in-flight scoring finishes first, and the monitor buffers return to
  /// the state pool. Returns false for unknown/non-resident ids.
  bool evict_session(const std::string& id);

  /// Resident (in-memory) session count; evicted sessions don't count.
  std::size_t resident_sessions() const;

  /// Hot model reload: atomically publishes `detector` as the new version
  /// of `name` in the registry, rebinds every live session of that model
  /// at a window boundary (cumulative stats and cooldown carry over; the
  /// partial window resets — its ids encode the old alphabet). The old
  /// version is freed once its last session, monitor and decision record
  /// let go of it. Zero-loss: events already queued are not discarded —
  /// a frame scoring when the rebind lands finishes against the old
  /// version (the rebind waits for it, at most one frame), every frame
  /// behind it scores against the new one.
  ReloadReport reload_model(const std::string& name,
                            std::shared_ptr<const core::Detector> detector);

  /// Blocks until every event submitted before the call has finished
  /// (scored, dropped or purged): per shard, bounded by its backlog.
  void drain();

  /// drain() of the one shard that owns `id`; a no-op unless resident.
  void drain(const std::string& id);

  /// Refreshes the instantaneous gauges (uptime, sessions, per-shard
  /// sessions/state bytes, queue depths, bytes/session) and returns the
  /// registry holding every instrument of the service. It is the one
  /// metrics source: METRICS, /metrics, /varz, /healthz, /statusz, benches
  /// and tests all render it. Lock-cheap — the per-shard sweep takes only
  /// a shared lock on the resident list, never a worker or monitor lock.
  const obs::MetricsRegistry& metrics_registry();

  /// The mutable instrument registry (transports register their
  /// cmarkov_net_* instruments here so every surface sees one registry).
  obs::MetricsRegistry& instruments() { return metrics_; }

  /// Fresh collision-free id ("s1", "s2", ...) for transports whose HELLO
  /// omits one.
  std::string next_session_id();

  /// The service's span tracer (always present; disabled unless
  /// config.tracing.enabled). Read by the conversation layer's reply-span
  /// instrumentation and by exporters.
  const obs::Tracer& tracer() const { return *tracer_; }

  /// Records a span through the tracer with cmarkov_trace_spans_* counter
  /// accounting (the path every span — worker- or transport-side — takes).
  void record_span(obs::SpanRecord span);

  /// Service-wide decision log (JSONL sink; --decision-log dumps it).
  const core::DecisionLog& decision_log() const { return *decision_log_; }

  /// Microseconds on the service clock that timestamps every span (so
  /// transport-side spans line up with worker-side ones).
  double now_micros() const { return clock_.micros(); }

  /// Up to `n` most recent decision records of a session, oldest first
  /// (the TRACE verb). Empty unless the session's monitor has decision
  /// tracing enabled (and empty again right after a restore — the audit
  /// ring is a flight recorder, not snapshotted state). The entries are
  /// copied under the session's monitor lock and each record is derived
  /// after it, one kept-rows pass apiece (DecisionEntry::record), so a
  /// read never stalls the shard worker for its passes. Throws
  /// std::invalid_argument for unknown ids.
  std::vector<obs::DecisionRecord> recent_decisions(const std::string& id,
                                                    std::size_t n) const;

  /// Store holding evicted-session snapshots (daemon boot calls
  /// load_directory(); tests inspect it).
  SnapshotStore& snapshot_store() { return snapshots_; }
  const SnapshotStore& snapshot_store() const { return snapshots_; }

  /// The overload degradation ladder's admission governor (level reads;
  /// tests drive transitions through submit pressure).
  OverloadGovernor& overload_governor() { return governor_; }
  const OverloadGovernor& overload_governor() const { return governor_; }

  /// Arms drift detection: every completed window of sessions serving
  /// `model_name` is also fed to `monitor` (from the worker thread, under
  /// the session's monitor_mu — the window span points into monitor
  /// scratch that a concurrent reload would clear). The monitor must
  /// outlive the manager or be detached first (pass null). Set before
  /// traffic; not synchronized against in-flight events.
  void set_drift_monitor(DriftMonitor* monitor, std::string model_name);

  const StatePool& state_pool() const { return pool_; }

  const ServiceConfig& config() const { return config_; }
  const ModelRegistry& registry() const { return registry_; }

 private:
  struct Session;
  struct Item;
  struct Worker;
  /// Service-wide counter deltas a worker accumulates across one batch of
  /// frames and flushes with a single atomic add each — the per-event hot
  /// path touches no shared counter (the serve overhead around the kernel
  /// is part of the single-core budget).
  struct BatchCounters {
    std::uint64_t processed = 0;
    std::uint64_t windows = 0;
    std::uint64_t memo_hits = 0;
    std::uint64_t alarms = 0;
  };

  std::shared_ptr<Session> find_session(const std::string& id) const;
  /// Restores an evicted session (lifecycle lock held inside). Returns the
  /// resident session, or null when no snapshot exists either.
  std::shared_ptr<Session> try_restore(const std::string& id);
  /// Builds a resident session from a snapshot. Caller holds lifecycle_mu_.
  std::shared_ptr<Session> restore_locked(SessionSnapshot snapshot);
  /// Inserts a session into the resident map/list. Caller holds
  /// lifecycle_mu_; takes sessions_mu_ itself.
  void insert_resident(std::shared_ptr<Session> session);
  /// Takes a resident session out of service (close and evict): marks it
  /// retired under its shard's mu — with `purge` its queued events are
  /// discarded as evicted_dropped, otherwise the worker scores them —
  /// waits for every pending event and unlinks it from the resident
  /// map/list. The caller then snapshots the monitor and releases its
  /// storage. Caller holds lifecycle_mu_.
  void retire_locked(Session& session, bool purge);
  /// Evicts `session` (must be resident). Caller holds lifecycle_mu_.
  void evict_locked(Session& session);
  /// Enforces max_resident_sessions by evicting sampled-LRU idle sessions.
  /// Caller holds lifecycle_mu_. `keep` is never evicted.
  void enforce_residency_locked(const Session* keep);
  SessionStats stats_from_snapshot(const SessionSnapshot& snapshot) const;
  /// Scores one frame under one hold of its session's monitor_mu.
  void process_item(Item& item, BatchCounters& batch);
  /// Evicts `count` events off the front of the oldest queued frames
  /// (drop-oldest), each counted against its session. Caller holds
  /// worker.mu; the queue holds at least `count` events.
  void drop_oldest_locked(Worker& worker, std::size_t count);
  /// Takes the per-event tracing decisions of an `n`-event frame: its span
  /// sequence numbers (kUntraced for events not admitted), or empty when
  /// no event is traced.
  std::vector<std::uint64_t> sample_frame(std::uint32_t n, bool forced);
  void flush_batch(std::size_t shard, const BatchCounters& batch);
  /// Scores one batch: moves up to kBatchSize queued frames into `batch`
  /// and lowers depth under `lock` (held on worker.mu), then scores and
  /// flushes them with the lock released. Returns with the lock held
  /// again, in_flight cleared and cv_idle notified.
  void run_batch(Worker& worker, std::unique_lock<std::mutex>& lock,
                 std::vector<Item>& batch);
  /// manual_pump: runs batches on the calling thread until the queue is
  /// empty.
  void pump_worker(Worker& worker);
  void worker_loop(Worker& worker);
  /// drain()'s wait on one shard (manual_pump: pumps it instead).
  void settle(Worker& worker);
  SessionStats snapshot(const Session& session) const;
  SessionSnapshot freeze(Session& session) const;
  void refresh_gauges();
  /// Submit-path governor tick for `events` submitted events: cheap
  /// counter check, full pressure update whenever the count crosses a
  /// multiple of 64 (every submit while the ladder is elevated, so
  /// recovery is observed promptly).
  void maybe_update_governor(std::uint64_t events);
  /// Feeds one pressure observation to the governor and reacts to any
  /// transition (counter, log line, level-3 idle shed).
  void update_governor();
  /// Folds one per-event service-time sample into the EMA the governor's
  /// deadline signal uses.
  void note_service_time(double micros_per_event);
  double service_ema_micros() const;
  /// Mirrors failpoint lifetime hit counts onto the obs registry
  /// (cmarkov_failpoint_<name>_hits_total), delta-adding since last sync.
  void sync_failpoint_hits();

  ModelRegistry& registry_;
  ServiceConfig config_;
  Stopwatch clock_;
  /// Every instrument of the service. Declared before the members that
  /// cache instrument pointers (snapshots_), so it outlives them.
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Serializes lifecycle transitions (open, evict, restore, close) so a
  /// session is always either resident or in the snapshot store — never
  /// both, never neither — as seen under this lock. The submit hot path
  /// and the lookups take it only on a resident miss. Ordering:
  /// lifecycle_mu_ > sessions_mu_ > worker.mu/monitor_mu.
  mutable std::mutex lifecycle_mu_;

  mutable std::shared_mutex sessions_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  /// Dense view of resident sessions for O(1) eviction sampling
  /// (Session::list_index tracks positions; swap-pop removal).
  std::vector<std::shared_ptr<Session>> session_list_;

  SnapshotStore snapshots_;
  StatePool pool_;
  OverloadGovernor governor_;

  /// Drift feed target (null = drift disabled). The pointer is atomic so
  /// workers can read it lock-free; the name is written once before
  /// traffic (set_drift_monitor contract).
  std::atomic<DriftMonitor*> drift_monitor_{nullptr};
  std::string drift_model_name_;
  /// Submitted-event counter driving the every-64th governor update
  /// cadence.
  std::atomic<std::uint64_t> governor_ticks_{0};
  /// Bit pattern of the per-event service-time EMA (double); lock-free
  /// load/store — a lost concurrent sample only delays the estimate.
  std::atomic<std::uint64_t> service_ema_bits_{0};
  /// Failpoint hit counts already mirrored onto the obs registry.
  std::mutex failpoint_sync_mu_;
  std::unordered_map<std::string, std::uint64_t> failpoint_hits_seen_;
  /// Monotonic activity tick; stamped per submit for LRU ordering.
  std::atomic<std::uint64_t> activity_clock_{1};
  std::uint64_t evict_rng_state_ = 0x9e3779b97f4a7c15ull;

  std::atomic<std::uint64_t> next_id_{0};

  // Service-wide instruments, resolved once in the constructor.
  obs::Counter* enqueued_total_;
  obs::Counter* processed_total_;
  obs::Counter* dropped_total_;
  obs::Counter* rejected_total_;
  obs::Counter* windows_total_;
  obs::Counter* kernel_windows_total_;
  obs::Counter* window_memo_hits_total_;
  obs::Counter* alarms_total_;
  obs::Counter* sessions_evicted_total_;
  obs::Counter* sessions_restored_total_;
  obs::Counter* evicted_dropped_total_;
  obs::Counter* model_reloads_total_;
  obs::Counter* kernel_builds_total_;
  obs::Counter* overload_transitions_total_;
  obs::Counter* overload_shed_traces_total_;
  obs::Counter* overload_shed_hellos_total_;
  obs::Counter* overload_early_evicted_total_;
  obs::Histogram* reload_micros_;
  obs::Histogram* kernel_build_micros_;
  obs::Histogram* latency_micros_;
  obs::Gauge* uptime_gauge_;
  obs::Gauge* sessions_gauge_;
  obs::Gauge* state_bytes_gauge_;
  obs::Gauge* kernel_image_bytes_gauge_;
  obs::Gauge* overload_level_gauge_;
  std::vector<obs::Gauge*> queue_depth_gauges_;
  // Per-shard instruments behind /statusz (indexed by shard).
  std::vector<obs::Gauge*> shard_sessions_gauges_;
  std::vector<obs::Gauge*> shard_state_bytes_gauges_;
  std::vector<obs::Counter*> shard_processed_totals_;
  std::vector<obs::Counter*> shard_evicted_totals_;

  // Tracing sinks (always constructed; zero-capacity / disabled when off).
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<core::DecisionLog> decision_log_;
  obs::Counter* spans_total_;
  obs::Counter* spans_dropped_total_;
  obs::Counter* decisions_total_;
  obs::Counter* decisions_dropped_total_;
};

}  // namespace cmarkov::serve
