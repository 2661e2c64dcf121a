// Serialized session state for idle-session eviction and daemon restarts.
//
// A SessionSnapshot captures everything an evicted session needs to resume
// exactly where it stopped: the monitor's scoring state (window ids,
// hysteresis, cumulative stats — all exact integers, so the round trip is
// bit-identical) plus the per-session queue counters and the identity of
// the model the window ids were encoded against. The SnapshotStore keeps
// snapshots in memory and, when given a directory, mirrors each one to a
// "<id>.session" file in the `cmarkov-session v1` text format — sessions
// then survive daemon restarts (load_directory at boot).
//
// Disk writes are crash-safe (ISSUE 8): each file is written to a ".tmp"
// sibling, fsync'd, sealed with a CRC-32 footer line, and atomically
// renamed into place (the parent directory is fsync'd after the rename).
// A crash therefore leaves either the old file, the new file, or an
// orphaned tmp — never a half-written "<id>.session". At boot,
// load_directory verifies every file's CRC and QUARANTINES anything torn,
// truncated, or bit-rotted into "<dir>/quarantine/" (visible for forensics,
// counted on cmarkov_snapshot_quarantined_total) instead of silently
// skipping it; healthy siblings always load. The CRC only proves the bytes
// are the ones written: a body whose counts lie is sealed just as well, so
// the decoder bounds every count by the bytes that remain, and such a file
// is quarantined too.
//
// A failed disk write no longer degrades that snapshot to memory-only
// forever: the id is marked dirty and re-attempted with capped exponential
// backoff on subsequent eviction passes (every put() retries what is due;
// retry_pending_writes() forces a pass). Failures and retries ride on the
// cmarkov_snapshot_* counters once bind_instruments() is called.
//
// Model identity is two numbers: the in-process registry `model_version`
// (cheap staleness check for evict/restore within one daemon) and the
// content `model_fingerprint` (stable across restarts). A restore whose
// fingerprint no longer matches the registry keeps the counters but starts
// a fresh window — the old window ids index a dead alphabet.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "src/core/online_monitor.hpp"
#include "src/obs/metrics_registry.hpp"

namespace cmarkov::serve {

struct SessionSnapshot {
  std::string id;
  std::string model;
  std::uint64_t model_version = 0;
  std::uint64_t model_fingerprint = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  /// Queued events discarded when this session was evicted (satellite
  /// accounting: eviction losses are not backpressure losses).
  std::uint64_t evicted_dropped = 0;
  /// Hysteresis configuration the session was opened with, so a restore
  /// alarms exactly like the uninterrupted session would have.
  std::uint64_t windows_to_alarm = 1;
  std::uint64_t cooldown_events = 0;
  core::MonitorSnapshot monitor;
};

/// Renders the `cmarkov-session v1` text form (exact integer fields; the
/// id/model strings are length-prefixed, so any bytes the wire admits —
/// spaces and newlines included — survive: decode(encode(s)) == s). The
/// on-disk CRC footer is the store's concern, not the codec's.
std::string encode_session_snapshot(const SessionSnapshot& snapshot);

/// Parses the text form through util::RecordReader, like model_io. Throws
/// std::runtime_error naming the offending key or value on malformed
/// input; a `window` count or an id/model length that needs more bytes
/// than remain is refused before anything is allocated for it.
SessionSnapshot decode_session_snapshot(const std::string& text);

/// Thread-safe id-keyed snapshot store. With an empty directory snapshots
/// live in memory only (evict/restore within one daemon); with a directory
/// every put/erase is mirrored to disk so sessions survive restarts.
class SnapshotStore {
 public:
  /// Creates `dir` (recursively) when non-empty. Throws std::runtime_error
  /// when the directory cannot be created.
  explicit SnapshotStore(std::string dir = "");

  /// Registers the cmarkov_snapshot_* counters (writes, write_failures,
  /// write_retries, quarantined) on `metrics`. Optional; without it the
  /// store still tracks quarantined_count()/dirty_count() locally.
  void bind_instruments(obs::MetricsRegistry& metrics);

  /// Stores (and, with a directory, mirrors to disk) one snapshot. A disk
  /// write failure is logged and counted; the snapshot stays in memory and
  /// its persistence is re-attempted with capped exponential backoff on
  /// later puts (the eviction pass) — eviction never throws I/O errors
  /// into the serving path.
  void put(SessionSnapshot snapshot);

  /// Removes and returns the snapshot, or nullopt when absent.
  std::optional<SessionSnapshot> take(const std::string& id);

  /// A copy of the snapshot without consuming it (stats of an evicted
  /// session), or nullopt when absent.
  std::optional<SessionSnapshot> peek(const std::string& id) const;

  bool contains(const std::string& id) const;
  std::size_t size() const;

  /// Loads every "*.session" file of the store directory into memory
  /// (daemon boot). Files that fail CRC or decode are moved into
  /// "<dir>/quarantine/" and counted — one corrupt file must not abort
  /// startup, and must not disappear silently either. Orphaned ".tmp"
  /// files (crash mid-write) are removed. Returns the number of snapshots
  /// loaded. No-op without a dir.
  std::size_t load_directory();

  /// Re-attempts persisting every dirty snapshot whose backoff window has
  /// passed; returns how many flushed clean. Called implicitly by put().
  std::size_t retry_pending_writes();

  /// Snapshots currently degraded to memory-only awaiting a write retry.
  std::size_t dirty_count() const;

  /// Files quarantined by load_directory over this store's lifetime.
  std::size_t quarantined_count() const;

  /// Test hook: overrides the retry backoff (base doubles per attempt up
  /// to cap). Defaults: 100 ms base, 10 s cap.
  void set_retry_backoff(std::uint64_t base_micros, std::uint64_t cap_micros);

  const std::string& directory() const { return dir_; }

 private:
  struct RetryState {
    std::uint64_t attempts = 0;
    std::uint64_t next_retry_micros = 0;
  };

  std::string file_path(const std::string& id) const;
  /// Writes one snapshot file crash-safely (tmp + fsync + CRC footer +
  /// rename + dir fsync). Caller holds io_mu_. False on any I/O failure
  /// (nothing half-written is left at the final path).
  bool write_snapshot_file(const std::string& id, const std::string& encoded);
  /// Flushes due dirty entries. Caller holds io_mu_.
  std::size_t flush_dirty_locked(std::uint64_t now_micros);
  void quarantine_file(const std::string& path, const std::string& reason);
  std::uint64_t backoff_micros(std::uint64_t attempts) const;
  static std::uint64_t now_micros();

  /// Guards snapshots_ (memory map) only — stats readers never queue
  /// behind file I/O.
  mutable std::mutex mu_;
  /// Serializes disk I/O and the dirty-retry bookkeeping. Lock order:
  /// io_mu_ before mu_ (take() nests them; put() takes them in sequence).
  mutable std::mutex io_mu_;
  std::string dir_;
  std::map<std::string, SessionSnapshot> snapshots_;
  /// Ids whose last disk write failed, keyed to their backoff state.
  std::map<std::string, RetryState> dirty_;
  std::uint64_t retry_base_micros_ = 100'000;
  std::uint64_t retry_cap_micros_ = 10'000'000;
  std::size_t quarantined_ = 0;

  obs::Counter* writes_total_ = nullptr;
  obs::Counter* write_failures_total_ = nullptr;
  obs::Counter* write_retries_total_ = nullptr;
  obs::Counter* quarantined_total_ = nullptr;
};

}  // namespace cmarkov::serve
