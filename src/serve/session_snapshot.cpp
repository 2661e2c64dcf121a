#include "src/serve/session_snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/util/crc32.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/logging.hpp"
#include "src/util/record_reader.hpp"

namespace cmarkov::serve {

namespace {

constexpr const char* kMagic = "cmarkov-session";
constexpr std::uint64_t kVersion = 1;
/// On-disk integrity footer: "crc32 " + 8 hex digits + "\n".
constexpr std::size_t kFooterLength = 15;

/// Session ids come from the wire; keep the on-disk name filesystem-safe.
std::string sanitize_for_filename(const std::string& id) {
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    if (safe) {
      out.push_back(c);
    } else {
      static const char* hex = "0123456789abcdef";
      out.push_back('%');
      out.push_back(hex[static_cast<unsigned char>(c) >> 4]);
      out.push_back(hex[static_cast<unsigned char>(c) & 0xf]);
    }
  }
  return out;
}

std::string crc_footer(const std::string& body) {
  char footer[kFooterLength + 1];
  std::snprintf(footer, sizeof(footer), "crc32 %08x", util::crc32(body));
  return std::string(footer) + "\n";
}

/// Verifies the trailing "crc32 <8hex>\n" footer against the body it seals
/// and returns the body. Throws on a missing footer, a malformed footer,
/// or a checksum mismatch — the three faces of a torn or bit-rotted file.
std::string verify_and_strip_footer(const std::string& contents) {
  if (contents.size() < kFooterLength || contents.back() != '\n' ||
      contents.compare(contents.size() - kFooterLength, 6, "crc32 ") != 0) {
    throw std::runtime_error("session_snapshot: missing crc32 footer");
  }
  const std::string hex = contents.substr(contents.size() - 9, 8);
  if (hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
    throw std::runtime_error("session_snapshot: malformed crc32 footer");
  }
  std::uint32_t stored = 0;
  std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  std::string body = contents.substr(0, contents.size() - kFooterLength);
  const std::uint32_t actual = util::crc32(body);
  if (actual != stored) {
    char message[96];
    std::snprintf(message, sizeof(message),
                  "session_snapshot: crc32 mismatch (stored %08x, actual %08x)",
                  stored, actual);
    throw std::runtime_error(message);
  }
  return body;
}

/// Writes the whole buffer, riding out EINTR. False on any write error.
bool write_fully(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Best-effort fsync of the directory holding a just-renamed file, so the
/// rename itself survives power loss. Failure is logged, not fatal: data
/// durability already came from the file fsync.
void fsync_directory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  if (::fsync(fd) != 0) {
    log_error() << "snapshot store: fsync of directory '" << dir
                << "' failed: " << std::strerror(errno);
  }
  ::close(fd);
}

}  // namespace

std::string encode_session_snapshot(const SessionSnapshot& snapshot) {
  std::ostringstream out;
  out << kMagic << " " << kVersion << "\n";
  // id/model are length-prefixed: the wire allows arbitrary bytes in them.
  out << "id " << snapshot.id.size() << " " << snapshot.id << "\n";
  out << "model " << snapshot.model.size() << " " << snapshot.model << "\n";
  out << "model_version " << snapshot.model_version << "\n";
  out << "model_fingerprint " << snapshot.model_fingerprint << "\n";
  out << "enqueued " << snapshot.enqueued << "\n";
  out << "processed " << snapshot.processed << "\n";
  out << "dropped " << snapshot.dropped << "\n";
  out << "rejected " << snapshot.rejected << "\n";
  out << "evicted_dropped " << snapshot.evicted_dropped << "\n";
  out << "windows_to_alarm " << snapshot.windows_to_alarm << "\n";
  out << "cooldown_events " << snapshot.cooldown_events << "\n";
  out << "consecutive_flagged " << snapshot.monitor.consecutive_flagged
      << "\n";
  out << "cooldown_remaining " << snapshot.monitor.cooldown_remaining << "\n";
  out << "events_seen " << snapshot.monitor.stats.events_seen << "\n";
  out << "events_observed " << snapshot.monitor.stats.events_observed << "\n";
  out << "windows_scored " << snapshot.monitor.stats.windows_scored << "\n";
  out << "windows_flagged " << snapshot.monitor.stats.windows_flagged << "\n";
  out << "alarms " << snapshot.monitor.stats.alarms << "\n";
  out << "window " << snapshot.monitor.window.size();
  for (const std::size_t id : snapshot.monitor.window) out << " " << id;
  out << "\n";
  return out.str();
}

SessionSnapshot decode_session_snapshot(const std::string& text) {
  util::RecordReader in(text, "session_snapshot");
  in.header(kMagic, kVersion);
  SessionSnapshot snapshot;
  in.expect("id");
  snapshot.id = in.sized_string("id");
  in.expect("model");
  snapshot.model = in.sized_string("model");
  snapshot.model_version = in.u64_field("model_version");
  snapshot.model_fingerprint = in.u64_field("model_fingerprint");
  snapshot.enqueued = in.u64_field("enqueued");
  snapshot.processed = in.u64_field("processed");
  snapshot.dropped = in.u64_field("dropped");
  snapshot.rejected = in.u64_field("rejected");
  snapshot.evicted_dropped = in.u64_field("evicted_dropped");
  snapshot.windows_to_alarm = in.u64_field("windows_to_alarm");
  snapshot.cooldown_events = in.u64_field("cooldown_events");
  core::MonitorSnapshot& monitor = snapshot.monitor;
  monitor.consecutive_flagged = in.u64_field("consecutive_flagged");
  monitor.cooldown_remaining = in.u64_field("cooldown_remaining");
  monitor.stats.events_seen = in.u64_field("events_seen");
  monitor.stats.events_observed = in.u64_field("events_observed");
  monitor.stats.windows_scored = in.u64_field("windows_scored");
  monitor.stats.windows_flagged = in.u64_field("windows_flagged");
  monitor.stats.alarms = in.u64_field("alarms");
  in.expect("window");
  monitor.window.resize(in.count("window", 2));
  for (std::size_t& id : monitor.window) id = in.u64("window");
  return snapshot;
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw std::runtime_error("SnapshotStore: cannot create directory '" +
                             dir_ + "': " + ec.message());
  }
}

void SnapshotStore::bind_instruments(obs::MetricsRegistry& metrics) {
  writes_total_ = &metrics.counter("cmarkov_snapshot_writes_total");
  write_failures_total_ =
      &metrics.counter("cmarkov_snapshot_write_failures_total");
  write_retries_total_ =
      &metrics.counter("cmarkov_snapshot_write_retries_total");
  quarantined_total_ = &metrics.counter("cmarkov_snapshot_quarantined_total");
}

std::string SnapshotStore::file_path(const std::string& id) const {
  return dir_ + "/" + sanitize_for_filename(id) + ".session";
}

std::uint64_t SnapshotStore::now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SnapshotStore::backoff_micros(std::uint64_t attempts) const {
  std::uint64_t backoff = retry_base_micros_;
  for (std::uint64_t i = 1; i < attempts && backoff < retry_cap_micros_; ++i) {
    backoff *= 2;
  }
  return std::min(backoff, retry_cap_micros_);
}

void SnapshotStore::set_retry_backoff(std::uint64_t base_micros,
                                      std::uint64_t cap_micros) {
  const std::lock_guard io(io_mu_);
  retry_base_micros_ = base_micros;
  retry_cap_micros_ = std::max(base_micros, cap_micros);
}

bool SnapshotStore::write_snapshot_file(const std::string& id,
                                        const std::string& encoded) {
  const std::string path = file_path(id);
  const std::string tmp = path + ".tmp";
  const std::string payload = encoded + crc_footer(encoded);

  if (CMARKOV_FAILPOINT("snapshot.write_torn")) {
    // Model a crashed or non-atomic writer: half the payload lands at the
    // FINAL path and the write "succeeds" — the tear is only discoverable
    // at boot, which is exactly what the quarantine path must catch.
    std::ofstream torn(path, std::ios::binary | std::ios::trunc);
    torn.write(payload.data(),
               static_cast<std::streamsize>(payload.size() / 2));
    return true;
  }

  int fd = -1;
  if (CMARKOV_FAILPOINT("snapshot.open_fail")) {
    errno = EACCES;
  } else {
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  }
  if (fd < 0) {
    log_error() << "snapshot store: cannot open '" << tmp
                << "': " << std::strerror(errno);
    return false;
  }

  bool ok = !CMARKOV_FAILPOINT("snapshot.write_fail") && write_fully(fd, payload);
  if (ok && (CMARKOV_FAILPOINT("snapshot.fsync_fail") || ::fsync(fd) != 0)) {
    ok = false;
  }
  ::close(fd);
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) ok = false;
  if (!ok) {
    log_error() << "snapshot store: cannot write '" << path
                << "': " << std::strerror(errno)
                << "; keeping snapshot in memory, will retry";
    ::unlink(tmp.c_str());
    return false;
  }
  fsync_directory(dir_);
  return true;
}

void SnapshotStore::put(SessionSnapshot snapshot) {
  const std::string id = snapshot.id;
  std::string encoded;
  if (!dir_.empty()) encoded = encode_session_snapshot(snapshot);
  {
    const std::lock_guard lock(mu_);
    snapshots_[id] = std::move(snapshot);
  }
  if (dir_.empty()) return;
  // Disk I/O happens under io_mu_, never mu_: stats readers (peek/contains)
  // must not queue behind file writes. An I/O failure degrades this
  // snapshot to memory-only with a logged error — put() runs on the
  // eviction path, where throwing would surface as a protocol error to
  // whichever client's submit() triggered the eviction. The id goes on the
  // dirty list instead and every subsequent put (i.e. the next eviction
  // pass) re-attempts whatever is due.
  const std::lock_guard io(io_mu_);
  flush_dirty_locked(now_micros());
  if (writes_total_ != nullptr) writes_total_->add(1);
  if (write_snapshot_file(id, encoded)) {
    dirty_.erase(id);
    return;
  }
  if (write_failures_total_ != nullptr) write_failures_total_->add(1);
  RetryState& state = dirty_[id];
  state.attempts += 1;
  state.next_retry_micros = now_micros() + backoff_micros(state.attempts);
}

std::size_t SnapshotStore::flush_dirty_locked(std::uint64_t now) {
  std::size_t flushed = 0;
  for (auto it = dirty_.begin(); it != dirty_.end();) {
    if (it->second.next_retry_micros > now) {
      ++it;
      continue;
    }
    std::string encoded;
    {
      const std::lock_guard lock(mu_);
      const auto snap = snapshots_.find(it->first);
      if (snap == snapshots_.end()) {
        // Taken (restored) since the failed write — nothing left to persist.
        it = dirty_.erase(it);
        continue;
      }
      encoded = encode_session_snapshot(snap->second);
    }
    if (write_retries_total_ != nullptr) write_retries_total_->add(1);
    if (write_snapshot_file(it->first, encoded)) {
      it = dirty_.erase(it);
      ++flushed;
    } else {
      if (write_failures_total_ != nullptr) write_failures_total_->add(1);
      it->second.attempts += 1;
      it->second.next_retry_micros = now + backoff_micros(it->second.attempts);
      ++it;
    }
  }
  return flushed;
}

std::size_t SnapshotStore::retry_pending_writes() {
  if (dir_.empty()) return 0;
  const std::lock_guard io(io_mu_);
  return flush_dirty_locked(now_micros());
}

std::size_t SnapshotStore::dirty_count() const {
  const std::lock_guard io(io_mu_);
  return dirty_.size();
}

std::size_t SnapshotStore::quarantined_count() const {
  const std::lock_guard io(io_mu_);
  return quarantined_;
}

std::optional<SessionSnapshot> SnapshotStore::take(const std::string& id) {
  // io_mu_ before mu_ (the store's one nesting site): the file and the
  // dirty entry must go away atomically with the memory entry, or a
  // concurrent retry pass could resurrect the file of a consumed session.
  const std::lock_guard io(io_mu_);
  const std::lock_guard lock(mu_);
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return std::nullopt;
  SessionSnapshot snapshot = std::move(it->second);
  snapshots_.erase(it);
  dirty_.erase(id);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove(file_path(id), ec);  // best effort
    std::filesystem::remove(file_path(id) + ".tmp", ec);
  }
  return snapshot;
}

std::optional<SessionSnapshot> SnapshotStore::peek(
    const std::string& id) const {
  const std::lock_guard lock(mu_);
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return std::nullopt;
  return it->second;
}

bool SnapshotStore::contains(const std::string& id) const {
  const std::lock_guard lock(mu_);
  return snapshots_.find(id) != snapshots_.end();
}

std::size_t SnapshotStore::size() const {
  const std::lock_guard lock(mu_);
  return snapshots_.size();
}

void SnapshotStore::quarantine_file(const std::string& path,
                                    const std::string& reason) {
  namespace fs = std::filesystem;
  const fs::path source(path);
  const fs::path qdir = fs::path(dir_) / "quarantine";
  std::error_code ec;
  fs::create_directories(qdir, ec);
  const fs::path target = qdir / source.filename();
  fs::rename(source, target, ec);
  if (ec) {
    log_error() << "snapshot store: cannot quarantine " << path << " ("
                << reason << "): " << ec.message();
    return;
  }
  log_error() << "snapshot store: quarantined " << path << " -> " << target
              << ": " << reason;
  ++quarantined_;
  if (quarantined_total_ != nullptr) quarantined_total_->add(1);
}

std::size_t SnapshotStore::load_directory() {
  if (dir_.empty()) return 0;
  const std::lock_guard io(io_mu_);
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  std::vector<fs::path> orphans;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".tmp") {
      orphans.push_back(entry.path());
    } else if (entry.path().extension() == ".session") {
      files.push_back(entry.path());
    }
  }
  for (const fs::path& orphan : orphans) {
    // A crash mid-write leaves the tmp; the final file (old or absent) is
    // the authoritative state, so the tmp is just litter.
    std::error_code ec;
    fs::remove(orphan, ec);
    log_info() << "snapshot store: removed orphaned tmp " << orphan;
  }
  std::size_t loaded = 0;
  for (const fs::path& path : files) {
    try {
      const std::string body = verify_and_strip_footer(
          util::read_regular_file(path.string(), "session_snapshot"));
      SessionSnapshot snapshot = decode_session_snapshot(body);
      const std::lock_guard lock(mu_);
      snapshots_[snapshot.id] = std::move(snapshot);
      ++loaded;
    } catch (const std::exception& e) {
      // One corrupt (or adversarial) file must not abort daemon startup —
      // and must not vanish silently either: move it aside where an
      // operator can inspect it, count it, and keep every healthy sibling.
      quarantine_file(path.string(), e.what());
    }
  }
  if (loaded > 0) {
    log_info() << "snapshot store: restored " << loaded
               << " session snapshot(s) from " << dir_;
  }
  return loaded;
}

}  // namespace cmarkov::serve
