// cmarkovd's TCP front-end: a non-blocking, edge-triggered epoll server.
//
// Thread layout:
//   - one acceptor thread owns the listening socket and hands accepted
//     connections to the event loops round-robin (eventfd wakeup);
//   - N event-loop threads (NetOptions::num_loops) each run their own
//     epoll instance over their own connections — no connection is ever
//     touched by two loop threads, so per-connection state needs no locks;
//   - scoring stays where it was: loops only parse and enqueue into the
//     SessionManager's sharded worker queues, replies are written back
//     from the loop thread.
//
// Each connection speaks either the CMKB binary frame protocol or the text
// line protocol; the server sniffs the first bytes (frames start with
// "CMKB", no text verb does) and binds the matching conversation object.
// Writes that would block park the residue in a per-connection buffer and
// arm EPOLLOUT; once that backlog exceeds NetOptions::outbuf_high_water
// the connection's reads are paused until it drains (slow-reader
// protection — TCP flow control pushes back on the client). A connection
// whose parser reports a framing violation gets one kError frame and is
// closed.
//
// Backpressure: the block submit policy intentionally blocks the loop
// thread (and thus every connection on that loop) when a worker queue is
// full — the same producer-slowdown semantics the stdio transport has.
// Deployments that prefer isolation run drop-oldest/reject policies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/net/admin.hpp"
#include "src/serve/session_manager.hpp"

namespace cmarkov::serve::net {

struct NetOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (the bound port is available via port() after start).
  std::uint16_t port = 0;
  /// Event-loop threads. One loop handles thousands of idle connections;
  /// add loops when parse/enqueue work saturates a core. At most
  /// kMaxThreads.
  std::size_t num_loops = 1;
  /// Per-connection write-backlog cap: once the unflushed reply bytes
  /// exceed this, the connection's reads are paused (its kernel receive
  /// buffer fills and TCP flow control pushes back on the client) until
  /// the backlog drains below a quarter of the cap. Bounds the memory a
  /// pipelining client that never reads its socket can pin. Must be > 0.
  std::size_t outbuf_high_water = 4 * 1024 * 1024;
  /// Handshake idle timeout: a connection that has not completed its first
  /// protocol unit (text line or binary frame) within this window is
  /// closed and counted on cmarkov_net_handshake_timeouts_total — half-open
  /// scanners and silent clients cannot pin fds forever. 0 disables the
  /// reaper (event loops then block indefinitely in epoll_wait, exactly
  /// the pre-timeout behavior).
  std::uint64_t handshake_timeout_micros = 30'000'000;
  /// Admin-plane handler. Non-null enables a second listening socket on
  /// `admin_port` whose connections speak HTTP/1.1 to this handler instead
  /// of being protocol-sniffed; they share the event loops with traffic.
  /// Non-owning; must outlive the server.
  AdminHandler* admin = nullptr;
  /// Admin listener port (0 = ephemeral, resolved via admin_port() after
  /// start). Ignored unless `admin` is set.
  std::uint16_t admin_port = 0;
};

class EpollServer {
 public:
  /// Transports register their cmarkov_net_* instruments on
  /// manager.instruments(), so METRICS exposes one combined surface.
  EpollServer(SessionManager& manager, NetOptions options);
  ~EpollServer();
  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Binds, listens, and spawns the acceptor + loop threads. Throws
  /// std::runtime_error on socket/bind/listen failure.
  void start();

  /// The bound TCP port (after start); resolves ephemeral binds.
  std::uint16_t port() const { return port_; }

  /// The bound admin port (after start, with NetOptions::admin set).
  std::uint16_t admin_port() const { return admin_port_; }

  /// Stops accepting, closes every connection (open sessions are closed
  /// through their conversation objects), joins all threads. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

 private:
  struct Conn;
  struct Loop;

  /// Binds + listens one nonblocking socket on options_.bind_address;
  /// returns the fd and stores the resolved port into `bound_port`.
  int open_listener(std::uint16_t port, std::uint16_t& bound_port);
  void acceptor_main();
  void loop_main(Loop& loop);
  void adopt_pending(Loop& loop);
  void handle_readable(Loop& loop, Conn& conn);
  /// Re-enters the read path of a connection whose reads were paused by
  /// the write-backlog cap, once the backlog has drained far enough.
  void resume_reads(Loop& loop, Conn& conn);
  void flush_writes(Loop& loop, Conn& conn);
  void update_interest(Loop& loop, Conn& conn);
  void close_conn(Loop& loop, Conn& conn);
  /// Closes connections whose handshake deadline passed (rate-limited
  /// per-loop sweep off the periodic epoll_wait timeout).
  void reap_stalled_handshakes(Loop& loop);
  void process_input(Loop& loop, Conn& conn, const char* data,
                     std::size_t size);
  void process_text(Loop& loop, Conn& conn);
  void process_frames(Loop& loop, Conn& conn);

  SessionManager& manager_;
  NetOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  int admin_listen_fd_ = -1;
  std::uint16_t admin_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int acceptor_wake_fd_ = -1;
  std::thread acceptor_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::size_t next_loop_ = 0;

  obs::Counter* connections_total_;
  obs::Counter* frames_total_;
  obs::Counter* frame_errors_total_;
  obs::Counter* text_lines_total_;
  obs::Counter* bytes_read_total_;
  obs::Counter* bytes_written_total_;
  obs::Counter* handshake_timeouts_total_;
  obs::Gauge* connections_open_;
  /// Per-event-loop instruments behind /statusz's "loops" (indexed by
  /// loop). Registered at construction, so the values survive stop().
  struct LoopInstruments {
    obs::Counter* bytes_read;
    obs::Counter* bytes_written;
    obs::Counter* units;
    obs::Gauge* connections_open;
  };
  std::vector<LoopInstruments> loop_instruments_;
};

}  // namespace cmarkov::serve::net
