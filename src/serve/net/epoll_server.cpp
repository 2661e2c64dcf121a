#include "src/serve/net/epoll_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/serve/net/binary_session.hpp"
#include "src/serve/net/frame.hpp"
#include "src/serve/protocol.hpp"
#include "src/util/failpoint.hpp"
#include "src/util/logging.hpp"

namespace cmarkov::serve::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("EpollServer: " + what + ": " +
                           std::strerror(errno));
}

int make_eventfd() {
  const int fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) throw_errno("eventfd");
  return fd;
}

void ring_eventfd(int fd) {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the reader; ignore short writes.
  [[maybe_unused]] const ssize_t n = write(fd, &one, sizeof(one));
}

void drain_eventfd(int fd) {
  std::uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = read(fd, &value, sizeof(value));
}

}  // namespace

/// Per-connection state. Owned by exactly one event loop; never locked.
struct EpollServer::Conn {
  explicit Conn(int fd) : fd(fd) {}

  int fd;
  enum class Mode { kUnknown, kText, kBinary, kHttp } mode = Mode::kUnknown;
  /// Unknown mode: the sniff prefix. Text mode: the partial-line buffer.
  /// Http mode: the partial-request buffer.
  std::string inbuf;
  FrameParser parser;
  std::unique_ptr<ProtocolSession> text;
  std::unique_ptr<BinarySession> binary;
  /// Bound at adoption for connections accepted on the admin listener
  /// (mode kHttp from the first byte — no sniffing).
  std::unique_ptr<AdminConn> http;
  std::string outbuf;
  std::size_t outpos = 0;
  bool want_write = false;   // EPOLLOUT currently armed
  bool want_close = false;   // close once outbuf is flushed
  bool read_paused = false;  // input on hold until the backlog drains
  /// First full protocol unit (text line / binary frame) handled — the
  /// handshake reaper skips the connection from then on.
  bool handshake_done = false;
  /// Service-clock stamp at adoption (handshake deadline base).
  double accepted_micros = 0.0;

  /// Unflushed reply bytes parked on this connection.
  std::size_t backlog() const { return outbuf.size() - outpos; }
};

struct EpollServer::Loop {
  std::size_t index = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex pending_mu;
  /// Accepted fds awaiting adoption; the flag marks admin-listener fds.
  std::vector<std::pair<int, bool>> pending;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// Next handshake-reaper sweep (service clock); rate-limits the scan.
  double next_sweep_micros = 0.0;
};

EpollServer::EpollServer(SessionManager& manager, NetOptions options)
    : manager_(manager), options_(std::move(options)) {
  if (options_.num_loops == 0) {
    throw std::invalid_argument("EpollServer: num_loops must be > 0");
  }
  if (options_.outbuf_high_water == 0) {
    throw std::invalid_argument("EpollServer: outbuf_high_water must be > 0");
  }
  obs::MetricsRegistry& metrics = manager_.instruments();
  connections_total_ = &metrics.counter("cmarkov_net_connections_total");
  frames_total_ = &metrics.counter("cmarkov_net_frames_total");
  frame_errors_total_ = &metrics.counter("cmarkov_net_frame_errors_total");
  text_lines_total_ = &metrics.counter("cmarkov_net_text_lines_total");
  bytes_read_total_ = &metrics.counter("cmarkov_net_bytes_read_total");
  bytes_written_total_ = &metrics.counter("cmarkov_net_bytes_written_total");
  handshake_timeouts_total_ =
      &metrics.counter("cmarkov_net_handshake_timeouts_total");
  connections_open_ = &metrics.gauge("cmarkov_net_connections_open");
  loop_instruments_.reserve(options_.num_loops);
  for (std::size_t i = 0; i < options_.num_loops; ++i) {
    LoopInstruments li;
    li.bytes_read = &metrics.counter("cmarkov_net_loop_bytes_read_total_w" +
                                     std::to_string(i));
    li.bytes_written = &metrics.counter(
        "cmarkov_net_loop_bytes_written_total_w" + std::to_string(i));
    li.units =
        &metrics.counter("cmarkov_net_loop_units_total_w" + std::to_string(i));
    li.connections_open = &metrics.gauge(
        "cmarkov_net_loop_connections_open_w" + std::to_string(i));
    loop_instruments_.push_back(li);
  }
}

EpollServer::~EpollServer() { stop(); }

int EpollServer::open_listener(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket");
  const int enable = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    throw std::runtime_error("EpollServer: bad bind address '" +
                             options_.bind_address + "'");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    throw_errno("bind " + options_.bind_address + ":" + std::to_string(port));
  }
  if (listen(fd, SOMAXCONN) < 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    throw_errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    throw_errno("getsockname");
  }
  bound_port = ntohs(addr.sin_port);
  return fd;
}

void EpollServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  listen_fd_ = open_listener(options_.port, port_);
  if (options_.admin != nullptr) {
    try {
      admin_listen_fd_ = open_listener(options_.admin_port, admin_port_);
    } catch (...) {
      close(listen_fd_);
      listen_fd_ = -1;
      throw;
    }
  }

  stopping_.store(false, std::memory_order_release);
  acceptor_wake_fd_ = make_eventfd();
  loops_.clear();
  for (std::size_t i = 0; i < options_.num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) throw_errno("epoll_create1");
    loop->wake_fd = make_eventfd();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    if (epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev) < 0) {
      throw_errno("epoll_ctl wake fd");
    }
    loops_.push_back(std::move(loop));
  }
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { loop_main(*l); });
  }
  acceptor_ = std::thread([this] { acceptor_main(); });
  log_info() << "net: listening on " << options_.bind_address << ":" << port_
             << " (" << options_.num_loops << " event loop(s))";
  if (admin_listen_fd_ >= 0) {
    log_info() << "net: admin plane on " << options_.bind_address << ":"
               << admin_port_;
  }
}

void EpollServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  ring_eventfd(acceptor_wake_fd_);
  for (auto& loop : loops_) ring_eventfd(loop->wake_fd);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    // Loop threads exited without touching their maps again; closing the
    // conversation objects here releases any sessions still open.
    for (auto& [fd, conn] : loop->conns) {
      conn->text.reset();
      conn->binary.reset();
      conn->http.reset();
      close(fd);
    }
    loop->conns.clear();
    {
      const std::lock_guard lock(loop->pending_mu);
      for (const auto& [fd, is_admin] : loop->pending) close(fd);
      loop->pending.clear();
    }
    close(loop->wake_fd);
    close(loop->epoll_fd);
  }
  loops_.clear();
  close(acceptor_wake_fd_);
  acceptor_wake_fd_ = -1;
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  if (admin_listen_fd_ >= 0) close(admin_listen_fd_);
  admin_listen_fd_ = -1;
  connections_open_->set(0.0);
  for (const LoopInstruments& li : loop_instruments_) {
    li.connections_open->set(0.0);
  }
}

void EpollServer::acceptor_main() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    log_error() << "net: acceptor epoll_create1: " << std::strerror(errno);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  if (admin_listen_fd_ >= 0) {
    ev.data.fd = admin_listen_fd_;
    epoll_ctl(epoll_fd, EPOLL_CTL_ADD, admin_listen_fd_, &ev);
  }
  ev.data.fd = acceptor_wake_fd_;
  epoll_ctl(epoll_fd, EPOLL_CTL_ADD, acceptor_wake_fd_, &ev);

  // Drains one listener to EAGAIN, round-robining accepted fds onto the
  // event loops. Admin connections ride the same loops, tagged so adoption
  // binds an AdminConn instead of sniffing the protocol.
  const auto drain_accepts = [&](int listen_fd, bool is_admin) {
    for (;;) {
      const int fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        log_error() << "net: accept: " << std::strerror(errno);
        break;
      }
      if (CMARKOV_FAILPOINT("net.accept_fail")) {
        // Model post-accept setup failure (fd limits, abrupt RST): the
        // connection is dropped, the accept loop keeps running.
        log_error() << "net: accept failed (failpoint net.accept_fail)";
        close(fd);
        continue;
      }
      const int nodelay = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
      Loop& loop = *loops_[next_loop_];
      next_loop_ = (next_loop_ + 1) % loops_.size();
      {
        const std::lock_guard lock(loop.pending_mu);
        loop.pending.emplace_back(fd, is_admin);
      }
      ring_eventfd(loop.wake_fd);
      connections_total_->add(1);
    }
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    epoll_event events[16];
    const int n = epoll_wait(epoll_fd, events, 16, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bool accept_ready = false;
    bool admin_ready = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == acceptor_wake_fd_) {
        drain_eventfd(acceptor_wake_fd_);
      } else if (events[i].data.fd == admin_listen_fd_) {
        admin_ready = true;
      } else {
        accept_ready = true;
      }
    }
    if (accept_ready) drain_accepts(listen_fd_, false);
    if (admin_ready) drain_accepts(admin_listen_fd_, true);
  }
  close(epoll_fd);
}

void EpollServer::adopt_pending(Loop& loop) {
  std::vector<std::pair<int, bool>> fds;
  {
    const std::lock_guard lock(loop.pending_mu);
    fds.swap(loop.pending);
  }
  for (const auto& [fd, is_admin] : fds) {
    auto conn = std::make_unique<Conn>(fd);
    conn->accepted_micros = manager_.now_micros();
    if (is_admin) {
      conn->mode = Conn::Mode::kHttp;
      conn->http = std::make_unique<AdminConn>(*options_.admin);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      log_error() << "net: epoll_ctl add: " << std::strerror(errno);
      close(fd);
      continue;
    }
    loop.conns.emplace(fd, std::move(conn));
    connections_open_->add(1.0);
    loop_instruments_[loop.index].connections_open->add(1.0);
  }
}

void EpollServer::loop_main(Loop& loop) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // With the handshake reaper on, epoll_wait must return periodically even
  // on a silent loop — half the timeout, clamped to [1ms, 1s].
  int wait_ms = -1;
  if (options_.handshake_timeout_micros > 0) {
    wait_ms = static_cast<int>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(options_.handshake_timeout_micros / 2000,
                                   1000)));
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(loop.epoll_fd, events, kMaxEvents, wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_error() << "net: epoll_wait: " << std::strerror(errno);
      break;
    }
    if (options_.handshake_timeout_micros > 0) reap_stalled_handshakes(loop);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        drain_eventfd(loop.wake_fd);
        adopt_pending(loop);
        continue;
      }
      const auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        flush_writes(loop, conn);
        if (loop.conns.find(fd) == loop.conns.end()) continue;
        resume_reads(loop, conn);
      }
      if (loop.conns.find(fd) == loop.conns.end()) continue;
      if (events[i].events & (EPOLLIN | EPOLLRDHUP)) {
        handle_readable(loop, conn);
      }
    }
  }
}

void EpollServer::handle_readable(Loop& loop, Conn& conn) {
  // Edge-triggered: must read to EAGAIN or the event is lost — unless the
  // write backlog hits the high-water mark, in which case reads pause and
  // resume_reads() (off the EPOLLOUT drain) re-enters this path.
  const int fd = conn.fd;
  char buf[64 * 1024];
  if (CMARKOV_FAILPOINT("net.read_fail")) {
    // Model a hard socket read error (ECONNRESET mid-stream): the
    // connection closes, its session winds down through the conversation
    // object, and the rest of the loop is untouched.
    log_error() << "net: read failed (failpoint net.read_fail)";
    close_conn(loop, conn);
    return;
  }
  for (;;) {
    bool paused = false;
    for (;;) {
      if (conn.backlog() >= options_.outbuf_high_water) {
        conn.read_paused = true;
        paused = true;
        break;
      }
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        bytes_read_total_->add(static_cast<std::uint64_t>(n));
        loop_instruments_[loop.index].bytes_read->add(
            static_cast<std::uint64_t>(n));
        process_input(loop, conn, buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) {  // peer closed
        close_conn(loop, conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(loop, conn);
      return;
    }
    flush_writes(loop, conn);
    if (loop.conns.find(fd) == loop.conns.end()) return;  // closed in flush
    if (!paused) return;  // read to EAGAIN
    if (conn.backlog() >= options_.outbuf_high_water / 4) return;
    // The flush drained the backlog synchronously: keep reading, or bytes
    // already in the kernel buffer would wait for an edge that never fires.
    conn.read_paused = false;
  }
}

void EpollServer::resume_reads(Loop& loop, Conn& conn) {
  if (!conn.read_paused ||
      conn.backlog() >= options_.outbuf_high_water / 4) {
    return;
  }
  conn.read_paused = false;
  handle_readable(loop, conn);
}

void EpollServer::process_input(Loop& loop, Conn& conn, const char* data,
                                std::size_t size) {
  if (conn.mode == Conn::Mode::kHttp) {
    conn.inbuf.append(data, size);
    const bool keep_open = conn.http->consume(conn.inbuf, conn.outbuf);
    if (conn.http->requests_handled() > 0) conn.handshake_done = true;
    if (!keep_open) conn.want_close = true;
    return;
  }
  if (conn.mode == Conn::Mode::kUnknown) {
    conn.inbuf.append(data, size);
    static const char kMagicBytes[4] = {'C', 'M', 'K', 'B'};
    const std::size_t check = std::min<std::size_t>(conn.inbuf.size(), 4);
    if (std::memcmp(conn.inbuf.data(), kMagicBytes, check) != 0) {
      conn.mode = Conn::Mode::kText;
      conn.text = std::make_unique<ProtocolSession>(manager_);
    } else if (conn.inbuf.size() >= 4) {
      conn.mode = Conn::Mode::kBinary;
      conn.binary = std::make_unique<BinarySession>(manager_);
      conn.parser.feed(conn.inbuf.data(), conn.inbuf.size());
      conn.inbuf.clear();
      process_frames(loop, conn);
      return;
    } else {
      return;  // fewer than 4 bytes, all matching the magic prefix: wait
    }
    process_text(loop, conn);
    return;
  }
  if (conn.mode == Conn::Mode::kText) {
    conn.inbuf.append(data, size);
    process_text(loop, conn);
  } else {
    conn.parser.feed(data, size);
    process_frames(loop, conn);
  }
}

void EpollServer::process_text(Loop& loop, Conn& conn) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(conn.inbuf.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    text_lines_total_->add(1);
    loop_instruments_[loop.index].units->add(1);
    conn.handshake_done = true;
    const std::string response = conn.text->handle_line(line);
    if (!response.empty()) {
      conn.outbuf += response;
      conn.outbuf += '\n';
    }
    start = nl + 1;
    if (conn.text->closed()) {
      conn.want_close = true;
      break;
    }
  }
  conn.inbuf.erase(0, start);
}

void EpollServer::process_frames(Loop& loop, Conn& conn) {
  while (auto frame = conn.parser.next()) {
    frames_total_->add(1);
    loop_instruments_[loop.index].units->add(1);
    conn.handshake_done = true;
    const BinarySession::Output out =
        conn.binary->handle_frame(std::move(*frame));
    conn.outbuf += out.bytes;
    if (out.close) {
      conn.want_close = true;
      return;
    }
  }
  if (!conn.parser.error().empty() && !conn.want_close) {
    frame_errors_total_->add(1);
    log_debug() << "net: framing violation: " << conn.parser.error();
    conn.outbuf += encode_frame(FrameOp::kError, 0, conn.parser.error());
    conn.want_close = true;
  }
}

void EpollServer::flush_writes(Loop& loop, Conn& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    std::size_t len = conn.outbuf.size() - conn.outpos;
    // Model a kernel short write (tiny send buffer): one byte goes out,
    // the residue parks in outbuf and EPOLLOUT finishes the job — the
    // exact partial-flush machinery a slow reader exercises.
    const bool shortened = CMARKOV_FAILPOINT("net.write_short");
    if (shortened) len = 1;
    const ssize_t n = write(conn.fd, conn.outbuf.data() + conn.outpos, len);
    if (n > 0) {
      bytes_written_total_->add(static_cast<std::uint64_t>(n));
      loop_instruments_[loop.index].bytes_written->add(
          static_cast<std::uint64_t>(n));
      conn.outpos += static_cast<std::size_t>(n);
      if (shortened) {
        // Force update_interest to re-MOD the fd: with edge-triggered
        // epoll the socket never actually lost writability, so only a MOD
        // makes the next EPOLLOUT fire and the drain progress.
        conn.want_write = false;
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(loop, conn);  // peer gone mid-write
    return;
  }
  if (conn.outpos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
    if (conn.want_close) {
      close_conn(loop, conn);
      return;
    }
  } else if (conn.outpos >= 64 * 1024) {
    // Partial flush: drop the already-written prefix so a slowly-read
    // connection holds only its live backlog, not every byte ever sent.
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
  update_interest(loop, conn);
}

void EpollServer::update_interest(Loop& loop, Conn& conn) {
  const bool needs_write = conn.outpos < conn.outbuf.size();
  if (needs_write == conn.want_write) return;
  conn.want_write = needs_write;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  if (needs_write) ev.events |= EPOLLOUT;
  ev.data.fd = conn.fd;
  if (epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) < 0) {
    log_error() << "net: epoll_ctl mod: " << std::strerror(errno);
  }
}

void EpollServer::reap_stalled_handshakes(Loop& loop) {
  const double now = manager_.now_micros();
  if (now < loop.next_sweep_micros) return;
  const double timeout =
      static_cast<double>(options_.handshake_timeout_micros);
  // Sweep at most twice per timeout window: lateness is bounded by half a
  // window, and thousands of healthy connections aren't rescanned per tick.
  loop.next_sweep_micros = now + timeout / 2.0;
  std::vector<int> stalled;
  for (const auto& [fd, conn] : loop.conns) {
    if (!conn->handshake_done && now - conn->accepted_micros >= timeout) {
      stalled.push_back(fd);
    }
  }
  for (const int fd : stalled) {
    const auto it = loop.conns.find(fd);
    if (it == loop.conns.end()) continue;
    log_info() << "net: closing connection fd=" << fd
               << ": no handshake within "
               << options_.handshake_timeout_micros / 1000 << "ms";
    handshake_timeouts_total_->add(1);
    close_conn(loop, *it->second);
  }
}

void EpollServer::close_conn(Loop& loop, Conn& conn) {
  const int fd = conn.fd;
  epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  // Destroying the conversation object closes its session (drains first),
  // matching the text transport's disconnect semantics.
  loop.conns.erase(fd);
  close(fd);
  connections_open_->add(-1.0);
  loop_instruments_[loop.index].connections_open->add(-1.0);
}

}  // namespace cmarkov::serve::net
