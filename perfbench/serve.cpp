#include "serve.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "feeds.hpp"
#include "src/core/model_io.hpp"
#include "src/core/online_monitor.hpp"
#include "src/serve/net/frame.hpp"

namespace perfbench {

namespace net = cmarkov::serve::net;

namespace {

/// Batches a stream connection keeps unacknowledged (closed loop).
constexpr std::size_t kStreamWindow = 1;
constexpr std::size_t kConnections = 4;
/// cmarkovd's defaults: 2 shard workers, 1 epoll loop, 1 acceptor.
constexpr std::size_t kLoops = 1;
/// Daemons spawned only to time set-up, half before the measured phase and
/// half after it; the measured daemon adds one more sample. A start takes
/// tens of milliseconds, so the median of 25 costs about a second.
constexpr std::size_t kSetupDaemons = 24;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::map<std::string, std::string> parse_kv(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  std::string word;
  while (in >> word) {
    const auto eq = word.find('=');
    if (eq != std::string::npos) out[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return out;
}

std::uint64_t kv_u64(const std::map<std::string, std::string>& kv,
                     const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) throw std::runtime_error("reply lacks '" + key + "'");
  return std::stoull(it->second);
}

bool starts_with(const std::string& text, const char* prefix) {
  return text.rfind(prefix, 0) == 0;
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot find a free loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// A cmarkovd child process on a fresh loopback port.
class Daemon {
 public:
  Daemon(const ServeOptions& options, const std::vector<ModelSpec>& models)
      : port_(free_port()) {
    std::vector<std::string> args = {options.daemon};
    for (const ModelSpec& spec : models) {
      args.push_back("--model");
      args.push_back(spec.program + "=" + options.models_dir + "/" +
                     spec.key() + ".model");
    }
    for (const std::string& flag : daemon_flags(options.workload)) {
      args.push_back(flag);
    }
    args.push_back("--tcp");
    args.push_back(std::to_string(port_));
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    const int log_fd = ::open(options.log_path.c_str(),
                              O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log_fd < 0) throw std::runtime_error("cannot open " + options.log_path);
    const pid_t parent = ::getpid();
    spawned_at_ = now_s();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon dies with the benchmark, even if the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      const int null_fd = ::open("/dev/null", O_RDONLY);
      ::dup2(null_fd, 0);
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) {
      pid_ = -1;
      throw std::runtime_error("cannot fork for " + options.daemon);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  double spawned_at() const { return spawned_at_; }

  bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// `signal` (SIGTERM: a clean shutdown, which takes cmarkovd about 0.2 s),
  /// then SIGKILL if the daemon has not exited after 20 s; always reaps the
  /// child.
  void stop(int signal = SIGTERM) {
    if (pid_ <= 0) return;
    ::kill(pid_, signal);
    const double deadline = now_s() + 20.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_s() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::uint16_t port_;
  pid_t pid_ = -1;
  double spawned_at_ = 0.0;
};

/// Blocking frame client for the probe and METRICS connections.
class BlockingClient {
 public:
  /// Connects once; false when the listener is not up yet.
  bool connect(std::uint16_t port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    const sockaddr_in addr = loopback(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      close();
      return false;
    }
    return true;
  }
  ~BlockingClient() { close(); }
  BlockingClient() = default;
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends one frame and returns the reply's text; throws on a framing
  /// error, a kError frame or a closed connection.
  std::string call(net::FrameOp op, const std::string& payload) {
    const std::string bytes = net::encode_frame(op, 0, payload);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    while (true) {
      if (auto frame = parser_.next()) {
        if (frame->op != net::FrameOp::kReply) {
          throw std::runtime_error("error frame: " + frame->payload);
        }
        return frame->payload;
      }
      if (!parser_.error().empty()) throw std::runtime_error(parser_.error());
      char buffer[65536];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) throw std::runtime_error("connection closed before reply");
      parser_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  net::FrameParser parser_;
};

/// Seconds from spawning the daemon to its first HELLO answered. The probe
/// session is closed again before anything else runs.
double probe_setup(Daemon& daemon, const std::string& model) {
  BlockingClient client;
  while (!client.connect(daemon.port())) {
    if (!daemon.alive()) {
      throw std::runtime_error("cmarkovd exited during start-up (see log)");
    }
    if (now_s() - daemon.spawned_at() > 60.0) {
      throw std::runtime_error("cmarkovd did not listen within 60 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  // An explicit id, so the workload's server-assigned ids start at s1.
  const std::string hello = client.call(
      net::FrameOp::kHello, net::encode_hello_payload(model, "setup-probe", ""));
  const double setup = now_s() - daemon.spawned_at();
  if (!starts_with(hello, "OK session=")) {
    throw std::runtime_error("probe HELLO refused: " + hello);
  }
  client.call(net::FrameOp::kBye, "");
  return setup;
}

std::map<std::string, double> read_metrics(std::uint16_t port) {
  BlockingClient client;
  if (!client.connect(port)) throw std::runtime_error("METRICS connect failed");
  const std::string line = client.call(net::FrameOp::kMetrics, "");
  if (!starts_with(line, "METRICS ")) {
    throw std::runtime_error("METRICS refused: " + line);
  }
  std::map<std::string, double> out;
  for (const auto& [key, value] : parse_kv(line)) out[key] = std::stod(value);
  return out;
}

/// A METRICS key every cmarkovd exports from start-up. An absent key means
/// an instrument was renamed or dropped, which must not read as 0.
double metric(const std::map<std::string, double>& metrics,
              const std::string& key) {
  const auto it = metrics.find(key);
  if (it == metrics.end()) {
    throw std::runtime_error("METRICS reply lacks '" + key + "'");
  }
  return it->second;
}

// -- Per-thread CPU from /proc --------------------------------------------

struct ThreadCpu {
  long tid = 0;
  double cpu_s = 0.0;
};

/// The daemon's threads in creation order (ascending tid) with their
/// on-CPU time from schedstat (nanoseconds).
std::vector<ThreadCpu> read_threads(pid_t pid) {
  std::vector<ThreadCpu> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ThreadCpu thread;
    thread.tid = std::stol(entry.path().filename().string());
    std::ifstream in(entry.path() / "schedstat");
    double run_ns = 0.0;
    if (!(in >> run_ns)) continue;  // thread exited meanwhile
    thread.cpu_s = run_ns / 1e9;
    out.push_back(thread);
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadCpu& a, const ThreadCpu& b) { return a.tid < b.tid; });
  return out;
}

/// Role of each thread by creation order: main, then the shard workers,
/// then the epoll loops, then the acceptor.
struct Roles {
  std::size_t workers = 0;
  std::size_t loops = 0;
  std::size_t total() const { return 1 + workers + loops + 1; }
  bool is_worker(std::size_t i) const { return i >= 1 && i <= workers; }
  bool is_loop(std::size_t i) const {
    return i > workers && i <= workers + loops;
  }
  bool is_acceptor(std::size_t i) const { return i == workers + loops + 1; }
};

/// Blocking system calls of an idle daemon thread, as /proc/<tid>/syscall
/// numbers them.
struct SyscallNumbers {
  std::vector<std::string> sleep;  ///< nanosleep, clock_nanosleep
  std::vector<std::string> futex;
  std::vector<std::string> epoll;  ///< epoll_wait, epoll_pwait, epoll_pwait2
};

std::optional<SyscallNumbers> syscall_numbers() {
#if defined(__x86_64__)
  return SyscallNumbers{{"35", "230"}, {"202"}, {"232", "281", "441"}};
#elif defined(__aarch64__)
  return SyscallNumbers{{"101", "115"}, {"98"}, {"22", "441"}};
#else
  return std::nullopt;
#endif
}

bool one_of(const std::vector<std::string>& set, const std::string& value) {
  return std::find(set.begin(), set.end(), value) != set.end();
}

/// Checks the creation-order mapping against what each idle thread is
/// blocked in (/proc/<tid>/syscall): main sleeps, workers wait on a
/// condition variable (futex), the loops and the acceptor wait in epoll.
/// The third argument of the epoll wait, maxevents, tells a loop
/// (kLoopMaxEvents) from the acceptor (kAcceptorMaxEvents). Returns an
/// empty string when the mapping holds; anything it cannot check is an
/// error.
std::string verify_roles(pid_t pid, const Roles& roles) {
  // epoll_server.cpp: the acceptor waits for 16 events, a loop for 64.
  constexpr long kAcceptorMaxEvents = 16;
  constexpr long kLoopMaxEvents = 64;
  const std::optional<SyscallNumbers> numbers = syscall_numbers();
  if (!numbers) return "no syscall numbers for this architecture";
  std::string last;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::vector<ThreadCpu> threads = read_threads(pid);
    if (threads.size() != roles.total()) {
      last = "daemon has " + std::to_string(threads.size()) +
             " threads, expected " + std::to_string(roles.total());
    } else {
      last.clear();
      for (std::size_t i = 0; i < threads.size() && last.empty(); ++i) {
        const std::string path = "/proc/" + std::to_string(pid) + "/task/" +
                                 std::to_string(threads[i].tid) + "/syscall";
        std::ifstream in(path);
        std::string nr, arg0, arg1, arg2;
        if (!(in >> nr)) return "cannot read " + path;
        in >> arg0 >> arg1 >> arg2;
        long max_events = -1;
        if (!arg2.empty()) max_events = std::strtol(arg2.c_str(), nullptr, 16);
        const bool epoll = one_of(numbers->epoll, nr);
        const bool ok =
            i == 0               ? one_of(numbers->sleep, nr)
            : roles.is_worker(i) ? one_of(numbers->futex, nr)
            : roles.is_loop(i)   ? epoll && max_events == kLoopMaxEvents
                                 : epoll && max_events == kAcceptorMaxEvents;
        if (!ok) {
          last = "thread #" + std::to_string(i) + " blocked in syscall " + nr +
                 " (maxevents " + std::to_string(max_events) +
                 "), not its role's";
        }
      }
      if (last.empty()) return "";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return last;
}

struct CpuSplit {
  double main_s = 0.0;
  double workers_s = 0.0;
  double loops_s = 0.0;
  double acceptor_s = 0.0;
  double total_s = 0.0;
};

CpuSplit cpu_delta(const std::vector<ThreadCpu>& before,
                   const std::vector<ThreadCpu>& after, const Roles& roles) {
  if (before.size() != roles.total() || after.size() != roles.total()) {
    throw std::runtime_error("daemon thread set changed during the phase");
  }
  CpuSplit split;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double d = after[i].cpu_s - before[i].cpu_s;
    split.total_s += d;
    if (i == 0) {
      split.main_s += d;
    } else if (roles.is_worker(i)) {
      split.workers_s += d;
    } else if (roles.is_loop(i)) {
      split.loops_s += d;
    } else {
      split.acceptor_s += d;
    }
  }
  return split;
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

// -- Non-blocking connections polled by the one generator thread ----------

struct Conn {
  int fd = -1;
  net::FrameParser parser;
  std::string out;
  std::size_t out_pos = 0;

  ~Conn() { close(); }
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// `reset`: close with SO_LINGER 0, so neither end keeps the connection
  /// in TIME_WAIT (see run_runs).
  void close(bool reset = false) {
    if (fd >= 0 && reset) {
      const linger abort{1, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    }
    if (fd >= 0) ::close(fd);
    fd = -1;
    parser = net::FrameParser();
    out.clear();
    out_pos = 0;
  }

  /// Starts a non-blocking connect; false on immediate failure.
  bool open(std::uint16_t port) {
    close();
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const sockaddr_in addr = loopback(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      close();
      return false;
    }
    return true;
  }

  bool want_write() const { return out_pos < out.size(); }

  /// Writes what the socket takes; false on a connection error.
  bool flush() {
    while (out_pos < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      out_pos += static_cast<std::size_t>(n);
    }
    out.clear();
    out_pos = 0;
    return true;
  }

  void queue(const std::string& bytes) { out += bytes; }

  /// Reads what is available into the parser; false on EOF or error.
  bool fill() {
    char buffer[65536];
    while (true) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        parser.feed(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
};

/// Polls the open connections once; `ready[i]` gets the revents.
void poll_conns(const std::vector<Conn*>& conns, std::vector<short>& ready,
                int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (conns[i]->fd < 0) continue;
    short events = POLLIN;
    if (conns[i]->want_write()) events |= POLLOUT;
    fds.push_back({conns[i]->fd, events, 0});
    index.push_back(i);
  }
  ready.assign(conns.size(), 0);
  if (fds.empty()) return;
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  if (n < 0 && errno != EINTR) throw std::runtime_error("poll failed");
  for (std::size_t k = 0; k < fds.size(); ++k) ready[index[k]] = fds[k].revents;
}

// -- Oracle ----------------------------------------------------------------

struct Verdict {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t flagged = 0;
  std::uint64_t alarms = 0;
};

Verdict monitor_verdict(const cmarkov::core::OnlineMonitor& monitor) {
  const auto& stats = monitor.stats();
  return {stats.events_seen, stats.windows_scored, stats.windows_flagged,
          stats.alarms};
}

// -- Workloads -------------------------------------------------------------

/// Aggregate CPU time of this machine as /proc/stat counts it: user, nice,
/// system, idle, iowait, irq, softirq, steal (in clock ticks).
std::array<std::uint64_t, 8> host_cpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::array<std::uint64_t, 8> ticks{};
  in >> label;
  for (std::uint64_t& t : ticks) in >> t;
  if (!in || label != "cpu") throw std::runtime_error("cannot read /proc/stat");
  return ticks;
}

/// The measured phase, cut into one-second slices. Each slice also records
/// the share of this machine's CPU time the hypervisor gave to other guests
/// during it (steal). On a shared host that share comes in bursts, and it
/// slows these round-trip-bound workloads far more than its size: in one
/// runs phase, slices with 14% steal completed half as many runs as slices
/// with none. So the end-to-end figures are taken over the quieter half of
/// the slices, those with the least steal: they measure the program rather
/// than its neighbours, and a burst moves only the slices it hits.
struct Phase {
  double start = 0.0;
  double end = 0.0;
  double slice_s = 1.0;
  std::uint64_t events = 0;  ///< sum of BYE `processed`
  std::uint64_t units = 0;   ///< program runs scored
  std::vector<double> slice_events;
  std::vector<double> slice_units;
  std::vector<std::vector<double>> slice_latencies_ms;
  std::vector<double> slice_steal;
  double flagged_share = 0.0;
  std::uint64_t windows = 0;

  void begin(double now, double seconds) {
    start = now;
    const auto slices =
        static_cast<std::size_t>(std::max(1.0, std::floor(seconds)));
    slice_s = seconds / static_cast<double>(slices);
    slice_events.assign(slices, 0.0);
    slice_units.assign(slices, 0.0);
    slice_latencies_ms.assign(slices, {});
    slice_steal.assign(slices, 0.0);
    cpu_ = host_cpu();
    sampled_ = 0;
  }

  /// Closes the slices that ended before `now` with their steal share; the
  /// generator calls it on every turn of its loop.
  void sample_host(double now) {
    const auto ended = std::min(
        slice_steal.size(), static_cast<std::size_t>((now - start) / slice_s));
    if (sampled_ >= ended) return;
    const std::array<std::uint64_t, 8> cpu = host_cpu();
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < cpu.size(); ++k) total += cpu[k] - cpu_[k];
    const double steal =
        total > 0 ? static_cast<double>(cpu[7] - cpu_[7]) /
                        static_cast<double>(total)
                  : 0.0;
    for (; sampled_ < ended; ++sampled_) slice_steal[sampled_] = steal;
    cpu_ = cpu;
  }

  /// Work completed at `now` (an acknowledged batch or a verdict).
  void record(double now, double done_events, double done_units,
              double latency_ms) {
    const auto i = static_cast<std::size_t>((now - start) / slice_s);
    if (i >= slice_events.size()) return;  // after the deadline
    slice_events[i] += done_events;
    slice_units[i] += done_units;
    slice_latencies_ms[i].push_back(latency_ms);
  }

  /// The half of the slices with the least steal (ties: the earlier slice).
  std::vector<std::size_t> quiet_slices() const {
    std::vector<std::size_t> order(slice_steal.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return slice_steal[a] < slice_steal[b];
                     });
    order.resize((order.size() + 1) / 2);
    return order;
  }

  double quiet_rate(const std::vector<double>& per_slice) const {
    const std::vector<std::size_t> quiet = quiet_slices();
    double sum = 0.0;
    for (const std::size_t i : quiet) sum += per_slice[i];
    return sum / (slice_s * static_cast<double>(quiet.size()));
  }

  double quiet_latency_quantile(double q) const {
    std::vector<double> values;
    for (const std::size_t i : quiet_slices()) {
      values.insert(values.end(), slice_latencies_ms[i].begin(),
                    slice_latencies_ms[i].end());
    }
    return quantile(values, q);
  }

  /// Median over the quiet slices of each slice's latency quantile q.
  double quiet_slice_quantile(double q) const {
    std::vector<double> values;
    for (const std::size_t i : quiet_slices()) {
      if (!slice_latencies_ms[i].empty()) {
        values.push_back(quantile(slice_latencies_ms[i], q));
      }
    }
    return quantile(values, 0.5);
  }

  double mean_steal(const std::vector<std::size_t>& slices) const {
    double sum = 0.0;
    for (const std::size_t i : slices) sum += slice_steal[i];
    return slices.empty() ? 0.0 : sum / static_cast<double>(slices.size());
  }

 private:
  std::array<std::uint64_t, 8> cpu_{};
  std::size_t sampled_ = 0;
};

class ServeRun {
 public:
  ServeRun(const ServeOptions& options, Report& report)
      : options_(options), report_(report) {
    for (const ModelSpec& spec : serve_models(options.workload)) {
      detectors_.emplace(spec.program,
                         cmarkov::core::load_detector_file(
                             options.models_dir + "/" + spec.key() + ".model"));
    }
    monitor_options_ = daemon_config(options.workload).monitor;
  }

  /// Spawns the measured daemon, runs its phase, stops it.
  void run() {
    const auto models = serve_models(options_.workload);
    // Probe daemons have nothing to flush; SIGKILL saves the clean
    // shutdown's 0.2 s each.
    std::vector<double> setups;
    const auto time_setups = [&](std::size_t count) {
      for (std::size_t i = 0; i < count; ++i) {
        Daemon daemon(options_, models);
        setups.push_back(probe_setup(daemon, models.front().program));
        daemon.stop(SIGKILL);
      }
    };
    time_setups(kSetupDaemons / 2);
    Daemon daemon(options_, models);
    setups.push_back(probe_setup(daemon, models.front().program));

    Roles roles;
    roles.workers = cmarkov::serve::ServiceConfig{}.num_workers;
    roles.loops = kLoops;
    if (const std::string bad = verify_roles(daemon.pid(), roles);
        !bad.empty()) {
      throw std::runtime_error("thread roles: " + bad);
    }

    port_ = daemon.port();
    Phase phase;
    std::vector<ThreadCpu> before, after;
    if (options_.workload == "stream") {
      run_stream(daemon.pid(), phase, before, after);
    } else {
      run_runs(daemon.pid(), phase, before, after);
    }
    const std::map<std::string, double> metrics = read_metrics(port_);
    const double rss = vm_hwm_mb(daemon.pid());
    daemon.stop();
    ++report_.attempted;  // the METRICS read
    time_setups(kSetupDaemons - kSetupDaemons / 2);
    report_.set("setup_s", quantile(setups, 0.5), "s", setups.size());

    const double wall = phase.end - phase.start;
    const auto events = static_cast<double>(std::max<std::uint64_t>(1, phase.events));
    const std::vector<std::size_t> quiet = phase.quiet_slices();
    std::uint64_t quiet_samples = 0;
    for (const std::size_t i : quiet) {
      quiet_samples += phase.slice_latencies_ms[i].size();
    }
    report_.set("events_per_s", phase.quiet_rate(phase.slice_events), "1/s",
                phase.events);
    if (options_.workload == "stream") {
      // A stream trace completes only as a share of the event flow;
      // run.py derives runs_per_s from this.
      report_.set("phase.runs_per_event",
                  static_cast<double>(phase.units) / events, "ratio",
                  phase.units);
    } else {
      report_.set("runs_per_s", phase.quiet_rate(phase.slice_units), "1/s",
                  phase.units);
    }
    report_.set("verdict_p50_ms", phase.quiet_latency_quantile(0.50), "ms",
                quiet_samples);
    report_.set("verdict_p99_ms", phase.quiet_slice_quantile(0.99), "ms",
                quiet_samples);
    std::vector<std::size_t> all(phase.slice_steal.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    report_.set("phase.steal_share", phase.mean_steal(all), "ratio",
                all.size());
    report_.set("phase.quiet_steal_share", phase.mean_steal(quiet), "ratio",
                quiet.size());
    report_.set("phase.events_per_s", static_cast<double>(phase.events) / wall,
                "1/s", phase.events);
    report_.set("phase.runs_per_s", static_cast<double>(phase.units) / wall,
                "1/s", phase.units);
    report_.set("rss_peak_mb", rss, "MiB", 1);
    report_.set("phase_s", wall, "s", 1);

    const CpuSplit cpu = cpu_delta(before, after, roles);
    report_.set("net.loop_cpu_share", cpu.loops_s / wall / kLoops, "ratio", 1);
    report_.set("net.loop_us_per_event", cpu.loops_s * 1e6 / events, "us",
                phase.events);
    report_.set("net.acceptor_cpu_share", cpu.acceptor_s / wall, "ratio", 1);
    report_.set("serve.worker_cpu_share",
                cpu.workers_s / wall / static_cast<double>(roles.workers),
                "ratio", roles.workers);
    report_.set("serve.worker_us_per_event", cpu.workers_s * 1e6 / events,
                "us", phase.events);
    report_.set("daemon.cpu_us_per_event", cpu.total_s * 1e6 / events, "us",
                phase.events);

    const double processed =
        metric(metrics, "cmarkov_serve_events_processed_total");
    report_.set("net.bytes_per_event",
                metric(metrics, "cmarkov_net_bytes_read_total") /
                    std::max(1.0, processed),
                "B", static_cast<std::uint64_t>(processed));
    const double latency_count =
        metric(metrics, "cmarkov_serve_latency_micros_count");
    report_.set("serve.queue_wait_mean_us",
                metric(metrics, "cmarkov_serve_latency_micros_sum") /
                    std::max(1.0, latency_count),
                "us", static_cast<std::uint64_t>(latency_count));
    double shard_max = 0.0, shard_sum = 0.0;
    for (std::size_t w = 0; w < roles.workers; ++w) {
      const double v = metric(
          metrics, "cmarkov_serve_shard_processed_total_w" + std::to_string(w));
      shard_max = std::max(shard_max, v);
      shard_sum += v;
    }
    report_.set("serve.shard_skew",
                shard_sum > 0 ? shard_max * static_cast<double>(roles.workers) /
                                    shard_sum
                              : 0.0,
                "ratio", roles.workers);
    const double transitions =
        metric(metrics, "cmarkov_serve_overload_transitions_total");
    const double shed_traces =
        metric(metrics, "cmarkov_serve_overload_shed_traces_total");
    report_.set("serve.overload_transitions", transitions, "count", 1);
    report_.set("serve.shed_traces", shed_traces, "count", 1);
    report_.set("serve.shed_hellos",
                metric(metrics, "cmarkov_serve_overload_shed_hellos_total"),
                "count", 1);
    if (options_.workload == "stream" && (transitions > 0 || shed_traces > 0)) {
      // A raised ladder suspends sampled auditing: the run did not measure
      // the production configuration stream is defined by. daemon_flags()
      // turns the ladder off for stream; this checks that it stayed off.
      report_.error("overload ladder moved during stream (transitions=" +
                    std::to_string(transitions) + ", shed traces=" +
                    std::to_string(shed_traces) + ")");
    }
    report_.set("serve.kernel_build_us",
                metric(metrics, "cmarkov_serve_kernel_build_micros_sum"),
                "us",
                static_cast<std::uint64_t>(metric(
                    metrics, "cmarkov_serve_kernel_build_micros_count")));
    const double windows = metric(metrics, "cmarkov_serve_windows_total");
    report_.set("core.kernel_window_share",
                metric(metrics, "cmarkov_serve_kernel_windows_total") /
                    std::max(1.0, windows),
                "ratio", static_cast<std::uint64_t>(windows));
    report_.set("core.flagged_window_share", phase.flagged_share, "ratio",
                phase.windows);
    report_.set("obs.audit_records_per_kevent",
                (metric(metrics, "cmarkov_trace_decisions_total") +
                 metric(metrics,
                                "cmarkov_trace_decisions_dropped_total")) *
                    1000.0 / std::max(1.0, processed),
                "1/kevent", static_cast<std::uint64_t>(processed));
  }

 private:
  // stream: four long-lived sessions, closed loop with kStreamWindow
  // batches unacknowledged per connection.
  void run_stream(pid_t pid, Phase& phase, std::vector<ThreadCpu>& before,
                  std::vector<ThreadCpu>& after) {
    const std::vector<StreamFeed> feeds = make_stream_feeds(options_.seed);
    enum class State { kHello, kStreaming, kStats, kBye, kDone, kDead };
    struct Stream {
      Conn conn;
      std::unique_ptr<FeedCursor> cursor;
      State state = State::kHello;
      std::deque<double> sent_at;  // send times of unacknowledged batches
      std::uint64_t events_sent = 0;
      std::map<std::string, std::string> stats;
      std::map<std::string, std::string> bye;
    };
    std::vector<std::unique_ptr<Stream>> streams;
    std::vector<Conn*> conns;
    for (std::size_t i = 0; i < kConnections; ++i) {
      auto s = std::make_unique<Stream>();
      s->cursor = std::make_unique<FeedCursor>(feeds[i % feeds.size()]);
      if (!s->conn.open(port_)) {
        throw std::runtime_error("stream connect failed");
      }
      conns.push_back(&s->conn);
      streams.push_back(std::move(s));
    }
    // One HELLO at a time, so session i gets id s<i+1> and with it the
    // shard feeds.cpp pairs its model on.
    const auto send_hello = [&](std::size_t i) {
      ++report_.attempted;
      streams[i]->conn.queue(net::encode_frame(
          net::FrameOp::kHello, 0,
          net::encode_hello_payload(feeds[i % feeds.size()].model, "", "")));
    };
    send_hello(0);

    double deadline = 0.0;
    bool measuring = false;
    Events batch;
    const auto send_batch = [&](Stream& s) {
      batch.clear();
      s.cursor->next(kBatchEvents, batch);
      s.conn.queue(net::encode_frame(net::FrameOp::kEventBatch, 0,
                                     net::encode_event_batch_payload(batch)));
      s.sent_at.push_back(now_s());
      s.events_sent += batch.size();
      ++report_.attempted;
    };
    const auto kill = [&](Stream& s, const std::string& why) {
      report_.fail(why);
      report_.failed += s.sent_at.size();  // batches never acknowledged
      s.sent_at.clear();
      if (s.state == State::kHello) {
        // The later sessions never get to send their HELLO.
        for (auto& later : streams) {
          if (later.get() == &s || later->state != State::kHello) continue;
          ++report_.attempted;
          report_.fail("HELLO not sent: an earlier stream HELLO failed");
          later->state = State::kDead;
          later->conn.close();
        }
      }
      s.state = State::kDead;
      s.conn.close();
    };
    const auto start_phase = [&] {
      measuring = true;
      before = read_threads(pid);
      phase.begin(now_s(), options_.seconds);
      deadline = phase.start + options_.seconds;
      for (auto& s : streams) {
        if (s->state != State::kStreaming) continue;
        for (std::size_t k = 0; k < kStreamWindow; ++k) send_batch(*s);
      }
    };

    std::vector<short> ready;
    while (true) {
      std::size_t hello_pending = 0, active = 0;
      for (auto& s : streams) {
        if (s->state == State::kHello) ++hello_pending;
        if (s->state != State::kDone && s->state != State::kDead) ++active;
      }
      if (!measuring && hello_pending == 0) start_phase();
      if (active == 0) break;
      for (auto& s : streams) {
        if (s->conn.fd >= 0 && s->conn.want_write() && !s->conn.flush()) {
          kill(*s, "stream write failed");
        }
      }
      poll_conns(conns, ready, 20);
      const double now = now_s();
      if (measuring) phase.sample_host(now);
      for (std::size_t i = 0; i < streams.size(); ++i) {
        Stream& s = *streams[i];
        if (s.conn.fd < 0 || ready[i] == 0) continue;
        if ((ready[i] & POLLOUT) && !s.conn.flush()) {
          kill(s, "stream write failed");
          continue;
        }
        if (!(ready[i] & (POLLIN | POLLHUP | POLLERR))) continue;
        const bool open = s.conn.fill();
        while (s.state != State::kDead) {
          std::optional<net::Frame> frame = s.conn.parser.next();
          if (!frame) break;
          if (frame->op != net::FrameOp::kReply) {
            kill(s, "error frame: " + frame->payload);
            break;
          }
          const std::string& line = frame->payload;
          if (s.state == State::kHello) {
            if (!starts_with(line, "OK session=")) {
              kill(s, "HELLO refused: " + line);
              break;
            }
            const std::string id = parse_kv(line)["session"];
            if (id != "s" + std::to_string(i + 1)) {
              throw std::runtime_error(
                  "stream session " + std::to_string(i) + " got id '" + id +
                  "', not s" + std::to_string(i + 1) +
                  ": not the shard layout stream is defined by");
            }
            s.state = State::kStreaming;
            if (i + 1 < streams.size()) send_hello(i + 1);
          } else if (s.state == State::kStreaming) {
            if (s.sent_at.empty()) {
              kill(s, "unexpected reply: " + line);
              break;
            }
            phase.record(now, kBatchEvents, 0, (now - s.sent_at.front()) * 1e3);
            s.sent_at.pop_front();
            const auto kv = parse_kv(line);
            if (!starts_with(line, "OK n=") ||
                kv_u64(kv, "n") != kBatchEvents || kv_u64(kv, "dropped") != 0 ||
                kv_u64(kv, "rejected") != 0) {
              report_.fail("batch not fully accepted: " + line);
            }
            if (now < deadline) send_batch(s);
          } else if (s.state == State::kStats) {
            if (!starts_with(line, "STATS ")) {
              kill(s, "STATS refused: " + line);
              break;
            }
            s.stats = parse_kv(line);
            s.state = State::kBye;
          } else if (s.state == State::kBye) {
            if (!starts_with(line, "OK session=")) {
              kill(s, "BYE refused: " + line);
              break;
            }
            s.bye = parse_kv(line);
            s.state = State::kDone;
            s.conn.close();
            break;
          }
        }
        if (!open && s.state != State::kDone && s.state != State::kDead) {
          kill(s, "connection closed by server");
        }
      }
      // Past the deadline each stream asks for STATS once its last batch is
      // acknowledged; STATS drains, so the last reply ends the phase with
      // every sent event scored.
      if (measuring && now_s() >= deadline) {
        bool all_settled = true;
        for (auto& s : streams) {
          if (s->state == State::kStreaming && s->sent_at.empty()) {
            ++report_.attempted;
            s->conn.queue(net::encode_frame(net::FrameOp::kStats, 0, ""));
            s->state = State::kStats;
          }
          if (s->state == State::kStreaming || s->state == State::kStats) {
            all_settled = false;
          }
        }
        if (all_settled && phase.end == 0.0) {
          phase.end = now_s();
          phase.sample_host(phase.end);
          after = read_threads(pid);
          for (auto& s : streams) {
            if (s->state != State::kBye) continue;
            ++report_.attempted;
            s->conn.queue(net::encode_frame(net::FrameOp::kBye, 0, ""));
          }
        }
      }
    }
    if (!measuring || phase.end == 0.0) {
      throw std::runtime_error("stream phase did not complete");
    }

    // Oracle: a standalone OnlineMonitor per session with the daemon's
    // monitor options, fed the same events (one thread per session).
    std::vector<Verdict> expected(streams.size());
    std::vector<std::string> oracle_errors(streams.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (streams[i]->state != State::kDone) continue;
      threads.emplace_back([&, i] {
        try {
          const StreamFeed& feed = feeds[i % feeds.size()];
          cmarkov::core::OnlineMonitor monitor(detectors_.at(feed.model),
                                               nullptr, monitor_options_);
          FeedCursor cursor(feed);
          Events chunk;
          for (std::uint64_t fed = 0; fed < streams[i]->events_sent;) {
            chunk.clear();
            const auto n = std::min<std::uint64_t>(
                4096, streams[i]->events_sent - fed);
            cursor.next(n, chunk);
            for (CallEvent& event : chunk) monitor.on_event(std::move(event));
            fed += n;
          }
          expected[i] = monitor_verdict(monitor);
        } catch (const std::exception& e) {
          oracle_errors[i] = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::uint64_t windows = 0, flagged = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Stream& s = *streams[i];
      if (s.state != State::kDone) continue;
      if (!oracle_errors[i].empty()) {
        report_.error("oracle: " + oracle_errors[i]);
        continue;
      }
      const Verdict got{kv_u64(s.bye, "processed"), kv_u64(s.stats, "windows"),
                        kv_u64(s.stats, "flagged"), kv_u64(s.bye, "alarms")};
      const Verdict& want = expected[i];
      if (got.events != s.events_sent || got.events != want.events ||
          got.windows != want.windows || got.flagged != want.flagged ||
          got.alarms != want.alarms) {
        std::ostringstream msg;
        msg << "stream session " << i << ": daemon processed=" << got.events
            << " windows=" << got.windows << " flagged=" << got.flagged
            << " alarms=" << got.alarms << ", sent=" << s.events_sent
            << ", oracle windows=" << want.windows
            << " flagged=" << want.flagged << " alarms=" << want.alarms;
        report_.error(msg.str());
      }
      phase.events += got.events;
      phase.units += s.cursor->traces_completed();
      windows += got.windows;
      flagged += got.flagged;
    }
    phase.windows = windows;
    phase.flagged_share =
        windows > 0 ? static_cast<double>(flagged) / static_cast<double>(windows)
                    : 0.0;
  }

  // runs: each connection repeatedly connects, writes HELLO + one run's
  // batches + BYE in one write, and waits for the BYE verdict. It then
  // closes with a reset: at thousands of connections per second between
  // two fixed addresses, TIME_WAIT entries (kept 60 s) crowd the ephemeral
  // port space, and connect() slowed 2-3x within seconds and across
  // back-to-back runs. A reset leaves no TIME_WAIT on either end.
  void run_runs(pid_t pid, Phase& phase, std::vector<ThreadCpu>& before,
                std::vector<ThreadCpu>& after) {
    const RunsPlan plan = make_runs_plan(options_.seed);
    // Expected verdict of every distinct run, from a fresh monitor each.
    std::vector<Verdict> expected;
    std::vector<std::string> encoded;
    for (const RunInput& run : plan.pool) {
      cmarkov::core::OnlineMonitor monitor(detectors_.at(run.model), nullptr,
                                           monitor_options_);
      for (const CallEvent& event : run.events) monitor.on_event(event);
      expected.push_back(monitor_verdict(monitor));
      encoded.push_back(encode_run(run));
    }
    RunOrder order(plan);

    enum class State { kIdle, kConnecting, kActive };
    struct Slot {
      Conn conn;
      State state = State::kIdle;
      std::size_t run = 0;
      double started = 0.0;
      std::size_t replies = 0;
      std::size_t expected_replies = 0;
      bool failed = false;
    };
    std::vector<std::unique_ptr<Slot>> slots;
    for (std::size_t i = 0; i < kConnections; ++i) {
      slots.push_back(std::make_unique<Slot>());
    }
    std::uint64_t windows = 0, flagged = 0;

    const auto begin_write = [&](Slot& s) {
      s.state = State::kActive;
      s.started = now_s();
      s.conn.queue(encoded[s.run]);
      if (!s.conn.flush()) {
        report_.fail("run write failed");
        s.conn.close();
        s.state = State::kIdle;
      }
    };
    const auto start = [&](Slot& s) {
      s.run = order.next();
      s.replies = 0;
      s.expected_replies = 2 + batch_count(plan.pool[s.run].events.size());
      s.failed = false;
      ++report_.attempted;
      if (!s.conn.open(port_)) {
        report_.fail("connect failed");
        s.state = State::kIdle;
        return;
      }
      s.state = State::kConnecting;
    };
    const auto finish = [&](Slot& s) {
      s.conn.close(/*reset=*/true);
      s.state = State::kIdle;
    };

    before = read_threads(pid);
    phase.begin(now_s(), options_.seconds);
    const double deadline = phase.start + options_.seconds;
    std::vector<short> ready;
    while (true) {
      const bool open_more = now_s() < deadline;
      std::size_t busy = 0;
      for (auto& s : slots) {
        if (s->state == State::kIdle && open_more) start(*s);
        if (s->state != State::kIdle) ++busy;
      }
      if (busy == 0) break;
      // A connecting socket is polled for writability only.
      std::vector<pollfd> fds;
      std::vector<std::size_t> index;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        Slot& s = *slots[i];
        if (s.state == State::kIdle) continue;
        short events = s.state == State::kConnecting ? POLLOUT : POLLIN;
        if (s.state == State::kActive && s.conn.want_write()) events |= POLLOUT;
        fds.push_back({s.conn.fd, events, 0});
        index.push_back(i);
      }
      if (::poll(fds.data(), fds.size(), 20) < 0 && errno != EINTR) {
        throw std::runtime_error("poll failed");
      }
      phase.sample_host(now_s());
      for (std::size_t k = 0; k < fds.size(); ++k) {
        Slot& s = *slots[index[k]];
        const short revents = fds[k].revents;
        if (revents == 0) continue;
        if (s.state == State::kConnecting) {
          int err = 0;
          socklen_t len = sizeof(err);
          ::getsockopt(s.conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            report_.fail(std::string("connect failed: ") + std::strerror(err));
            finish(s);
          } else {
            begin_write(s);
          }
          continue;
        }
        if ((revents & POLLOUT) && !s.conn.flush()) {
          report_.fail("run write failed");
          finish(s);
          continue;
        }
        if (!(revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const bool open = s.conn.fill();
        bool done = false;
        while (!done) {
          std::optional<net::Frame> frame = s.conn.parser.next();
          if (!frame) break;
          if (frame->op != net::FrameOp::kReply) {
            report_.fail("error frame: " + frame->payload);
            finish(s);
            done = true;
            break;
          }
          const std::string& line = frame->payload;
          const std::size_t at = s.replies++;
          const RunInput& run = plan.pool[s.run];
          if (at == 0) {
            if (!starts_with(line, "OK session=")) {
              s.failed = true;
              report_.fail("HELLO refused: " + line);
            }
          } else if (at + 1 < s.expected_replies) {
            const std::size_t first = (at - 1) * kBatchEvents;
            const std::size_t n =
                std::min(kBatchEvents, run.events.size() - first);
            const auto kv = parse_kv(line);
            if (!s.failed &&
                (!starts_with(line, "OK n=") || kv_u64(kv, "n") != n ||
                 kv_u64(kv, "rejected") != 0 || kv_u64(kv, "dropped") != 0)) {
              s.failed = true;
              report_.fail("batch not fully accepted: " + line);
            }
          } else {
            if (!s.failed && !starts_with(line, "OK session=")) {
              s.failed = true;
              report_.fail("BYE refused: " + line);
            }
            if (!s.failed) {
              const auto kv = parse_kv(line);
              const Verdict& want = expected[s.run];
              const std::uint64_t processed = kv_u64(kv, "processed");
              const std::uint64_t alarms = kv_u64(kv, "alarms");
              if (processed != run.events.size() ||
                  processed != want.events || alarms != want.alarms) {
                report_.error("run " + std::to_string(s.run) + ": daemon " +
                              line + ", oracle alarms=" +
                              std::to_string(want.alarms) + " events=" +
                              std::to_string(want.events));
              }
              const double now = now_s();
              phase.record(now, static_cast<double>(processed), 1,
                           (now - s.started) * 1e3);
              phase.events += processed;
              phase.units += 1;
              windows += want.windows;
              flagged += want.flagged;
            }
            finish(s);
            done = true;
          }
        }
        if (!done && !open) {
          if (!s.failed) report_.fail("connection closed before the verdict");
          finish(s);
        }
      }
    }
    phase.end = now_s();
    phase.sample_host(phase.end);
    after = read_threads(pid);
    phase.windows = windows;
    phase.flagged_share =
        windows > 0 ? static_cast<double>(flagged) / static_cast<double>(windows)
                    : 0.0;
  }

  const ServeOptions& options_;
  Report& report_;
  std::map<std::string, cmarkov::core::Detector> detectors_;
  cmarkov::core::MonitorOptions monitor_options_;
  std::uint16_t port_ = 0;
};

}  // namespace

void run_serve(const ServeOptions& options, Report& report) {
  ServeRun(options, report).run();
}

}  // namespace perfbench
