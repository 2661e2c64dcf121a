#include "src/serve/protocol.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/util/strings.hpp"

namespace cmarkov::serve {

namespace {

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> words;
  std::istringstream stream{std::string(line)};
  std::string word;
  while (stream >> word) words.push_back(std::move(word));
  return words;
}

[[noreturn]] void fail(std::string reason) {
  throw std::invalid_argument(std::move(reason));
}

/// Detaches a trailing "tid=<id>" token into `tid`. The id may not be
/// empty: "tid=" alone is a usage error.
void take_trace_id(std::vector<std::string>& words, std::string& tid,
                   const char* usage) {
  if (words.size() < 2 || words.back().rfind("tid=", 0) != 0) return;
  tid = words.back().substr(4);
  words.pop_back();
  if (tid.empty()) fail(usage);
}

/// Decodes one non-blank line. Throws std::invalid_argument carrying the
/// ERR reason when the line is malformed.
Request decode(std::vector<std::string> words) {
  const std::string& command = words.front();  // pop_back keeps it valid
  std::string tid;
  if (command == "HELLO") {
    constexpr char kUsage[] = "usage: HELLO <model> [session-id] [tid=<id>]";
    take_trace_id(words, tid, kUsage);
    if (words.size() < 2 || words.size() > 3) fail(kUsage);
    return Hello{words[1], words.size() == 3 ? words[2] : "", tid};
  }
  if (command == "EV") {
    constexpr char kUsage[] = "usage: EV <site> <callee> [sys|lib] [tid=<id>]";
    take_trace_id(words, tid, kUsage);
    if (words.size() < 3 || words.size() > 4) fail(kUsage);
    ir::CallKind kind = ir::CallKind::kSyscall;  // sys: the default
    if (words.size() == 4 && words[3] != "sys") {
      if (words[3] != "lib") {
        fail("unknown call kind '" + words[3] + "' (sys|lib)");
      }
      kind = ir::CallKind::kLibcall;
    }
    if (words[1].size() > 0xffff || words[2].size() > 0xffff) {
      fail("site and callee are limited to 65535 bytes");
    }
    Events batch{EventBatch(), tid};
    batch.events.append(kind, words[1], words[2]);
    return batch;
  }
  if (command == "STATS") return Stats{};
  if (command == "METRICS") return Metrics{};
  if (command == "TRACE") {
    if (words.size() == 1) return Trace{};
    const std::string& arg = words[1];
    std::size_t n = 0;
    const char* last = arg.data() + arg.size();
    const auto [end, ec] = std::from_chars(arg.data(), last, n);
    if (words.size() > 2 || ec != std::errc() || end != last) {
      fail("usage: TRACE [n]");
    }
    return Trace{n};
  }
  if (command == "EVICT") return Evict{};
  if (command == "RELOAD") {
    if (words.size() != 3) fail("usage: RELOAD <model> <path>");
    return Reload{words[1], words[2]};
  }
  if (command == "FAILPOINT") {
    if (words.size() == 1) return Failpoint{};
    if (words.size() != 3) {
      fail("usage: FAILPOINT [<name> <off|always|once|every:N|after:N>]");
    }
    const auto spec = util::parse_failpoint_spec(words[2]);
    if (!spec) {
      fail("bad failpoint spec '" + words[2] +
           "' (off|always|once|every:N|after:N)");
    }
    return Failpoint{words[1], *spec};
  }
  if (command == "BYE") return Bye{};
  fail("unknown command '" + command + "'");
}

}  // namespace

std::string ProtocolSession::handle_line(std::string_view line) {
  const std::string_view trimmed = trim(line);
  if (trimmed.empty() || trimmed.front() == '#') return "";
  Request request;
  try {
    request = decode(tokenize(trimmed));
  } catch (const std::invalid_argument& e) {
    return std::string("ERR ") + e.what();
  }
  const Events* events = std::get_if<Events>(&request);
  const bool per_event = events != nullptr;
  const std::string echo = per_event && !events->tid.empty()
                               ? " tid=" + events->tid
                               : std::string();
  const Reply reply = conversation_.handle(std::move(request));
  if (!per_event || !reply.text.empty()) return reply.text;
  if (reply.rejected != 0) return "ERR rejected queue-full";
  return (reply.dropped != 0 ? "OK dropped-oldest" : "OK") + echo;
}

void serve_stream(SessionManager& manager, std::istream& in,
                  std::ostream& out) {
  ProtocolSession session(manager);
  std::string line;
  while (!session.closed() && std::getline(in, line)) {
    const std::string response = session.handle_line(line);
    if (!response.empty()) {
      out << response << "\n";
      out.flush();
    }
  }
}

}  // namespace cmarkov::serve
