#include "src/trace/trace_io.hpp"

#include <fstream>
#include <sstream>

#include "src/util/strings.hpp"

namespace cmarkov::trace {

TraceFormatError::TraceFormatError(const std::string& message,
                                   std::size_t line)
    : std::runtime_error(message + " at line " + std::to_string(line)),
      line_(line) {}

void write_trace(std::ostream& out, const Trace& trace) {
  out << "# program: " << trace.program << "\n";
  for (const auto& event : trace.events) {
    out << (event.kind == ir::CallKind::kSyscall ? "sys" : "lib") << " "
        << event.name << " 0x" << std::hex << event.site_address << std::dec;
    if (!event.caller.empty()) {
      out << " [" << event.caller << "]";
    }
    out << "\n";
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_trace_file: cannot open '" + path + "'");
  }
  write_trace(out, trace);
}

Trace parse_trace(std::istream& in) {
  Trace trace;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      constexpr std::string_view kProgramTag = "# program:";
      if (starts_with(trimmed, kProgramTag)) {
        trace.program = std::string(trim(trimmed.substr(kProgramTag.size())));
      }
      continue;  // other comments ignored
    }

    std::istringstream fields{std::string(trimmed)};
    std::string kind_tag;
    std::string name;
    std::string address_text;
    if (!(fields >> kind_tag >> name >> address_text)) {
      throw TraceFormatError("malformed event line", line_number);
    }
    CallEvent event;
    if (kind_tag == "sys") {
      event.kind = ir::CallKind::kSyscall;
    } else if (kind_tag == "lib") {
      event.kind = ir::CallKind::kLibcall;
    } else {
      throw TraceFormatError("unknown stream tag '" + kind_tag + "'",
                             line_number);
    }
    event.name = std::move(name);
    if (!starts_with(address_text, "0x")) {
      throw TraceFormatError("address must start with 0x", line_number);
    }
    try {
      std::size_t consumed = 0;
      event.site_address = std::stoull(address_text.substr(2), &consumed, 16);
      if (consumed != address_text.size() - 2) {
        throw TraceFormatError("trailing junk in address", line_number);
      }
    } catch (const std::invalid_argument&) {
      throw TraceFormatError("invalid hexadecimal address", line_number);
    } catch (const std::out_of_range&) {
      throw TraceFormatError("address out of range", line_number);
    }

    std::string rest;
    std::getline(fields, rest);
    const std::string_view caller_part = trim(rest);
    if (!caller_part.empty()) {
      if (caller_part.front() != '[' || caller_part.back() != ']') {
        throw TraceFormatError("caller must be bracketed", line_number);
      }
      event.caller =
          std::string(caller_part.substr(1, caller_part.size() - 2));
    }
    trace.events.push_back(std::move(event));
  }
  return trace;
}

Trace parse_trace(const std::string& text) {
  std::istringstream in(text);
  return parse_trace(in);
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_trace_file: cannot open '" + path + "'");
  }
  return parse_trace(in);
}

}  // namespace cmarkov::trace
