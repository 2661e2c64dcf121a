// Text serialization of traces in an strace-like line format:
//
//   # program: gzip
//   sys read 0x40012c [fill_window]
//   lib memcpy 0x400188 [deflate_block]
//
// One event per line: stream tag, call name, hexadecimal site address and,
// when the trace has been symbolized, the caller in brackets. The format
// round-trips through parse_trace and is what the CLI's `trace` and `scan`
// commands exchange. Like strace output, it carries 1-level context only;
// the 2-level (grandparent) extension fields are not serialized.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/trace/event.hpp"

namespace cmarkov::trace {

class TraceFormatError : public std::runtime_error {
 public:
  TraceFormatError(const std::string& message, std::size_t line);

  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Writes a trace (one event per line, header comment with the program
/// name).
void write_trace(std::ostream& out, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Parses the format back. Unsymbolized events (no bracket part) get an
/// empty caller. Throws TraceFormatError with a 1-based line number.
Trace parse_trace(std::istream& in);
Trace parse_trace(const std::string& text);
Trace read_trace_file(const std::string& path);

}  // namespace cmarkov::trace
