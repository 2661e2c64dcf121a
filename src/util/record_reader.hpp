// The one decoder of the daemon's persisted state: detector models and
// trainer states (core/model_io) and session snapshots
// (serve/session_snapshot). A RecordReader walks a whole file held in
// memory as whitespace-separated tokens. Numbers go through
// std::from_chars, so no spelling the writers never produce (a sign on an
// unsigned field, "0x", "nan") slips in. Every count it hands out obeys one
// rule: each item needs at least `min_bytes` of the bytes that remain, so a
// lying count is refused before anything is allocated for it, and no count
// can make a caller allocate more than a few bytes per byte of the file.
// Every error is a std::runtime_error "<prefix>: …" naming the key read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace cmarkov::util {

/// The whole regular file at `path`, read by its size. Throws
/// std::runtime_error "<prefix>: cannot open '<path>' …" when it cannot be
/// opened or is not a regular file: a FIFO or /dev/zero has no size to
/// bound the read.
std::string read_regular_file(const std::string& path,
                              const std::string& prefix);

/// Reads `data`, which must outlive the reader; `prefix` opens each error.
class RecordReader {
 public:
  RecordReader(std::string_view data, std::string prefix)
      : data_(data), prefix_(std::move(prefix)) {}

  /// The "<magic> <version>" opening line; any other version is refused.
  void header(std::string_view magic, std::uint64_t version);
  /// The next whitespace-delimited token, which must not be empty.
  std::string_view word(std::string_view key);
  /// Consumes the next token, which must be `key`.
  void expect(std::string_view key);
  /// A decimal unsigned integer; a sign or an overflow is malformed.
  std::uint64_t u64(std::string_view key);
  /// A "<key> <u64>" line: expect(key), then u64(key).
  std::uint64_t u64_field(std::string_view key) {
    expect(key);
    return u64(key);
  }
  /// A finite decimal double.
  double finite_double(std::string_view key);
  /// A double spelled as the hex digits of its IEEE-754 bits, no sign and
  /// no "0x".
  double hex_double(std::string_view key);
  /// A count of items that each take at least `min_bytes` of the rest.
  std::size_t count(std::string_view key, std::size_t min_bytes);
  /// A "rows cols" shape whose rows * cols items each take at least
  /// `min_bytes` of the rest; the product cannot overflow.
  struct Shape {
    std::size_t rows;
    std::size_t cols;
  };
  Shape shape(std::string_view key, std::size_t min_bytes);
  /// "<length> <length bytes>": any bytes, whitespace included.
  std::string sized_string(std::string_view key);
  /// The bytes up to the next newline (consumed) or the end of the data.
  std::string line(std::string_view key);

  [[noreturn]] void fail(const std::string& message) const;

 private:
  /// The next token; empty at the end of the data.
  std::string_view token();
  [[noreturn]] void malformed(std::string_view key,
                              std::string_view text) const;
  [[noreturn]] void overrun(std::string_view key,
                            const std::string& count) const;
  std::size_t remaining() const { return data_.size() - pos_; }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string prefix_;
};

}  // namespace cmarkov::util
