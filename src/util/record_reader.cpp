#include "src/util/record_reader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace cmarkov::util {

namespace {

/// True when `text` is exactly one value for std::from_chars.
template <typename T, typename... Format>
bool parse_whole(std::string_view text, T& value, Format... format) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, format...);
  return ec == std::errc() && ptr == end;
}

/// Owns a file descriptor: closed on every path out of read_regular_file.
struct FileDescriptor {
  explicit FileDescriptor(int value) : fd(value) {}
  ~FileDescriptor() { if (fd >= 0) ::close(fd); }
  FileDescriptor(const FileDescriptor&) = delete;
  const int fd;
};

/// The C locale's isspace: ' ' and '\t' '\n' '\v' '\f' '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string read_regular_file(const std::string& path,
                              const std::string& prefix) {
  // O_NONBLOCK: opening a FIFO must not wait for a writer before fstat
  // can refuse it; regular-file reads ignore the flag.
  const FileDescriptor file(
      ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  struct stat info {};
  if (file.fd < 0 || ::fstat(file.fd, &info) != 0 || !S_ISREG(info.st_mode)) {
    throw std::runtime_error(prefix + ": cannot open '" + path +
                             "' as a regular file");
  }
  std::string data(static_cast<std::size_t>(info.st_size), '\0');
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(file.fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      throw std::runtime_error(prefix + ": cannot read '" + path + "'");
    }
    if (n == 0) break;  // shrank since fstat: decode what is there
    got += static_cast<std::size_t>(n);
  }
  data.resize(got);
  return data;
}

std::string_view RecordReader::token() {
  while (pos_ < data_.size() && is_space(data_[pos_])) ++pos_;
  const std::size_t start = pos_;
  while (pos_ < data_.size() && !is_space(data_[pos_])) ++pos_;
  return data_.substr(start, pos_ - start);
}

std::string_view RecordReader::word(std::string_view key) {
  const std::string_view text = token();
  if (text.empty()) fail("missing value for key '" + std::string(key) + "'");
  return text;
}

void RecordReader::fail(const std::string& message) const {
  throw std::runtime_error(prefix_ + ": " + message);
}

void RecordReader::malformed(std::string_view key,
                             std::string_view text) const {
  // A token may be the whole file; the message quotes its head only.
  fail("malformed value '" + std::string(text.substr(0, 32)) +
       "' for key '" + std::string(key) + "'");
}

void RecordReader::overrun(std::string_view key,
                           const std::string& count) const {
  fail("'" + std::string(key) + "' count " + count +
       " needs more than the " + std::to_string(remaining()) +
       " bytes that remain");
}

void RecordReader::header(std::string_view magic, std::uint64_t version) {
  if (token() != magic) fail("not a " + std::string(magic) + " file");
  const std::uint64_t seen = u64("version");
  if (seen != version) fail("unsupported version " + std::to_string(seen));
}

void RecordReader::expect(std::string_view key) {
  if (token() != key) fail("expected key '" + std::string(key) + "'");
}

std::uint64_t RecordReader::u64(std::string_view key) {
  const std::string_view text = word(key);
  std::uint64_t result = 0;
  if (!parse_whole(text, result, 10)) malformed(key, text);
  return result;
}

double RecordReader::finite_double(std::string_view key) {
  const std::string_view text = word(key);
  double result = 0.0;
  if (!parse_whole(text, result) || !std::isfinite(result)) {
    malformed(key, text);
  }
  return result;
}

double RecordReader::hex_double(std::string_view key) {
  const std::string_view text = word(key);
  std::uint64_t bits = 0;
  if (!parse_whole(text, bits, 16)) malformed(key, text);
  return std::bit_cast<double>(bits);
}

std::size_t RecordReader::count(std::string_view key, std::size_t min_bytes) {
  const std::uint64_t n = u64(key);
  if (n > remaining() / min_bytes) overrun(key, std::to_string(n));
  return static_cast<std::size_t>(n);
}

RecordReader::Shape RecordReader::shape(std::string_view key,
                                        std::size_t min_bytes) {
  const std::uint64_t rows = u64(key);
  const std::uint64_t cols = u64(key);
  // Division keeps rows * cols * min_bytes <= remaining overflow-free.
  if (cols != 0 && rows > remaining() / min_bytes / cols) {
    overrun(key, std::to_string(rows) + " x " + std::to_string(cols));
  }
  return {static_cast<std::size_t>(rows), static_cast<std::size_t>(cols)};
}

std::string RecordReader::sized_string(std::string_view key) {
  const std::uint64_t length = u64(key);
  if (pos_ == data_.size() || data_[pos_] != ' ') malformed(key, "");
  ++pos_;
  if (length > remaining()) overrun(key, std::to_string(length));
  const std::string result(data_.substr(pos_, length));
  pos_ += length;
  return result;
}

std::string RecordReader::line(std::string_view key) {
  if (pos_ == data_.size()) fail("truncated '" + std::string(key) + "'");
  const std::size_t end = std::min(data_.find('\n', pos_), data_.size());
  const std::string result(data_.substr(pos_, end - pos_));
  pos_ = std::min(end + 1, data_.size());
  return result;
}

}  // namespace cmarkov::util
