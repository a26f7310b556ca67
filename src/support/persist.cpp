#include "support/persist.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "support/check.hpp"
#include "support/fnv.hpp"

namespace pushpart {

namespace {

std::string checksumHex(std::string_view payload) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a(payload)));
  return buf;
}

std::string countLine(std::string_view tag, std::size_t count) {
  return std::string(tag) + ' ' + std::to_string(count);
}

/// The payload of a `tag` record whose checksum verifies, else nullopt.
std::optional<std::string> verifiedPayload(const std::string& line,
                                           std::string_view tag) {
  const std::size_t at = tag.size() + 1;  // first checksum digit
  if (line.size() < at + 17 || line.compare(0, tag.size(), tag) != 0 ||
      line[at - 1] != ' ' || line[at + 16] != ' ')
    return std::nullopt;
  std::string payload = line.substr(at + 17);
  if (line.compare(at, 16, checksumHex(payload)) != 0) return std::nullopt;
  return payload;
}

/// The N of a count line written exactly as countLine(tag, N), else nullopt.
std::optional<std::size_t> parseCount(const std::string& line,
                                      std::string_view tag) {
  const char* digits = line.data() + std::min(line.size(), tag.size() + 1);
  std::size_t count = 0;
  if (std::from_chars(digits, line.data() + line.size(), count).ec !=
          std::errc{} ||
      line != countLine(tag, count))
    return std::nullopt;
  return count;
}

/// The next non-blank line, a trailing '\r' dropped.
bool nextLine(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) return true;
  }
  return false;
}

/// Writes all of `bytes` to `fd`, retrying short and interrupted writes.
bool writeAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

[[noreturn]] void publishFailed(const std::string& what, int error) {
  throw std::runtime_error("publishFile: " + what + ": " +
                           std::strerror(error));
}

}  // namespace

void detail::appendField(std::ostream& os, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << buf;
}

void writeRecords(std::ostream& os, const RecordFormat& format,
                  const std::vector<std::string>& header, std::size_t count,
                  const std::function<std::string(std::size_t)>& record) {
  PUSHPART_CHECK(header.size() == format.header.size());
  const auto write = [&](std::string_view tag, const std::string& payload) {
    os << tag << ' ' << checksumHex(payload) << ' ' << payload << '\n';
  };
  os << format.magic << '\n';
  for (std::size_t k = 0; k < header.size(); ++k)
    write(format.header[k], header[k]);
  os << countLine(format.countTag, count) << '\n';
  for (std::size_t k = 0; k < count; ++k) write(format.recordTag, record(k));
  if (!os)
    throw std::runtime_error("save " + std::string(format.name) +
                             ": stream write failed");
}

LoadReport readRecords(
    std::istream& is, const RecordFormat& format,
    const std::function<void(const std::vector<std::string>&)>& onHeader,
    const std::function<bool(const std::string&)>& onRecord) {
  LoadReport report;
  std::string line;
  if (!nextLine(is, line) || line != format.magic) {
    report.versionRefused = true;
    report.error = "unsupported " + std::string(format.name) + " version '" +
                   line + "' (expected '" + std::string(format.magic) + "')";
    return report;
  }

  std::vector<std::string> header;
  for (const std::string_view tag : format.header) {
    std::optional<std::string> payload;
    if (nextLine(is, line)) payload = verifiedPayload(line, tag);
    if (!payload) {
      report.error = "missing or corrupt " + std::string(tag) + " record";
      return report;
    }
    header.push_back(std::move(*payload));
  }
  if (onHeader) {
    try {
      onHeader(header);
    } catch (const std::exception& e) {
      report.error = e.what();
      return report;
    }
  }

  std::optional<std::size_t> declared;
  if (nextLine(is, line)) declared = parseCount(line, format.countTag);
  std::size_t records = 0;
  while (nextLine(is, line)) {
    ++records;
    const std::optional<std::string> payload =
        verifiedPayload(line, format.recordTag);
    if (payload && onRecord(*payload))
      ++report.loaded;
    else
      ++report.skipped;
  }
  // Lost lines become skipped ones. Without a count that fits the records,
  // the count line itself is the one loss the loader can see.
  if (!declared || *declared < records)
    ++report.skipped;
  else
    report.skipped += *declared - records;
  return report;
}

void publishFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) publishFailed("cannot create " + tmp, errno);
  bool written = writeAll(fd, bytes) && ::fsync(fd) == 0;
  int error = errno;
  if (::close(fd) != 0 && written) {
    written = false;
    error = errno;
  }
  if (!written) {
    ::unlink(tmp.c_str());
    publishFailed("cannot write " + tmp, error);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = errno;
    ::unlink(tmp.c_str());
    publishFailed("cannot rename " + tmp + " to " + path, error);
  }
  // The rename is durable only once the directory entry is on disk.
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (dir.empty()) dir = ".";
  const int dirFd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dirFd < 0) publishFailed("cannot open directory " + dir.string(), errno);
  const bool synced = ::fsync(dirFd) == 0;
  error = errno;
  ::close(dirFd);
  if (!synced) publishFailed("cannot sync directory " + dir.string(), error);
}

}  // namespace pushpart
