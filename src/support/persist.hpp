// The one codec behind the repository's persisted text formats: the
// plan-cache snapshot (serve/snapshot.hpp, also the cluster's rebalance
// wire format) and the plan-surface atlas (atlas/io.hpp). A format names
// its magic line and its record tags and supplies its field lists and range
// checks; this module owns the framing, the loss accounting and the publish.
//
//   <magic>                                 e.g. "pushpart-atlas v3"
//   <tag> <fnv1a-16-hex> <payload>          one per header tag, in order
//   <count-tag> <N>                         the number of body records
//   <record-tag> <fnv1a-16-hex> <payload>   N body records
//
// Every record carries the 64-bit FNV-1a of its payload as 16 lowercase hex
// digits. Payload fields are separated by single spaces, and doubles travel
// as %.17g, so save -> load -> save is byte-identical and a loaded value is
// bit-for-bit the saved one.
//
// Loading. Blank lines are ignored, and a '\r' before a newline is dropped.
// A magic line other than the format's refuses the whole file
// (versionRefused): guessing at a future format would be worse than
// starting cold. A header record that is missing, fails its checksum, or
// that the format rejects refuses the file too (error), because one flipped
// byte there would re-map every body record while each still verified.
// Body records are tolerated one at a time: a record whose checksum or
// fields do not verify is skipped and counted, and the rest still load.
// The count line must read exactly as the writer writes it. It turns lost
// lines into skipped ones: every declared record the file no longer holds
// counts as skipped, and a missing or malformed count line, or a file that
// holds more records than it declares, counts as one skipped line. So a
// file loads clean() only when it holds what was saved, up to blank lines,
// '\r' before '\n', and the final newline.
//
// Publishing. publishFile writes "<path>.tmp", fsyncs it, renames it over
// the destination and fsyncs the directory, so after a crash or a power
// cut a reader finds the old file or the new one, never a short one.
#pragma once

#include <cstddef>
#include <functional>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace pushpart {

/// What a load restored and what it lost. Every outcome is counted so
/// callers (the CLI's --snapshot restore, the cluster's rebalance transfer,
/// the atlas loaders) can assert on exactly what happened.
struct LoadReport {
  std::size_t loaded = 0;  ///< Body records the format accepted.
  /// Body records refused, plus the lines the count line says were lost.
  std::size_t skipped = 0;
  /// The magic line did not match: nothing was loaded.
  bool versionRefused = false;
  /// Why the file was refused or unreadable; empty when it was accepted.
  std::string error;

  /// The file was accepted (right version, readable, header verified).
  /// Skipped records do not fail ok(); a byte-perfect transfer checks clean().
  bool ok() const { return !versionRefused && error.empty(); }
  /// Accepted and every record verified.
  bool clean() const { return ok() && skipped == 0; }
};

/// One format's framing.
struct RecordFormat {
  std::string_view name;  ///< Names the format in messages ("atlas").
  std::string_view magic;  ///< The first line, version included.
  std::vector<std::string_view> header;  ///< Header record tags, in order.
  std::string_view countTag;
  std::string_view recordTag;
};

/// Writes one document: the magic line, one record per header payload (in
/// the format's tag order), the count line, and `count` body records whose
/// payloads `record(0)`, `record(1)`, ... produce one at a time. Throws
/// std::runtime_error on stream failure.
void writeRecords(std::ostream& os, const RecordFormat& format,
                  const std::vector<std::string>& header, std::size_t count,
                  const std::function<std::string(std::size_t)>& record);

/// Reads one document. `onHeader` gets the verified header payloads in tag
/// order and refuses the file by throwing (its message becomes the
/// report's error); it may be empty when the format has no header.
/// `onRecord` gets each verified body payload and returns whether it
/// loaded it; a refusal counts as skipped.
LoadReport readRecords(
    std::istream& is, const RecordFormat& format,
    const std::function<void(const std::vector<std::string>&)>& onHeader,
    const std::function<bool(const std::string&)>& onRecord);

/// Runs `load` on the file at `path`. A file that cannot be opened comes
/// back as a report whose error names it.
template <class Report, class Load>
Report loadFile(const std::string& path, const Load& load) {
  std::ifstream in(path);
  if (in) return load(in);
  Report report;
  report.error = "cannot open " + path;
  return report;
}

/// Publishes `bytes` at `path` durably: written to "<path>.tmp", fsynced,
/// renamed over `path`, then the parent directory is fsynced. Throws
/// std::runtime_error on every failure; a failure before the rename removes
/// the tmp file and leaves the destination untouched.
void publishFile(const std::string& path, std::string_view bytes);

namespace detail {
/// Appends a double at %.17g; every other field type prints as usual.
void appendField(std::ostream& os, double value);
template <class T>
void appendField(std::ostream& os, const T& value) {
  os << value;
}
}  // namespace detail

/// The payload of `fields`: single spaces between them, doubles at %.17g,
/// bools as 0/1.
template <class... Fields>
std::string joinFields(const Fields&... fields) {
  std::ostringstream os;
  const char* separator = "";
  ((os << separator, detail::appendField(os, fields), separator = " "), ...);
  return os.str();
}

/// Reads exactly `fields` back from `payload`: false when one is missing or
/// malformed, or when anything follows the last. A bool field accepts only
/// 0 or 1.
template <class... Fields>
bool parseFields(const std::string& payload, Fields&... fields) {
  std::istringstream is(payload);
  std::string trailing;
  return static_cast<bool>((is >> ... >> fields)) && !(is >> trailing);
}

}  // namespace pushpart
