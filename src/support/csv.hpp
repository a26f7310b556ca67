// CSV emission for bench harnesses.
//
// Every experiment binary prints a human-readable table to stdout and can
// also persist the raw series as CSV (`--csv=path`) so plots of the paper's
// figures can be regenerated offline.
#pragma once

#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace pushpart {

/// Streams rows of comma-separated values to a file. Fields containing
/// commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. A file that cannot
  /// be opened discards every row and makes close() fail.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// No-op writer: row() calls are discarded. Lets call sites write
  /// unconditionally whether or not --csv was given.
  CsvWriter() = default;

  void row(const std::vector<std::string>& fields);

  /// Convenience for mixed numeric rows.
  void row(std::initializer_list<double> fields);

  bool enabled() const { return out_.is_open(); }

  /// Flushes and closes the file. Returns whether the file opened and every
  /// row reached it, printing "cannot write <path>" to stderr when not; a
  /// writer built without a path returns true.
  bool close();

 private:
  void emit(const std::vector<std::string>& fields);

  std::string path_;
  std::ofstream out_;
  std::size_t width_ = 0;
};

/// Formats a double compactly (trims trailing zeros, max 6 significant
/// decimals) — used by both CSV and console tables.
std::string formatNumber(double v);

}  // namespace pushpart
