// Streaming JSON documents for bench reports.
//
// Every machine-readable BENCH_*.json goes through JsonWriter: the caller
// names the fields in order and the writer places the commas, indentation
// and quotes. A document is one object. The root object, and any array
// inside an expanded container, put one element per line; every other
// object is written on one line, so a grid of cells reads one cell per
// line. Strings are escaped; doubles are written round-trip exact (the
// shortest text that parses back to the same value) and non-finite ones as
// null, since JSON has no NaN or Infinity. close() flushes and checks the
// stream and, when a write failed, prints "cannot write <path>" to stderr,
// so a report that could not be written is a reported failure, not a
// silently truncated file.
//
//   JsonWriter json(path);
//   json.field("bench", "serve_loadgen").field("qps", qps);
//   json.beginObject("cold").field("n", n).end();
//   json.beginArray("cells");
//   json.beginObject().field("pr", p).end();
//   if (!json.close()) return 1;  // "cannot write <path>" is printed
#pragma once

#include <concepts>
#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

namespace pushpart {

class JsonWriter {
 public:
  /// Writes to `path`, truncating it. A file that cannot be opened fails
  /// like any other write: close() reports it.
  explicit JsonWriter(const std::string& path);
  /// Writes to `out`, which must outlive the writer; a failure is reported
  /// as "cannot write <stream>".
  explicit JsonWriter(std::ostream& out);

  // out_ may refer to this writer's own file_, so a writer stays put.
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // Object members. Each returns *this so fields chain.
  JsonWriter& field(std::string_view key, std::string_view value);
  // Without this overload a string literal would convert to bool.
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value);
  JsonWriter& field(std::string_view key, double value);
  /// Unsigned counts, a Counter included (it converts to std::uint64_t).
  JsonWriter& field(std::string_view key, std::uint64_t value) {
    return scalar(key, std::to_string(value));
  }
  template <std::integral T>
  JsonWriter& field(std::string_view key, T value) {
    return scalar(key, std::to_string(value));
  }

  /// Opens an object as a member named `key`, or (no key) as the next
  /// element of the enclosing array.
  JsonWriter& beginObject(std::string_view key);
  JsonWriter& beginObject();
  JsonWriter& beginArray(std::string_view key);
  /// Closes the innermost open object or array.
  JsonWriter& end();

  /// Closes every open container and the document, then flushes (and, for
  /// a file, closes) the stream. Returns whether every write succeeded,
  /// printing "cannot write <path>" to stderr when one did not.
  bool close();

 private:
  struct Level {
    bool array = false;
    bool expanded = false;
    int count = 0;
  };

  /// Writes the separator, line break and (for object members) key that
  /// precede the next value.
  void next(const std::string_view* key);
  void open(const std::string_view* key, bool array);
  JsonWriter& scalar(std::string_view key, std::string_view text);
  void quoted(std::string_view text);

  std::string path_;
  std::ofstream file_;
  std::ostream& out_;
  std::vector<Level> levels_;
};

}  // namespace pushpart
