#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <iostream>

#include "support/check.hpp"

namespace pushpart {

JsonWriter::JsonWriter(const std::string& path)
    : path_(path), file_(path, std::ios::trunc), out_(file_) {
  open(nullptr, /*array=*/false);
}

JsonWriter::JsonWriter(std::ostream& out) : path_("<stream>"), out_(out) {
  open(nullptr, /*array=*/false);
}

void JsonWriter::next(const std::string_view* key) {
  PUSHPART_CHECK_MSG(!levels_.empty(), "JsonWriter: document already closed");
  Level& level = levels_.back();
  PUSHPART_CHECK_MSG((key == nullptr) == level.array,
                     "JsonWriter: object members take a key, array "
                     "elements do not");
  if (level.count++ > 0) out_ << (level.expanded ? "," : ", ");
  if (level.expanded)
    out_ << '\n' << std::string(2 * levels_.size(), ' ');
  if (key) {
    quoted(*key);
    out_ << ": ";
  }
}

void JsonWriter::open(const std::string_view* key, bool array) {
  // The root is always expanded; an array inherits its parent's layout;
  // any other object is one line.
  const bool expanded =
      levels_.empty() || (array && levels_.back().expanded);
  if (!levels_.empty()) next(key);
  out_ << (array ? '[' : '{');
  levels_.push_back(Level{array, expanded, 0});
}

JsonWriter& JsonWriter::beginObject(std::string_view key) {
  open(&key, /*array=*/false);
  return *this;
}

JsonWriter& JsonWriter::beginObject() {
  open(nullptr, /*array=*/false);
  return *this;
}

JsonWriter& JsonWriter::beginArray(std::string_view key) {
  open(&key, /*array=*/true);
  return *this;
}

JsonWriter& JsonWriter::end() {
  PUSHPART_CHECK_MSG(!levels_.empty(), "JsonWriter: document already closed");
  const Level level = levels_.back();
  levels_.pop_back();
  if (level.expanded && level.count > 0)
    out_ << '\n' << std::string(2 * levels_.size(), ' ');
  out_ << (level.array ? ']' : '}');
  return *this;
}

bool JsonWriter::close() {
  while (!levels_.empty()) end();
  out_ << '\n';
  out_.flush();
  if (file_.is_open()) file_.close();
  if (!out_.fail()) return true;
  std::cerr << "cannot write " << path_ << "\n";
  return false;
}

JsonWriter& JsonWriter::scalar(std::string_view key, std::string_view text) {
  next(&key);
  out_ << text;
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, std::string_view value) {
  next(&key);
  quoted(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view key, bool value) {
  return scalar(key, value ? "true" : "false");
}

JsonWriter& JsonWriter::field(std::string_view key, double value) {
  if (!std::isfinite(value)) return scalar(key, "null");
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return scalar(key, std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

void JsonWriter::quoted(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ << '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\')
      out_ << '\\' << c;
    else if (byte < 0x20)
      out_ << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
    else
      out_ << c;
  }
  out_ << '"';
}

}  // namespace pushpart
