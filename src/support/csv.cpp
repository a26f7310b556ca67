#include "support/csv.hpp"

#include <charconv>
#include <cmath>
#include <iostream>

#include "support/check.hpp"

namespace pushpart {

namespace {

bool needsQuoting(const std::string& f) {
  return f.find_first_of(",\"\n") != std::string::npos;
}

std::string quoted(const std::string& f) {
  std::string out = "\"";
  for (char c : f) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : path_(path), out_(path), width_(header.size()) {
  if (out_.is_open()) emit(header);
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (!out_.is_open()) return;
  PUSHPART_CHECK_MSG(fields.size() == width_,
                     "CSV row has " << fields.size() << " fields, header has "
                                    << width_);
  emit(fields);
}

void CsvWriter::row(std::initializer_list<double> fields) {
  if (!out_.is_open()) return;
  std::vector<std::string> strs;
  strs.reserve(fields.size());
  for (double v : fields) strs.push_back(formatNumber(v));
  row(strs);
}

bool CsvWriter::close() {
  // A failed open leaves the stream failed and closed, so it reports here.
  if (out_.is_open()) out_.close();
  if (!out_.fail()) return true;
  std::cerr << "cannot write " << path_ << "\n";
  return false;
}

void CsvWriter::emit(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << ',';
    out_ << (needsQuoting(fields[i]) ? quoted(fields[i]) : fields[i]);
  }
  out_ << '\n';
}

std::string formatNumber(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  // to_chars with a precision writes what printf writes in the C locale:
  // integers up to 2^53 as "%.0f", exactly and without a decimal point, the
  // rest as "%.6g".
  char buf[40];
  const std::to_chars_result out =
      v == std::floor(v) && std::fabs(v) < 9.0e15
          ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed,
                          0)
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 6);
  return std::string(buf, out.ptr);
}

}  // namespace pushpart
