#include "support/csv.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

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
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  emit(header);
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
  if (!out_.is_open()) return true;
  out_.close();
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
  // Integers up to 2^53 print exactly without a decimal point.
  if (v == std::floor(v) && std::fabs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace pushpart
