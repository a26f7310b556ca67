// Mutants of a saved text file, for sweeping a loader: every single-bit
// flip, byte deletion, byte duplication and truncation at every offset, and
// every line dropped or duplicated.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

namespace pushpart::testing_mutants {

inline std::vector<std::string> mutantsOf(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      out.push_back(std::move(flipped));
    }
    out.push_back(text.substr(0, at) + text.substr(at + 1));
    out.push_back(text.substr(0, at + 1) + text.substr(at));
    out.push_back(text.substr(0, at));
  }
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    out.push_back(text.substr(0, begin) + text.substr(end));
    out.push_back(text.substr(0, end) + text.substr(begin));
    begin = end;
  }
  return out;
}

/// `text` up to what a loader may ignore: blank lines, a '\r' before a
/// newline, and the final newline. A loader may report a mutant clean only
/// when this form matches the saved file's.
inline std::string tolerantForm(const std::string& text) {
  std::istringstream is(text);
  std::string out, line;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) out += line + '\n';
  }
  return out;
}

}  // namespace pushpart::testing_mutants
