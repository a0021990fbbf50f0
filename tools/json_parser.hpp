// Minimal JSON parser shared by tools/bench_diff and the tests. Validates
// full JSON documents and decodes strings (including escapes), so the
// Chrome trace and BENCH_*.json outputs can be checked for well-formedness
// rather than by substring luck. Top-level scalar
// key/value pairs land in `flat` (decoded) and, when numeric, in `numbers`;
// every decoded string lands in `strings`. Header-only, so bench_diff
// links no repro library.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace repro {

struct JsonParser {
  explicit JsonParser(std::string text) : s(std::move(text)) {}

  const std::string s;
  std::size_t i = 0;
  std::vector<std::string> strings;
  std::map<std::string, std::string> flat;
  std::map<std::string, double> numbers;
  bool nested = false;  ///< a top-level value is an object or an array

  bool parse() {
    ws();
    if (!value(0)) return false;
    ws();
    return i == s.size();
  }

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool lit(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++i) {
      if (i >= s.size() || s[i] != *p) return false;
    }
    return true;
  }
  bool string(std::string* out) {
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string decoded;
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return false;
        const char e = s[i++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            if (i + 4 > s.size()) return false;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            c = static_cast<char>(code);  // ASCII escapes only in our output
            break;
          }
          default: return false;
        }
      }
      decoded += c;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    strings.push_back(decoded);
    if (out != nullptr) *out = decoded;
    return true;
  }
  bool number(std::string* out) {
    const std::size_t begin = i;
    if (i < s.size() && s[i] == '-') ++i;
    std::size_t digits = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++digits;
    if (digits == 0) return false;
    if (i < s.size() && s[i] == '.') {
      ++i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    }
    if (out != nullptr) *out = s.substr(begin, i - begin);
    return true;
  }
  bool value(int depth, std::string* scalar = nullptr) {
    if (depth > 32 || i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string(scalar);
    if (c == 't') { if (!lit("true")) return false; if (scalar) *scalar = "true"; return true; }
    if (c == 'f') { if (!lit("false")) return false; if (scalar) *scalar = "false"; return true; }
    if (c == 'n') { if (!lit("null")) return false; if (scalar) *scalar = "null"; return true; }
    return number(scalar);
  }
  bool object(int depth) {
    ++i;  // '{'
    ws();
    if (i < s.size() && s[i] == '}') { ++i; return true; }
    for (;;) {
      ws();
      std::string key;
      if (!string(&key)) return false;
      ws();
      if (i >= s.size() || s[i] != ':') return false;
      ++i;
      ws();
      std::string scalar;
      const char first = i < s.size() ? s[i] : '\0';
      if (!value(depth + 1, &scalar)) return false;
      if (depth == 0) {
        nested = nested || first == '{' || first == '[';
        if (!scalar.empty()) flat[key] = scalar;
        if (first == '-' || (first >= '0' && first <= '9')) {
          numbers[key] = std::strtod(scalar.c_str(), nullptr);
        }
      }
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    if (i >= s.size() || s[i] != '}') return false;
    ++i;
    return true;
  }
  bool array(int depth) {
    ++i;  // '['
    ws();
    if (i < s.size() && s[i] == ']') { ++i; return true; }
    for (;;) {
      ws();
      if (!value(depth + 1)) return false;
      ws();
      if (i < s.size() && s[i] == ',') { ++i; continue; }
      break;
    }
    if (i >= s.size() || s[i] != ']') return false;
    ++i;
    return true;
  }
};

}  // namespace repro
