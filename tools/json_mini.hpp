// Minimal dependency-free JSON value + recursive-descent parser, shared by
// the telemetry tooling (telemetry_check, teldiff). Parses the actual bytes
// — objects, arrays, strings, numbers, bools, null — and throws
// std::runtime_error with a byte offset on malformed input. Not a
// general-purpose JSON library: \u escapes are consumed but decoded as '?'
// (the telemetry schema only ever emits ASCII control escapes), and numbers
// are doubles (53-bit integer precision, plenty for the counters the tools
// compare).
#pragma once

#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace wdm::tools::json {

struct Json;
using JsonPtr = std::shared_ptr<Json>;

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonPtr> arr;
  std::map<std::string, JsonPtr> obj;

  bool is(Type t) const { return type == t; }
  const JsonPtr* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}
  // The parser keeps a reference to the document for its whole lifetime;
  // binding a temporary would dangle before parse() runs.
  explicit Parser(std::string&&) = delete;

  JsonPtr parse() {
    JsonPtr v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json error at byte " + std::to_string(pos_) +
                             ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonPtr value() {
    skip_ws();
    const char c = peek();
    auto v = std::make_shared<Json>();
    if (c == '{') {
      v->type = Json::Type::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = string_token();
        skip_ws();
        expect(':');
        v->obj.emplace(std::move(key), value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v->type = Json::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      for (;;) {
        v->arr.push_back(value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v->type = Json::Type::kString;
      v->str = string_token();
      return v;
    }
    if (consume_literal("true")) {
      v->type = Json::Type::kBool;
      v->b = true;
      return v;
    }
    if (consume_literal("false")) {
      v->type = Json::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number.
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      std::size_t used = 0;
      v->num = std::stod(s_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) fail("bad number");
    } catch (const std::exception&) {
      fail("bad number");
    }
    v->type = Json::Type::kNumber;
    return v;
  }

  std::string string_token() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            // Decoded only far enough for validation; the schema emits
            // ASCII control escapes exclusively.
            out.push_back('?');
            pos_ += 4;
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace wdm::tools::json
