#include "labmon/util/json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace labmon::util::json {

namespace {

const Value kNullValue;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool Fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipWs() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] bool Literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos += word.size();
    return true;
  }

  bool ParseString(std::string& out) {
    if (pos >= text.size() || text[pos] != '"') {
      return Fail("expected '\"'");
    }
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        if (pos + 1 >= text.size()) return Fail("truncated escape");
        const char esc = text[pos + 1];
        pos += 2;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 > text.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad \\u escape");
              }
            }
            pos += 4;
            // UTF-8 encode the BMP code point (surrogate pairs are passed
            // through as two 3-byte sequences — labmon artifacts are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return Fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("raw control character in string");
      }
      out += c;
      ++pos;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(double& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return Fail("expected number");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    out = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos = start;
      return Fail("malformed number");
    }
    return true;
  }

  bool ParseValue(Value& out, int depth) {
    if (depth > 64) return Fail("nesting too deep");
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    switch (text[pos]) {
      case '{': {
        ++pos;
        Object object;
        SkipWs();
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          out = Value(std::move(object));
          return true;
        }
        while (true) {
          SkipWs();
          std::string key;
          if (!ParseString(key)) return false;
          SkipWs();
          if (pos >= text.size() || text[pos] != ':') {
            return Fail("expected ':'");
          }
          ++pos;
          Value member;
          if (!ParseValue(member, depth + 1)) return false;
          object.insert_or_assign(std::move(key), std::move(member));
          SkipWs();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          if (pos < text.size() && text[pos] == '}') {
            ++pos;
            out = Value(std::move(object));
            return true;
          }
          return Fail("expected ',' or '}'");
        }
      }
      case '[': {
        ++pos;
        Array array;
        SkipWs();
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          out = Value(std::move(array));
          return true;
        }
        while (true) {
          Value element;
          if (!ParseValue(element, depth + 1)) return false;
          array.push_back(std::move(element));
          SkipWs();
          if (pos < text.size() && text[pos] == ',') {
            ++pos;
            continue;
          }
          if (pos < text.size() && text[pos] == ']') {
            ++pos;
            out = Value(std::move(array));
            return true;
          }
          return Fail("expected ',' or ']'");
        }
      }
      case '"': {
        std::string s;
        if (!ParseString(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!Literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!Literal("false")) return false;
        out = Value(false);
        return true;
      case 'n':
        if (!Literal("null")) return false;
        out = Value();
        return true;
      default: {
        double number = 0.0;
        if (!ParseNumber(number)) return false;
        out = Value(number);
        return true;
      }
    }
  }
};

}  // namespace

const Value& Value::operator[](std::string_view key) const noexcept {
  if (!is_object()) return kNullValue;
  const auto it = object_->find(key);
  return it != object_->end() ? it->second : kNullValue;
}

const Value& Value::operator[](std::size_t index) const noexcept {
  if (!is_array() || index >= array_->size()) return kNullValue;
  return (*array_)[index];
}

util::Result<Value> Parse(std::string_view text) {
  Parser parser{text, 0, {}};
  Value value;
  if (!parser.ParseValue(value, 0)) {
    return util::Result<Value>::Err(parser.error);
  }
  parser.SkipWs();
  if (parser.pos != text.size()) {
    return util::Result<Value>::Err("trailing content at offset " +
                                    std::to_string(parser.pos));
  }
  return value;
}

}  // namespace labmon::util::json
