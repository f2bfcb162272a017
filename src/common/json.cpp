#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sickle {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw RuntimeError("json parse error at offset " + std::to_string(pos) +
                     ": " + what);
}

struct Parser {
  /// parse_value recurses once per nested array or object, so one request
  /// line of unbounded depth could overflow the connection thread's stack.
  static constexpr std::size_t kMaxDepth = 64;

  const std::string& text;
  std::size_t pos = 0;
  std::size_t depth = 0;

  /// Holds one nesting level for the lifetime of a container's parse.
  struct Nest {
    explicit Nest(Parser& parser) : p(parser) {
      if (++p.depth > kMaxDepth) {
        fail(p.pos, "nesting deeper than " + std::to_string(kMaxDepth));
      }
    }
    ~Nest() { --p.depth; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    Parser& p;
  };

  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }

  [[nodiscard]] char peek() {
    if (pos >= text.size()) fail(pos, "unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos, std::string("expected '") + c + "'");
    }
    ++pos;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text.compare(pos, n, lit) != 0) return false;
    pos += n;
    return true;
  }

  Json parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos >= text.size()) fail(pos, "unterminated string");
      const char c = text[pos++];
      if (c == '"') return Json(std::move(out));
      if (c == '\\') {
        if (pos >= text.size()) fail(pos, "unterminated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos + 4 > text.size()) fail(pos, "truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail(pos - 1, "bad \\u hex digit");
              }
            }
            // UTF-8 encode the BMP code point (the protocol never needs
            // surrogate pairs; reject them rather than mis-encode).
            if (cp >= 0xD800 && cp <= 0xDFFF) {
              fail(pos, "surrogate \\u escapes are unsupported");
            }
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: fail(pos - 1, "unknown escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    const std::string tok = text.substr(start, pos - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(v)) {
      fail(start, "bad number: " + tok);
    }
    return Json(v);
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') {
      const Nest nest(*this);
      ++pos;
      Json obj = Json::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return obj;
      }
      for (;;) {
        skip_ws();
        Json key = parse_string();
        skip_ws();
        expect(':');
        obj.set(key.as_string(), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return obj;
      }
    }
    if (c == '[') {
      const Nest nest(*this);
      ++pos;
      Json arr = Json::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return arr;
      }
      for (;;) {
        arr.push(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return arr;
      }
    }
    if (c == '"') return parse_string();
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c)) != 0) {
      return parse_number();
    }
    fail(pos, "unexpected character");
  }
};

/// `"` and `\` get a backslash, newline, CR and tab their short escapes,
/// and every other byte below 0x20 a \u00XX escape. All other bytes,
/// UTF-8 sequences included, pass through unchanged.
void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(double v, std::string& out) {
  // Integers a double holds exactly (the common case: ids, counts) print
  // in full, without an exponent; everything else in the shortest form
  // that parses back to the same double.
  char buf[32];
  const bool integral =
      std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 0x1p53;
  const auto res =
      integral ? std::to_chars(buf, buf + sizeof(buf), v,
                               std::chars_format::fixed)
               : std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

}  // namespace

Json Json::parse(const std::string& text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) fail(p.pos, "trailing content");
  return v;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw RuntimeError("json: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw RuntimeError("json: not a number");
  return num_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw RuntimeError("json: not a string");
  return str_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw RuntimeError("json: not an array");
  return items_;
}

const Json* Json::get(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : fields_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(const std::string& key, Json value) {
  if (type_ != Type::kObject) throw RuntimeError("json: not an object");
  for (auto& [k, v] : fields_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (type_ != Type::kArray) throw RuntimeError("json: not an array");
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(num_, out); break;
    case Type::kString: dump_string(str_, out); break;
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : fields_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& v : items_) {
        if (!first) out.push_back(',');
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      break;
    }
  }
}

}  // namespace sickle
