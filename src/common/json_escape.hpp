// JSON string escaping shared by every JSON writer in the tree: the
// metrics and trace exporters, serve::Json and the bench reports.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace sickle {

/// Escape `s` for embedding between JSON double quotes: `"` and `\` get a
/// backslash, newline, CR and tab their short escapes, and every other
/// byte below 0x20 a \u00XX escape. All other bytes, UTF-8 sequences
/// included, pass through unchanged.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
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
          out += c;
        }
    }
  }
  return out;
}

}  // namespace sickle
