#include "common/config.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace sickle {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

/// Strip an unquoted trailing comment ("# ..." preceded by whitespace).
std::string strip_comment(const std::string& line) {
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '#' && (i == 0 || std::isspace(static_cast<unsigned char>(
                                         line[i - 1])))) {
      return line.substr(0, i);
    }
  }
  return line;
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string current_section;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = strip_comment(line);
    if (trim(line).empty()) continue;

    const bool indented =
        line.size() >= 2 && (line[0] == ' ' || line[0] == '\t');
    const std::string stripped = trim(line);
    const std::size_t colon = stripped.find(':');
    if (colon == std::string::npos) {
      throw RuntimeError("config line " + std::to_string(lineno) +
                         ": expected 'key: value'");
    }
    const std::string key = trim(stripped.substr(0, colon));
    const std::string value = trim(stripped.substr(colon + 1));
    if (key.empty()) {
      throw RuntimeError("config line " + std::to_string(lineno) +
                         ": empty key");
    }
    if (!indented && value.empty()) {
      current_section = key;
      cfg.data_[current_section];  // register empty section
    } else {
      if (current_section.empty()) {
        // Top-level scalar: place in implicit "shared" section, matching the
        // paper's flat CLI-flag configs.
        cfg.data_["shared"][key] = value;
      } else {
        cfg.data_[current_section][key] = value;
      }
    }
  }
  return cfg;
}

Config Config::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw RuntimeError("cannot open config file: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  data_[section][key] = value;
}

bool Config::has(const std::string& section, const std::string& key) const {
  const auto s = data_.find(section);
  return s != data_.end() && s->second.count(key) > 0;
}

std::string Config::get_str(const std::string& section,
                            const std::string& key) const {
  const auto s = data_.find(section);
  if (s == data_.end() || !s->second.count(key)) {
    throw RuntimeError("missing config key: " + section + "." + key);
  }
  return s->second.at(key);
}

std::string Config::get_str(const std::string& section, const std::string& key,
                            const std::string& fallback) const {
  return has(section, key) ? get_str(section, key) : fallback;
}

long Config::get_int(const std::string& section, const std::string& key) const {
  const std::string v = get_str(section, key);
  char* end = nullptr;
  const long out = std::strtol(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0') {
    throw RuntimeError("config key " + section + "." + key +
                       " is not an integer: " + v);
  }
  return out;
}

long Config::get_int(const std::string& section, const std::string& key,
                     long fallback) const {
  return has(section, key) ? get_int(section, key) : fallback;
}

double Config::get_double(const std::string& section,
                          const std::string& key) const {
  const std::string v = get_str(section, key);
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0') {
    throw RuntimeError("config key " + section + "." + key +
                       " is not a number: " + v);
  }
  return out;
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  return has(section, key) ? get_double(section, key) : fallback;
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  if (!has(section, key)) return fallback;
  const std::string v = get_str(section, key);
  if (v == "true" || v == "True" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "False" || v == "0" || v == "no") return false;
  throw RuntimeError("config key " + section + "." + key +
                     " is not a boolean: " + v);
}

std::vector<std::string> Config::get_list(const std::string& section,
                                          const std::string& key) const {
  std::string v = get_str(section, key);
  std::vector<std::string> out;
  if (!v.empty() && v.front() == '[') {
    if (v.back() != ']') {
      throw RuntimeError("config key " + section + "." + key +
                         ": unterminated list");
    }
    v = v.substr(1, v.size() - 2);
    std::string item;
    std::istringstream ss(v);
    while (std::getline(ss, item, ',')) {
      const std::string t = trim(item);
      if (!t.empty()) out.push_back(t);
    }
  } else {
    // Space- or single-token scalar list ("u v w r" CLI style).
    std::istringstream ss(v);
    std::string tok;
    while (ss >> tok) out.push_back(tok);
  }
  return out;
}

}  // namespace sickle
