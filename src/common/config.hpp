// Case configuration: a YAML-subset parser mirroring the paper's
// case.yaml files (shared / subsample / train sections).
//
// Supported syntax — exactly what SICKLE's configs use:
//   section:
//     key: scalar
//     key: [a, b, c]
//     # comments
// Two-space indentation marks membership in the preceding section.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sickle {

/// Parsed configuration: section -> key -> raw string value.
class Config {
 public:
  Config() = default;

  /// Parse from YAML-subset text; throws RuntimeError on malformed input.
  static Config parse(const std::string& text);

  /// Load from file.
  static Config load(const std::string& path);

  /// Set a value programmatically (used by tests and the Case runner).
  void set(const std::string& section, const std::string& key,
           const std::string& value);

  [[nodiscard]] bool has(const std::string& section,
                         const std::string& key) const;

  /// Typed getters; throw RuntimeError when the key is missing or malformed
  /// unless a default is supplied.
  [[nodiscard]] std::string get_str(const std::string& section,
                                    const std::string& key) const;
  [[nodiscard]] std::string get_str(const std::string& section,
                                    const std::string& key,
                                    const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& section,
                             const std::string& key) const;
  [[nodiscard]] long get_int(const std::string& section, const std::string& key,
                             long fallback) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& section,
                                  const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& section,
                              const std::string& key, bool fallback) const;
  /// Parse "[a, b, c]" or a bare scalar into a list of tokens.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& section, const std::string& key) const;

 private:
  std::map<std::string, std::map<std::string, std::string>> data_;
};

/// Trim ASCII whitespace from both ends.
std::string trim(const std::string& s);

}  // namespace sickle
