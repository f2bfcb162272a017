/// @file json.hpp
/// @brief Minimal JSON value: parse one document, build and dump one
/// single-line document. Every JSON the tree writes goes through dump():
/// the sickle-serve NDJSON protocol, the metrics and trace exporters and
/// the bench reports, so string escaping and number formatting live in
/// json.cpp alone. Hand-rolled (no new dependencies), covering exactly the
/// subset those use: null, bool, finite numbers, strings with standard
/// escapes, objects, arrays. Insertion order of object keys is preserved
/// so output is stable for tests and humans. Not a general-purpose
/// library: numbers are doubles (ids and counts stay well under 2^53) and
/// dump() never pretty-prints, so an NDJSON frame stays on one line.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace sickle {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Json() noexcept : type_(Type::kNull) {}
  Json(bool b) noexcept : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double n) noexcept : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), str_(s) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT

  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  /// Parse one complete JSON document; trailing non-space is an error.
  /// Throws RuntimeError with a position on malformed input.
  [[nodiscard]] static Json parse(const std::string& text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  /// Typed accessors: throw RuntimeError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;  ///< array

  /// Object field by key; nullptr when absent (or not an object).
  [[nodiscard]] const Json* get(const std::string& key) const;

  /// Object field insert-or-replace (first-set order is kept on dump).
  Json& set(const std::string& key, Json value);
  /// Array append.
  Json& push(Json value);

  /// Single-line canonical serialization.
  [[nodiscard]] std::string dump() const;

 private:
  void dump_to(std::string& out) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> fields_;  ///< kObject
  std::vector<Json> items_;                           ///< kArray
};

}  // namespace sickle
