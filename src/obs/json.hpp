#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lmas::obs {

/// Minimal self-contained JSON document: enough to serialize metric
/// snapshots, utilization series and trace events, and to parse them back
/// in tests (round-trip is part of the observability contract — a bench
/// artifact nobody can re-read is not an artifact). No external deps.
///
/// Objects preserve insertion order so emitted documents are deterministic
/// and diffs between bench runs stay readable.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}
  Json(double v) noexcept : type_(Type::Number), num_(v) {}
  Json(int v) noexcept : type_(Type::Number), num_(v) {}
  Json(unsigned v) noexcept : type_(Type::Number), num_(v) {}
  Json(long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(unsigned long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(long long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(unsigned long long v) noexcept : type_(Type::Number), num_(double(v)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(std::string s) : type_(Type::String) { payload().str = std::move(s); }
  Json(std::string_view s) : Json(std::string(s)) {}

  Json(const Json& o)
      : type_(o.type_),
        bool_(o.bool_),
        num_(o.num_),
        payload_(o.payload_ ? std::make_unique<Payload>(*o.payload_)
                            : nullptr) {}
  Json(Json&&) noexcept = default;
  Json& operator=(const Json& o) {
    if (this != &o) *this = Json(o);
    return *this;
  }
  Json& operator=(Json&&) noexcept = default;

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  template <typename T>
  static Json array_of(const std::vector<T>& v) {
    Json j = array();
    auto& arr = j.payload().arr;
    arr.reserve(v.size());
    for (const auto& x : v) arr.emplace_back(x);
    return j;
  }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return num_; }
  [[nodiscard]] std::int64_t as_int() const noexcept {
    return std::int64_t(num_);
  }
  [[nodiscard]] const std::string& as_string() const noexcept {
    return view().str;
  }

  // ----- array interface -----
  void push_back(Json v) {
    type_ = Type::Array;
    payload().arr.push_back(std::move(v));
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return type_ == Type::Object ? view().obj.size() : view().arr.size();
  }
  [[nodiscard]] const Json& at(std::size_t i) const { return view().arr.at(i); }
  [[nodiscard]] const std::vector<Json>& items() const noexcept {
    return view().arr;
  }

  // ----- object interface -----
  /// Insert-or-get a member; converts a null value to an object in place.
  Json& operator[](std::string_view key) {
    type_ = Type::Object;
    auto& obj = payload().obj;
    for (auto& [k, v] : obj) {
      if (k == key) return v;
    }
    obj.emplace_back(std::string(key), Json());
    return obj.back().second;
  }
  /// Append a member without operator[]'s duplicate-key search: O(1)
  /// instead of O(members). The caller guarantees `key` is new — e.g. a
  /// writer walking the unique names of a map.
  Json& append_member(std::string key, Json v) {
    type_ = Type::Object;
    auto& obj = payload().obj;
    obj.emplace_back(std::move(key), std::move(v));
    return obj.back().second;
  }
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] const Json* find(std::string_view key) const noexcept {
    for (const auto& [k, v] : view().obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept {
    return view().obj;
  }

  /// Serialize. indent < 0 emits the compact single-line form.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; nullopt on any syntax error or
  /// trailing garbage.
  static std::optional<Json> parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  /// String, array and object contents live out of line, allocated on
  /// first use, so the scalar nodes that make up most of a metrics
  /// snapshot (counter values, histogram bounds and buckets) stay small.
  struct Payload {
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;
  };
  Payload& payload() {
    if (!payload_) payload_ = std::make_unique<Payload>();
    return *payload_;
  }
  [[nodiscard]] const Payload& view() const noexcept {
    return payload_ ? *payload_ : empty_payload();
  }
  static const Payload& empty_payload() noexcept;

  Type type_;
  bool bool_ = false;
  double num_ = 0;
  std::unique_ptr<Payload> payload_;
};

}  // namespace lmas::obs
