// JsonWriter: the one JSON producer behind every machine-readable report
// (the admin plane's ?format=json bodies, /healthz, /stack, the bench
// artifacts that embed them).
//
// Scopes open and close explicitly, the writer places the commas, and every
// string goes through one escaping rule: `"` and `\` are backslash-escaped,
// \n \r \t use their short forms, every other control byte becomes \u00XX,
// and bytes >= 0x80 pass through unchanged. It does not validate nesting; a
// report that closes what it opens gets a well-formed document.
//
//   JsonWriter json;
//   json.BeginObject().Key("server").String(id).Key("spans").BeginArray();
//   for (...) json.Int(n);
//   json.EndArray().EndObject();
//   return json.Take();
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace delos {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  // An object member's key; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter& Int(T value) {
    return Raw(std::to_string(value));
  }
  // Shortest "%g" form, the way an unconfigured std::ostream prints it.
  JsonWriter& Double(double value);
  // Fixed-point with `decimals` digits after the point ("%.*f").
  JsonWriter& Fixed(double value, int decimals);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  // A value that is already a JSON document (e.g. another report's body).
  JsonWriter& Raw(std::string_view json);

  std::string Take() { return std::move(out_); }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  // Emits the comma that separates this value from its predecessor.
  void Separate();

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace delos
