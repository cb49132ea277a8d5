#include "src/common/json.h"

#include <cstdio>

namespace delos {

namespace {

// Appends `s` to `out` escaped for the inside of a JSON string literal.
void AppendEscaped(std::string_view s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  AppendEscaped(value, out_);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

void JsonWriter::Separate() {
  if (need_comma_) {
    out_ += ',';
  }
}

}  // namespace delos
