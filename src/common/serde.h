// Compact binary serialization (the reproduction's stand-in for Thrift).
//
// Log entries, engine headers, and application ops are all encoded with this
// format: varint integers (zigzag for signed), length-prefixed strings, and
// composable helpers for optionals / vectors / maps. Decoding failures throw
// SerdeError, which is deterministic (every replica sees the same bytes).
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/errors.h"

namespace delos {

// Appends values to an owned byte buffer.
class Serializer {
 public:
  Serializer() = default;
  // Size-hinted constructor: pre-reserves the buffer so hot-path encoders
  // (e.g. Propose serializing a LogEntry of known size) avoid reallocation.
  explicit Serializer(size_t size_hint) { buffer_.reserve(size_hint); }

  void Reserve(size_t additional) { buffer_.reserve(buffer_.size() + additional); }

  // Encoded size of a varint, for exact size precomputation.
  static size_t VarintSize(uint64_t value) {
    size_t size = 1;
    while (value >= 0x80) {
      ++size;
      value >>= 7;
    }
    return size;
  }

  // Encoded size of a length-prefixed string.
  static size_t StringSize(std::string_view value) {
    return VarintSize(value.size()) + value.size();
  }

  void WriteVarint(uint64_t value) {
    while (value >= 0x80) {
      buffer_.push_back(static_cast<char>((value & 0x7f) | 0x80));
      value >>= 7;
    }
    buffer_.push_back(static_cast<char>(value));
  }

  void WriteSigned(int64_t value) {
    // Zigzag encoding.
    WriteVarint((static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63));
  }

  void WriteBool(bool value) { buffer_.push_back(value ? 1 : 0); }

  void WriteDouble(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    WriteFixed64(bits);
  }

  void WriteFixed64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>(value >> (8 * i)));
    }
  }

  void WriteString(std::string_view value) {
    WriteVarint(value.size());
    buffer_.append(value.data(), value.size());
  }

  template <typename T, typename WriteFn>
  void WriteOptional(const std::optional<T>& value, WriteFn write_fn) {
    WriteBool(value.has_value());
    if (value.has_value()) {
      write_fn(*this, *value);
    }
  }

  template <typename T, typename WriteFn>
  void WriteVector(const std::vector<T>& values, WriteFn write_fn) {
    WriteVarint(values.size());
    for (const T& v : values) {
      write_fn(*this, v);
    }
  }

  template <typename K, typename V, typename Comp, typename WriteKey, typename WriteVal>
  void WriteMap(const std::map<K, V, Comp>& values, WriteKey write_key, WriteVal write_val) {
    WriteVarint(values.size());
    for (const auto& [k, v] : values) {
      write_key(*this, k);
      write_val(*this, v);
    }
  }

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

// Reads values back out of a byte view. Throws SerdeError on truncation or
// malformed varints.
class Deserializer {
 public:
  explicit Deserializer(std::string_view data) : data_(data) {}

  uint64_t ReadVarint() {
    // One-byte varints (lengths, op codes, small counters) are the common
    // case; they skip the loop.
    if (pos_ < data_.size() && (static_cast<unsigned char>(data_[pos_]) & 0x80) == 0) {
      return static_cast<unsigned char>(data_[pos_++]);
    }
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) {
        throw SerdeError("truncated varint");
      }
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      if (shift >= 64) {
        throw SerdeError("varint too long");
      }
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        return value;
      }
      shift += 7;
    }
  }

  int64_t ReadSigned() {
    const uint64_t z = ReadVarint();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  bool ReadBool() {
    if (pos_ >= data_.size()) {
      throw SerdeError("truncated bool");
    }
    return data_[pos_++] != 0;
  }

  double ReadDouble() {
    const uint64_t bits = ReadFixed64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  uint64_t ReadFixed64() {
    // Compare against the remaining bytes: `pos_ + 8 > data_.size()` would
    // wrap around for pos_ near SIZE_MAX and let the check pass.
    if (data_.size() - pos_ < 8) {
      throw SerdeError("truncated fixed64");
    }
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  std::string ReadString() { return std::string(ReadStringView()); }

  // Zero-copy read: the returned view borrows from the deserializer's input
  // and is valid only while that buffer lives. The bounds check compares the
  // claimed size against the remaining bytes — an adversarial varint size
  // near UINT64_MAX would make `pos_ + size` wrap and slip past a
  // `pos_ + size > data_.size()` formulation.
  std::string_view ReadStringView() {
    const uint64_t size = ReadVarint();
    if (size > data_.size() - pos_) {
      throw SerdeError("truncated string");
    }
    std::string_view out = data_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  template <typename T, typename ReadFn>
  std::optional<T> ReadOptional(ReadFn read_fn) {
    if (!ReadBool()) {
      return std::nullopt;
    }
    return read_fn(*this);
  }

  template <typename T, typename ReadFn>
  std::vector<T> ReadVector(ReadFn read_fn) {
    const uint64_t size = ReadVarint();
    std::vector<T> out;
    out.reserve(size);
    for (uint64_t i = 0; i < size; ++i) {
      out.push_back(read_fn(*this));
    }
    return out;
  }

  template <typename K, typename V, typename ReadKey, typename ReadVal>
  std::map<K, V> ReadMap(ReadKey read_key, ReadVal read_val) {
    const uint64_t size = ReadVarint();
    std::map<K, V> out;
    for (uint64_t i = 0; i < size; ++i) {
      K key = read_key(*this);
      V value = read_val(*this);
      out.emplace(std::move(key), std::move(value));
    }
    return out;
  }

  uint8_t ReadFixed8() {
    if (pos_ >= data_.size()) {
      throw SerdeError("truncated byte");
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace delos
