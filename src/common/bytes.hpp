// Bounds-checked POD/vector/string byte serialization, shared by the
// checkpoint wire format (core/checkpoint.cpp) and the process backend's
// worker-result blob (core/result_codec.cpp).  Little-endian PODs, u64
// length prefixes; every reader overrun throws InputError naming the byte
// offset, so a short or corrupt payload can never read past the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace mafia {

/// Append-only POD/vector serializer.
struct ByteWriter {
  std::vector<std::uint8_t> out;

  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
    out.insert(out.end(), p, p + sizeof(T));
  }

  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.data());
    out.insert(out.end(), p, p + v.size() * sizeof(T));
  }

  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    out.insert(out.end(), p, p + s.size());
  }
};

/// Bounds-checked reader.  `context` prefixes every error message so each
/// format keeps its own diagnostics ("checkpoint: truncated payload at
/// byte N" vs "mp result: ...").
struct ByteReader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t at = 0;
  const char* context = "checkpoint";

  void need(std::size_t bytes) {
    require_input(at + bytes >= at && at + bytes <= size,
                  std::string(context) + ": truncated payload at byte " +
                      std::to_string(at));
  }

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T value;
    std::memcpy(&value, data + at, sizeof(T));
    at += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::uint64_t>();
    require_input(n <= size / sizeof(T),
                  std::string(context) + ": implausible array length at byte " +
                      std::to_string(at));
    need(static_cast<std::size_t>(n) * sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    // An empty vector's data() may be null, which memcpy must not receive
    // even for a zero length.
    if (!v.empty()) std::memcpy(v.data(), data + at, v.size() * sizeof(T));
    at += v.size() * sizeof(T);
    return v;
  }

  std::string str() {
    const auto n = pod<std::uint64_t>();
    require_input(n <= size,
                  std::string(context) + ": implausible string length at byte " +
                      std::to_string(at));
    need(static_cast<std::size_t>(n));
    std::string s(reinterpret_cast<const char*>(data + at),
                  static_cast<std::size_t>(n));
    at += s.size();
    return s;
  }
};

}  // namespace mafia
