// Byte-level serialization for checkpoints (analysis/checkpoint.h).
//
// A deliberately boring format: fixed-width little-endian integers,
// bit-cast doubles, and length-prefixed containers, written into a
// std::string and read back with hard bounds checks.  Determinism is
// the whole point — the checkpoint/resume contract is "byte-identical
// final report", so serialize(deserialize(bytes)) must reproduce
// `bytes` exactly; every writer below is a pure function of the value.
//
// Versioning lives one level up: ByteWriter/ByteReader know nothing
// about magic numbers or format versions (analysis::Checkpoint owns the
// envelope); they only guarantee that a truncated or overlong buffer is
// a clean SerdeError, never UB.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ct::util {

/// Thrown on a truncated, overlong, or structurally invalid buffer.
class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i32(std::int32_t v) { fixed(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { fixed(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { fixed(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// Length prefix for any container; pair with ByteReader::size().
  void size(std::size_t n) { u64(static_cast<std::uint64_t>(n)); }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  template <typename T>
  void fixed(T v) {
    static_assert(std::is_unsigned_v<T>);
    char raw[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      raw[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    buf_.append(raw, sizeof(T));
  }

  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(fixed<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(fixed<std::uint64_t>()); }
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) throw SerdeError("ByteReader: invalid bool encoding");
    return v != 0;
  }
  double f64() { return std::bit_cast<double>(fixed<std::uint64_t>()); }

  std::string str() {
    const std::uint64_t n = u64();
    const std::string_view s = take(checked_size(n));
    return std::string(s);
  }

  /// Container length; bounded by the remaining bytes so a corrupt
  /// length cannot drive a multi-gigabyte reserve.
  std::size_t size() { return checked_size(u64()); }

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

  /// End-of-value check: a well-formed checkpoint consumes every byte.
  void expect_end() const {
    if (!at_end()) throw SerdeError("ByteReader: trailing bytes after value");
  }

 private:
  std::string_view take(std::size_t n) {
    if (n > remaining()) throw SerdeError("ByteReader: truncated buffer");
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t checked_size(std::uint64_t n) {
    if (n > remaining()) throw SerdeError("ByteReader: length prefix exceeds buffer");
    return static_cast<std::size_t>(n);
  }

  template <typename T>
  T fixed() {
    static_assert(std::is_unsigned_v<T>);
    const std::string_view raw = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(raw[i])) << (8 * i);
    }
    return v;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// A one-byte enum of `count` enumerators; a byte past them is refused.
template <typename E>
E load_enum(ByteReader& r, std::size_t count) {
  const std::uint8_t v = r.u8();
  if (v >= count) throw SerdeError("ByteReader: enum byte " + std::to_string(v) + " out of range");
  return static_cast<E>(v);
}

/// An i32 id in [0, bound); an id outside is refused, naming `what`.
inline std::int32_t load_id(ByteReader& r, std::int64_t bound, const char* what) {
  const std::int32_t id = r.i32();
  if (id < 0 || id >= bound) {
    throw SerdeError(std::string(what) + " " + std::to_string(id) + " outside [0, " +
                     std::to_string(bound) + ")");
  }
  return id;
}

// --- container helpers ----------------------------------------------
// Free functions so element writers compose: save_vec(w, v, fn).

template <typename T, typename Fn>
void save_vec(ByteWriter& w, const std::vector<T>& v, Fn&& fn) {
  w.size(v.size());
  for (const T& x : v) fn(w, x);
}

template <typename T, typename Fn>
void load_vec(ByteReader& r, std::vector<T>& v, Fn&& fn) {
  const std::size_t n = r.size();
  v.clear();
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(fn(r));
}

template <typename T, typename Fn>
void save_set(ByteWriter& w, const std::set<T>& s, Fn&& fn) {
  w.size(s.size());
  for (const T& x : s) fn(w, x);
}

template <typename T, typename Fn>
void load_set(ByteReader& r, std::set<T>& s, Fn&& fn) {
  const std::size_t n = r.size();
  s.clear();
  for (std::size_t i = 0; i < n; ++i) s.insert(fn(r));
}

template <typename K, typename V, typename KFn, typename VFn>
void save_map(ByteWriter& w, const std::map<K, V>& m, KFn&& kfn, VFn&& vfn) {
  w.size(m.size());
  for (const auto& [k, v] : m) {
    kfn(w, k);
    vfn(w, v);
  }
}

template <typename K, typename V, typename KFn, typename VFn>
void load_map(ByteReader& r, std::map<K, V>& m, KFn&& kfn, VFn&& vfn) {
  const std::size_t n = r.size();
  m.clear();
  for (std::size_t i = 0; i < n; ++i) {
    K k = kfn(r);
    m.emplace(std::move(k), vfn(r));
  }
}

}  // namespace ct::util
