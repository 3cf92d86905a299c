// Byte-buffer codec for serializing protocol states.
//
// Global states (process control state + variable stores + channel contents
// + buffers) are flattened into byte vectors before insertion into the
// model checker's visited set. Encoding is canonical: equal states encode to
// equal byte strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/contracts.hpp"

namespace ccref {

/// One component boundary inside an encoded state: the byte offset one past
/// the component's last byte, plus the dictionary class the component belongs
/// to (COLLAPSE compression interns components per class — e.g. all remote
/// machines share one dictionary — see verify/collapse.hpp).
struct ComponentMark {
  std::uint32_t end;
  std::uint8_t cls;

  friend bool operator==(const ComponentMark&, const ComponentMark&) = default;
};

/// A set of component ids of an encoded state (component c is the run that
/// its c-th boundary closes): the checkers splice a successor's encoding
/// from the components one action touched. Holds up to kMax ids in
/// ascending order, or every component.
struct ComponentSet {
  static constexpr int kMax = 4;
  bool all = false;
  std::uint8_t count = 0;
  std::uint16_t id[kMax] = {};

  [[nodiscard]] static ComponentSet every() { return {.all = true}; }

  /// Insert `c`, keeping the ids sorted and distinct.
  void add(std::uint16_t c) {
    int k = count;
    while (k > 0 && id[k - 1] > c) --k;
    if (k > 0 && id[k - 1] == c) return;
    CCREF_ASSERT(count < kMax);
    for (int j = count; j > k; --j) id[j] = id[j - 1];
    id[k] = c;
    ++count;
  }
};

class ByteSink {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  /// Append a pre-encoded byte run (e.g. composing a prefixed encoding from
  /// an already-encoded state).
  void raw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Append a pre-encoded run together with its component marks, shifted to
  /// this sink's coordinates. `data_marks` count from `origin`, the offset of
  /// `data` inside the encoding they were taken from: the liveness engine
  /// prefixes whole system encodings (origin 0), and the checkers splice
  /// runs of a parent state's components into a successor's encoding.
  void raw(std::span<const std::byte> data,
           std::span<const ComponentMark> data_marks,
           std::uint32_t origin = 0) {
    const auto base = static_cast<std::uint32_t>(buf_.size());
    raw(data);
    if (marks_) {
      // A splice copies most of a state's marks on every edge: one resize
      // and plain stores keep that copy short.
      const std::size_t at = marks_->size();
      marks_->resize(at + data_marks.size());
      ComponentMark* out = marks_->data() + at;
      for (const ComponentMark& m : data_marks)
        *out++ = {base + m.end - origin, m.cls};
    }
  }

  /// Close the current component: record the write position as a boundary of
  /// dictionary class `cls`. A plain ByteSink collects no marks, so state
  /// encoders call this unconditionally at no cost; a ComponentSink records
  /// the boundary for COLLAPSE compression.
  void boundary(std::uint8_t cls = 0) {
    if (marks_) marks_->push_back({static_cast<std::uint32_t>(buf_.size()), cls});
  }

  /// LEB128-style variable-length encoding; most state fields are tiny.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  [[nodiscard]] std::span<const std::byte> bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  void clear() {
    buf_.clear();
    if (marks_) marks_->clear();  // marks index into the cleared buffer
  }

 protected:
  std::vector<ComponentMark>* marks_ = nullptr;  // null: boundaries ignored

 private:
  std::vector<std::byte> buf_;
};

/// ByteSink that records the component boundaries emitted by a state
/// encoder. The checkers feed bytes() + marks() to the visited set; under
/// CompressionMode::Collapse each [previous mark, mark.end) slice is interned
/// in its class dictionary and only the index tuple is pooled. With
/// `record` false it records nothing and marks() stays empty, as for a
/// plain ByteSink: the tiers that do not collapse never read the marks.
class ComponentSink : public ByteSink {
 public:
  explicit ComponentSink(bool record = true) {
    if (record) marks_ = &marks_store_;
  }

  [[nodiscard]] std::span<const ComponentMark> marks() const {
    return marks_store_;
  }

 private:
  std::vector<ComponentMark> marks_store_;
};

class ByteSource {
 public:
  explicit ByteSource(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() {
    CCREF_REQUIRE(pos_ < data_.size());
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint16_t u16() {
    std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }

  std::uint32_t u32() {
    std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }

  std::uint64_t u64() {
    std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (!(b & 0x80)) return v;
      shift += 7;
      CCREF_ASSERT(shift < 64);
    }
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  /// Bytes consumed so far: the offset of the next read.
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace ccref
