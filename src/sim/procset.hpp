// ProcSet — a capacity-parametric set of named processors.
//
// Local preemption (the model in the paper: no process migration) requires a
// suspended job to resume on the *identical* set of processors, so the
// simulator tracks concrete processor IDs rather than free counts. The
// representation is a hybrid:
//
//   * Small-set mode: processors < kInlineBits (1024) live in 16 inline
//     machine words — zero allocation, branch-free word loops, bit-identical
//     with the original fixed bitset for every machine of the paper's study
//     (CTC SP2 = 430, SDSC SP2 = 128, KTH SP2 = 100).
//   * Large-set mode: processors >= kInlineBits live in a dynamically sized
//     *window* of words [extBase, extBase + ext.size()) — memory is
//     proportional to the span a set actually touches, not to the machine.
//     On a 100k-processor machine the full free set costs ~12 KB, while a
//     job's allocation (first-fit keeps it clustered) costs a couple of
//     words wherever it landed.
//
// Canonical form: the window is trimmed (first and last ext words non-zero;
// extBase == 0 when the window is empty), so structural equality is
// memberwise equality and two equal sets always compare equal regardless of
// the operation history that built them. tests/test_procset_diff.cpp pins
// the hybrid against a plain reference bitset over adversarial run patterns.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace sps::sim {

class ProcSet {
 public:
  /// Small-set mode boundary: processors below this live in inline words.
  static constexpr std::uint32_t kInlineBits = 1024;
  static constexpr std::size_t kInlineWords = kInlineBits / 64;

  /// The empty set.
  constexpr ProcSet() : words_{} {}

  /// The set {0, 1, ..., n-1}, for any n.
  static ProcSet firstN(std::uint32_t n);

  [[nodiscard]] bool contains(std::uint32_t proc) const {
    if (proc < kInlineBits)
      return (words_[proc >> 6] >> (proc & 63)) & 1u;
    const std::uint32_t w = proc >> 6;
    if (w < extBase_ || w - extBase_ >= ext_.size()) return false;
    return (ext_[w - extBase_] >> (proc & 63)) & 1u;
  }

  void insert(std::uint32_t proc) {
    if (proc < kInlineBits) {
      words_[proc >> 6] |= std::uint64_t{1} << (proc & 63);
      return;
    }
    insertExt(proc);
  }

  void erase(std::uint32_t proc) {
    if (proc < kInlineBits) {
      words_[proc >> 6] &= ~(std::uint64_t{1} << (proc & 63));
      return;
    }
    eraseExt(proc);
  }

  void clear() {
    words_.fill(0);
    ext_.clear();
    extBase_ = 0;
  }

  [[nodiscard]] std::uint32_t count() const;
  /// Inline: Machine::allocate asks it of both avoid sets on every start.
  [[nodiscard]] bool empty() const {
    if (!ext_.empty()) return false;
    for (auto w : words_)
      if (w != 0) return false;
    return true;
  }

  [[nodiscard]] bool intersects(const ProcSet& other) const;
  [[nodiscard]] bool isSubsetOf(const ProcSet& other) const;

  [[nodiscard]] ProcSet operator|(const ProcSet& other) const;
  [[nodiscard]] ProcSet operator&(const ProcSet& other) const;
  /// Set difference: elements of *this not in other.
  [[nodiscard]] ProcSet operator-(const ProcSet& other) const;
  ProcSet& operator|=(const ProcSet& other);
  ProcSet& operator&=(const ProcSet& other);
  ProcSet& operator-=(const ProcSet& other);

  /// Structural equality; canonical trimming makes it semantic equality.
  bool operator==(const ProcSet& other) const = default;

  /// The n lowest-numbered processors of this set. Requires n <= count().
  [[nodiscard]] ProcSet lowest(std::uint32_t n) const;

  /// Lowest-numbered member; requires non-empty.
  [[nodiscard]] std::uint32_t first() const;

  /// Visit members in increasing order. F: void(std::uint32_t).
  template <typename F>
  void forEach(F&& f) const {
    for (std::size_t w = 0; w < kInlineWords; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
        f(static_cast<std::uint32_t>(w * 64) + bit);
        bits &= bits - 1;
      }
    }
    for (std::size_t i = 0; i < ext_.size(); ++i) {
      std::uint64_t bits = ext_[i];
      const auto base =
          static_cast<std::uint32_t>((extBase_ + i) * 64);
      while (bits != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
        f(base + bit);
        bits &= bits - 1;
      }
    }
  }

  /// Visit the non-empty words of *this in increasing order, as
  /// f(word index, bits): processor 64 * index + b is a member for each set
  /// bit b. F: void(std::uint32_t, std::uint64_t).
  template <typename F>
  void forEachWord(F&& f) const {
    for (std::size_t w = 0; w < kInlineWords; ++w)
      if (words_[w] != 0) f(static_cast<std::uint32_t>(w), words_[w]);
    for (std::size_t i = 0; i < ext_.size(); ++i)
      if (ext_[i] != 0) f(static_cast<std::uint32_t>(extBase_ + i), ext_[i]);
  }

  /// The same for the intersection with `other`, without building it:
  /// words where either set is empty cost one AND.
  template <typename F>
  void forEachWordAnd(const ProcSet& other, F&& f) const {
    for (std::size_t w = 0; w < kInlineWords; ++w)
      if (const std::uint64_t bits = words_[w] & other.words_[w]; bits != 0)
        f(static_cast<std::uint32_t>(w), bits);
    for (std::size_t i = 0; i < ext_.size(); ++i)
      if (const std::uint64_t bits = ext_[i] & other.extWord(extBase_ + i);
          bits != 0)
        f(static_cast<std::uint32_t>(extBase_ + i), bits);
  }

  /// Compact human-readable form, e.g. "{0-3,7,12-15}".
  [[nodiscard]] std::string toString() const;

 private:
  /// Word `w` (absolute index) of the dynamic window; 0 outside it.
  [[nodiscard]] std::uint64_t extWord(std::size_t w) const {
    return (w >= extBase_ && w - extBase_ < ext_.size())
               ? ext_[w - extBase_]
               : 0;
  }
  void insertExt(std::uint32_t proc);
  void eraseExt(std::uint32_t proc);
  /// Restore canonical form after an operation that may have cleared the
  /// window's leading or trailing words.
  void trimExt();

  /// Bits [0, kInlineBits): the zero-allocation small-set mode.
  std::array<std::uint64_t, kInlineWords> words_;
  /// Absolute word index of ext_[0]; >= kInlineWords when the window is
  /// non-empty, 0 when it is empty (canonical form).
  std::uint32_t extBase_ = 0;
  /// Bits [extBase_*64, (extBase_+ext_.size())*64): the large-set window.
  std::vector<std::uint64_t> ext_;
};

/// The shared empty set: the default of every "avoid nothing" argument and
/// the set of a job that holds no processors.
inline const ProcSet kNoProcs;

}  // namespace sps::sim
