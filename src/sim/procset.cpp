#include "sim/procset.hpp"

#include <algorithm>
#include <sstream>

namespace sps::sim {

ProcSet ProcSet::firstN(std::uint32_t n) {
  ProcSet s;
  const std::uint32_t inlineN = std::min(n, kInlineBits);
  std::uint32_t full = inlineN / 64;
  for (std::uint32_t w = 0; w < full; ++w) s.words_[w] = ~std::uint64_t{0};
  const std::uint32_t inlineRem = inlineN % 64;
  if (inlineRem != 0) s.words_[full] = (std::uint64_t{1} << inlineRem) - 1;
  if (n <= kInlineBits) return s;
  const std::uint32_t fullWords = n / 64;
  const std::uint32_t rem = n % 64;
  s.extBase_ = kInlineWords;
  s.ext_.assign(fullWords - kInlineWords + (rem != 0 ? 1 : 0),
                ~std::uint64_t{0});
  if (rem != 0) s.ext_.back() = (std::uint64_t{1} << rem) - 1;
  return s;
}

void ProcSet::insertExt(std::uint32_t proc) {
  const std::uint32_t w = proc >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (proc & 63);
  if (ext_.empty()) {
    extBase_ = w;
    ext_.push_back(bit);
    return;
  }
  if (w < extBase_) {
    ext_.insert(ext_.begin(), extBase_ - w, 0);
    extBase_ = w;
  } else if (w - extBase_ >= ext_.size()) {
    ext_.resize(w - extBase_ + 1, 0);
  }
  ext_[w - extBase_] |= bit;
}

void ProcSet::eraseExt(std::uint32_t proc) {
  const std::uint32_t w = proc >> 6;
  if (ext_.empty() || w < extBase_ || w - extBase_ >= ext_.size()) return;
  ext_[w - extBase_] &= ~(std::uint64_t{1} << (proc & 63));
  trimExt();
}

void ProcSet::trimExt() {
  while (!ext_.empty() && ext_.back() == 0) ext_.pop_back();
  std::size_t lead = 0;
  while (lead < ext_.size() && ext_[lead] == 0) ++lead;
  if (lead != 0) {
    ext_.erase(ext_.begin(), ext_.begin() + static_cast<std::ptrdiff_t>(lead));
    extBase_ += static_cast<std::uint32_t>(lead);
  }
  if (ext_.empty()) extBase_ = 0;
}

std::uint32_t ProcSet::count() const {
  std::uint32_t c = 0;
  for (auto w : words_) c += static_cast<std::uint32_t>(__builtin_popcountll(w));
  for (auto w : ext_) c += static_cast<std::uint32_t>(__builtin_popcountll(w));
  return c;
}

bool ProcSet::intersects(const ProcSet& other) const {
  for (std::size_t i = 0; i < kInlineWords; ++i)
    if ((words_[i] & other.words_[i]) != 0) return true;
  if (ext_.empty() || other.ext_.empty()) return false;
  const std::uint32_t lo = std::max(extBase_, other.extBase_);
  const std::uint32_t hi =
      std::min(extBase_ + static_cast<std::uint32_t>(ext_.size()),
               other.extBase_ + static_cast<std::uint32_t>(other.ext_.size()));
  for (std::uint32_t w = lo; w < hi; ++w)
    if ((ext_[w - extBase_] & other.ext_[w - other.extBase_]) != 0)
      return true;
  return false;
}

bool ProcSet::isSubsetOf(const ProcSet& other) const {
  for (std::size_t i = 0; i < kInlineWords; ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  for (std::size_t i = 0; i < ext_.size(); ++i)
    if ((ext_[i] & ~other.extWord(extBase_ + i)) != 0) return false;
  return true;
}

ProcSet ProcSet::operator|(const ProcSet& other) const {
  ProcSet r = *this;
  r |= other;
  return r;
}

ProcSet ProcSet::operator&(const ProcSet& other) const {
  ProcSet r = *this;
  r &= other;
  return r;
}

ProcSet ProcSet::operator-(const ProcSet& other) const {
  ProcSet r = *this;
  r -= other;
  return r;
}

ProcSet& ProcSet::operator|=(const ProcSet& other) {
  for (std::size_t i = 0; i < kInlineWords; ++i) words_[i] |= other.words_[i];
  if (other.ext_.empty()) return *this;
  if (ext_.empty()) {
    extBase_ = other.extBase_;
    ext_ = other.ext_;
    return *this;
  }
  // Merge the two windows. The result stays canonical: its first and last
  // words each coincide with the (non-zero) base or tail word of whichever
  // operand extends furthest.
  const std::uint32_t lo = std::min(extBase_, other.extBase_);
  const std::uint32_t hi =
      std::max(extBase_ + static_cast<std::uint32_t>(ext_.size()),
               other.extBase_ + static_cast<std::uint32_t>(other.ext_.size()));
  std::vector<std::uint64_t> merged(hi - lo, 0);
  for (std::size_t i = 0; i < ext_.size(); ++i)
    merged[extBase_ - lo + i] = ext_[i];
  for (std::size_t i = 0; i < other.ext_.size(); ++i)
    merged[other.extBase_ - lo + i] |= other.ext_[i];
  ext_ = std::move(merged);
  extBase_ = lo;
  return *this;
}

ProcSet& ProcSet::operator&=(const ProcSet& other) {
  for (std::size_t i = 0; i < kInlineWords; ++i) words_[i] &= other.words_[i];
  if (ext_.empty()) return *this;
  if (other.ext_.empty()) {
    ext_.clear();
    extBase_ = 0;
    return *this;
  }
  for (std::size_t i = 0; i < ext_.size(); ++i)
    ext_[i] &= other.extWord(extBase_ + i);
  trimExt();
  return *this;
}

ProcSet& ProcSet::operator-=(const ProcSet& other) {
  for (std::size_t i = 0; i < kInlineWords; ++i) words_[i] &= ~other.words_[i];
  if (ext_.empty() || other.ext_.empty()) return *this;
  for (std::size_t i = 0; i < ext_.size(); ++i)
    ext_[i] &= ~other.extWord(extBase_ + i);
  trimExt();
  return *this;
}

ProcSet ProcSet::lowest(std::uint32_t n) const {
  SPS_CHECK_MSG(n <= count(),
                "lowest(" << n << ") from set of " << count());
  ProcSet r;
  std::uint32_t taken = 0;
  for (std::size_t w = 0; w < kInlineWords && taken < n; ++w) {
    std::uint64_t bits = words_[w];
    const auto avail = static_cast<std::uint32_t>(__builtin_popcountll(bits));
    if (taken + avail <= n) {
      r.words_[w] = bits;
      taken += avail;
    } else {
      while (taken < n) {
        const std::uint64_t low = bits & (~bits + 1);
        r.words_[w] |= low;
        bits ^= low;
        ++taken;
      }
    }
  }
  if (taken < n) {
    r.extBase_ = extBase_;
    for (std::size_t i = 0; i < ext_.size() && taken < n; ++i) {
      std::uint64_t bits = ext_[i];
      const auto avail = static_cast<std::uint32_t>(__builtin_popcountll(bits));
      if (taken + avail <= n) {
        r.ext_.push_back(bits);
        taken += avail;
      } else {
        std::uint64_t partial = 0;
        while (taken < n) {
          const std::uint64_t low = bits & (~bits + 1);
          partial |= low;
          bits ^= low;
          ++taken;
        }
        r.ext_.push_back(partial);
      }
    }
    r.trimExt();
  }
  return r;
}

std::uint32_t ProcSet::first() const {
  for (std::size_t w = 0; w < kInlineWords; ++w)
    if (words_[w] != 0)
      return static_cast<std::uint32_t>(w * 64) +
             static_cast<std::uint32_t>(__builtin_ctzll(words_[w]));
  if (!ext_.empty())
    return extBase_ * 64 +
           static_cast<std::uint32_t>(__builtin_ctzll(ext_.front()));
  SPS_CHECK_MSG(false, "first() on empty ProcSet");
  return 0;  // unreachable
}

std::string ProcSet::toString() const {
  std::ostringstream os;
  os << '{';
  bool firstRange = true;
  std::int64_t runStart = -1, prev = -2;
  auto flush = [&]() {
    if (runStart < 0) return;
    if (!firstRange) os << ',';
    firstRange = false;
    if (runStart == prev) os << runStart;
    else os << runStart << '-' << prev;
  };
  forEach([&](std::uint32_t p) {
    if (static_cast<std::int64_t>(p) != prev + 1) {
      flush();
      runStart = p;
    }
    prev = p;
  });
  flush();
  os << '}';
  return os.str();
}

}  // namespace sps::sim
