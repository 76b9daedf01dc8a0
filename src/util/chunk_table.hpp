// ChunkTable — a row table in fixed chunks of 2^12 rows that never move.
//
// Row i lives at chunk[i >> 12][i & 4095]. Appending allocates a chunk's
// storage once per 4,096 rows but constructs each row only when it is
// appended, so growth first-touches just the pages it fills, and no row is
// ever copied or moved: a reference to a row stays valid for the table's
// life. A table can instead borrow a caller's contiguous rows (its chunk
// pointers point into them, nothing is copied); such a table never appends.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace sps {

template <class T>
class ChunkTable {
  using Row = std::remove_const_t<T>;
  static_assert(std::is_trivially_destructible_v<Row>,
                "rows are released with their chunk, never one by one");

 public:
  static constexpr unsigned kShift = 12;
  static constexpr std::size_t kChunkRows = std::size_t{1} << kShift;

  /// An empty table that owns its chunks and grows by emplace_back.
  ChunkTable() = default;

  /// Borrow `rows` without copying them. They must outlive the table and
  /// stay where they are; the table never appends.
  explicit ChunkTable(std::span<T> rows)
      : size_(rows.size()), borrowed_(true) {
    chunks_.reserve((rows.size() + kChunkRows - 1) >> kShift);
    for (std::size_t i = 0; i < rows.size(); i += kChunkRows)
      chunks_.push_back(rows.data() + i);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool borrowed() const { return borrowed_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i >> kShift][i & (kChunkRows - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i >> kShift][i & (kChunkRows - 1)];
  }

  /// Construct one row at the end. Every kChunkRows rows this allocates a
  /// fresh chunk without touching it; rows already in the table stay put.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    SPS_CHECK_MSG(!borrowed_, "emplace_back on a borrowed ChunkTable");
    const std::size_t slot = size_ & (kChunkRows - 1);
    if (slot == 0) {
      // std::allocator hands out storage and constructs nothing in it.
      std::unique_ptr<Row, FreeChunk> chunk(
          std::allocator<Row>().allocate(kChunkRows));
      chunks_.push_back(chunk.get());
      owned_.push_back(std::move(chunk));
    }
    T& row = *std::construct_at(owned_.back().get() + slot,
                                std::forward<Args>(args)...);
    ++size_;
    return row;
  }

 private:
  /// Releases a chunk's storage; its rows need no destructor call.
  struct FreeChunk {
    void operator()(Row* chunk) const {
      std::allocator<Row>().deallocate(chunk, kChunkRows);
    }
  };

  /// Row pointers of each chunk; the only path a read takes.
  std::vector<T*> chunks_;
  /// The chunks this table allocated (none when borrowed).
  std::vector<std::unique_ptr<Row, FreeChunk>> owned_;
  std::size_t size_ = 0;
  bool borrowed_ = false;
};

}  // namespace sps
