// Sorted set of disjoint closed integer ranges: the compact form of the
// packet numbers a connection has received (RFC 9000 §13.2.3 ACK ranges)
// and of the stream sequence numbers it has retired.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <vector>

#include "quic/wire.h"

namespace doxlab::quic {

/// Ranges are kept ascending, disjoint and non-adjacent, so the set has the
/// fewest ranges that cover its members. Adding the successor of the largest
/// member (the in-order case) is O(1); any other insert is a binary search
/// plus at most one merge.
class RangeSet {
 public:
  /// Adds `v`. Returns false if it was already a member.
  bool insert(std::uint64_t v) {
    if (ranges_.empty() || v > ranges_.back().last) {
      if (!ranges_.empty() && v - ranges_.back().last == 1) {
        ranges_.back().last = v;
      } else {
        ranges_.push_back(AckRange{v, v});
      }
      return true;
    }
    // First range ending at or after v; it exists because v <= back().last.
    auto next = std::ranges::lower_bound(ranges_, v, {}, &AckRange::last);
    if (next->first <= v) return false;
    const bool joins_next = v + 1 == next->first;
    const bool joins_prev =
        next != ranges_.begin() && std::prev(next)->last + 1 == v;
    if (joins_prev && joins_next) {
      std::prev(next)->last = next->last;
      ranges_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->last = v;
    } else if (joins_next) {
      next->first = v;
    } else {
      ranges_.insert(next, AckRange{v, v});
    }
    return true;
  }

  bool contains(std::uint64_t v) const {
    auto it = std::ranges::lower_bound(ranges_, v, {}, &AckRange::last);
    return it != ranges_.end() && it->first <= v;
  }

  /// The largest member, or nullopt when the set is empty.
  std::optional<std::uint64_t> largest() const {
    if (ranges_.empty()) return std::nullopt;
    return ranges_.back().last;
  }

  /// The ranges, ascending.
  const std::vector<AckRange>& ranges() const { return ranges_; }

  /// The ranges, descending: the order an ACK frame lists them in.
  std::vector<AckRange> descending() const {
    return {ranges_.rbegin(), ranges_.rend()};
  }

  void clear() { ranges_.clear(); }

 private:
  std::vector<AckRange> ranges_;
};

}  // namespace doxlab::quic
