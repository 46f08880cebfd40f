// RecentFamilies: a set that remembers only the newest kCapacity families
// inserted. An insert past the capacity evicts the oldest family, in
// insertion order, so a per-family memory that a site keeps for its whole
// life (families a data server has concluded, families a transaction manager
// voted read-only on) stays bounded however long the site runs.
#ifndef SRC_BASE_RECENT_FAMILIES_H_
#define SRC_BASE_RECENT_FAMILIES_H_

#include <cstddef>
#include <unordered_set>
#include <vector>

#include "src/base/types.h"

namespace camelot {

class RecentFamilies {
 public:
  static constexpr size_t kCapacity = 4096;

  bool contains(const FamilyId& family) const { return set_.contains(family); }
  size_t size() const { return set_.size(); }

  void insert(const FamilyId& family) {
    if (!set_.insert(family).second) {
      return;
    }
    if (order_.size() < kCapacity) {
      order_.push_back(family);
      return;
    }
    set_.erase(order_[oldest_]);
    order_[oldest_] = family;
    oldest_ = (oldest_ + 1) % kCapacity;
  }

  void clear() {
    set_.clear();
    order_.clear();
    oldest_ = 0;
  }

 private:
  std::unordered_set<FamilyId> set_;
  // The members in insertion order; once full, a ring whose oldest entry is
  // order_[oldest_].
  std::vector<FamilyId> order_;
  size_t oldest_ = 0;
};

}  // namespace camelot

#endif  // SRC_BASE_RECENT_FAMILIES_H_
