// Fifo<T>: the simulator's small first-in, first-out queue (channel items and
// receivers, lock waiters, mutex waiters).
//
// libstdc++'s std::deque allocates a 64-byte map and a 512-byte node as soon
// as it is constructed, and a world constructs a channel or a lock entry for
// nearly every request it serves. A Fifo is a vector plus a read index: an
// empty one owns no memory, the first push allocates, and later pushes
// allocate only when the queue outgrows its capacity. Popped slots are
// reclaimed when the queue drains, or by sliding the live items down once
// the popped prefix is at least as long as they are (amortized O(1)).
#ifndef SRC_SIM_FIFO_H_
#define SRC_SIM_FIFO_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace camelot {

template <typename T>
class Fifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }

  T& front() { return items_[head_]; }
  void push_back(T item) { items_.push_back(std::move(item)); }

  // Removes and returns the oldest item; the queue must not be empty.
  T pop_front() {
    T item = std::move(items_[head_]);
    ++head_;
    if (head_ == items_.size()) {
      clear();
    } else if (head_ >= items_.size() - head_) {
      items_.erase(items_.begin(), items_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

  // Removes every item matching `pred`, keeping the others in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    items_.erase(std::remove_if(begin(), end(), pred), items_.end());
    if (empty()) {
      clear();
    }
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

  auto begin() { return items_.begin() + static_cast<ptrdiff_t>(head_); }
  auto end() { return items_.end(); }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace camelot

#endif  // SRC_SIM_FIFO_H_
