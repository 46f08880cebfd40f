#include "src/base/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace camelot {

int DefaultSweepThreads() {
  if (const char* env = std::getenv("CAMELOT_SWEEP_THREADS"); env != nullptr) {
    const int v = std::atoi(env);
    if (v >= 1) {
      return std::min(v, 64);
    }
  }
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 16);
}

int ResolveSweepThreads(int configured) {
  return configured >= 1 ? configured : DefaultSweepThreads();
}

void ParallelFor(int threads, size_t n, const std::function<void(size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<size_t> next{0};
  const auto worker = [&next, n, &fn] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      fn(i);
    }
  };
  const size_t workers = std::min(static_cast<size_t>(threads), n);
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t t = 1; t < workers; ++t) {
    pool.emplace_back(worker);
  }
  worker();  // The calling thread pulls items too.
  for (std::thread& th : pool) {
    th.join();
  }
}

}  // namespace camelot
