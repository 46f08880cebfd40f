// Host-thread fan-out for explorer sweeps and the model checker's frontier.
//
// Every sweep schedule runs in its own World (scheduler, network, sites,
// failpoints, ledgers all World members), so runs are independent and
// bit-identical regardless of which host thread executes them. The sweeps
// pre-generate their schedule lists, fan the runs out here, and merge results
// in schedule order — failure ordering and replay recipes are byte-identical
// at any thread count. CheckSpec expands frontier chunks the same way and
// merges them in frontier order.
#ifndef SRC_BASE_PARALLEL_H_
#define SRC_BASE_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace camelot {

// Thread count used when a sweep config leaves sweep_threads at 0, and by
// CheckSpec: CAMELOT_SWEEP_THREADS if set (>= 1), else hardware_concurrency
// clamped to [1, 16].
int DefaultSweepThreads();

// configured >= 1 -> configured; otherwise DefaultSweepThreads().
int ResolveSweepThreads(int configured);

// Runs fn(i) for every i in [0, n), fanned across up to `threads` host
// threads (serial when threads <= 1 or n <= 1); items are handed out via an
// atomic counter. Blocks until all items complete. fn must keep parallel
// items independent — no shared mutable state without the caller's own
// synchronization.
void ParallelFor(int threads, size_t n, const std::function<void(size_t)>& fn);

}  // namespace camelot

#endif  // SRC_BASE_PARALLEL_H_
