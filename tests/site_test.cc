// Tests for Site-level behaviour not covered elsewhere: the single-master-
// processor kernel bottleneck, crash/restart listener ordering, and
// incarnation visibility.
#include <gtest/gtest.h>

#include <vector>

#include "src/ipc/site.h"
#include "src/net/network.h"
#include "src/sim/scheduler.h"

namespace camelot {
namespace {

NetConfig QuietNet() {
  NetConfig cfg;
  cfg.send_jitter_mean = 0;
  cfg.stall_probability = 0;
  cfg.receive_skew_mean = 0;
  return cfg;
}

TEST(SiteKernelTest, KernelSerializesDispatchesOnOneProcessor) {
  Scheduler sched;
  Network net(sched, QuietNet());
  IpcConfig ipc;
  ipc.kernel_cpu_per_ipc = Msec(5);
  Site site(sched, net, SiteId{0}, ipc);
  // A handler that returns instantly: all cost is kernel dispatch.
  site.RegisterService("noop", [](RpcContext, uint32_t, Bytes) -> Async<RpcResult> {
    co_return RpcResult{OkStatus(), {}};
  });
  // Fire 4 concurrent calls; with an EXPONENTIAL kernel cost the individual
  // delays vary, but the four dispatches must be strictly serial: the total
  // elapsed time equals the SUM of the per-dispatch draws, which for the
  // seeded RNG is deterministic and must exceed any single draw by ~4x on
  // average. We assert seriality structurally: no two handlers overlap.
  int in_kernel_handlers = 0;
  int overlaps = 0;
  site.RegisterService("probe", [&](RpcContext, uint32_t, Bytes) -> Async<RpcResult> {
    if (in_kernel_handlers > 0) {
      ++overlaps;
    }
    ++in_kernel_handlers;
    co_await sched.Delay(Usec(1));
    --in_kernel_handlers;
    co_return RpcResult{OkStatus(), {}};
  });
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    sched.Spawn([](Site& s, int* d) -> Async<void> {
      co_await s.CallLocal("probe", 0, {}, RpcContext{}, false);
      ++*d;
    }(site, &done));
  }
  sched.RunUntilIdle();
  EXPECT_EQ(done, 4);
  // The kernel queue spaces the handlers out; the 1 us handler bodies cannot
  // overlap when every dispatch holds the single kernel processor first.
  EXPECT_EQ(overlaps, 0);
}

TEST(SiteKernelTest, ZeroKernelCostMeansFullConcurrency) {
  Scheduler sched;
  Network net(sched, QuietNet());
  Site site(sched, net, SiteId{0}, IpcConfig{});  // kernel_cpu_per_ipc = 0.
  int concurrent = 0;
  int peak = 0;
  site.RegisterService("slow", [&](RpcContext, uint32_t, Bytes) -> Async<RpcResult> {
    ++concurrent;
    peak = std::max(peak, concurrent);
    co_await sched.Delay(Msec(10));
    --concurrent;
    co_return RpcResult{OkStatus(), {}};
  });
  for (int i = 0; i < 4; ++i) {
    sched.Spawn([](Site& s) -> Async<void> {
      co_await s.CallLocal("slow", 0, {}, RpcContext{}, false);
    }(site));
  }
  sched.RunUntilIdle();
  EXPECT_EQ(peak, 4);
}

TEST(SiteTest, CrashListenersFireOnceAndInOrder) {
  Scheduler sched;
  Network net(sched, QuietNet());
  Site site(sched, net, SiteId{0}, IpcConfig{});
  std::vector<int> fired;
  site.AddCrashListener([&] { fired.push_back(1); });
  site.AddCrashListener([&] { fired.push_back(2); });
  site.Crash();
  site.Crash();  // Idempotent.
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  site.Restart();
  site.Restart();  // Idempotent.
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));  // A restart fires no crash listener.
  EXPECT_EQ(site.incarnation(), 1u);
  site.Crash();
  site.Restart();
  EXPECT_EQ(site.incarnation(), 2u);
}

TEST(SiteTest, CallsDuringCrashFailWithUnavailable) {
  Scheduler sched;
  Network net(sched, QuietNet());
  Site site(sched, net, SiteId{0}, IpcConfig{});
  site.RegisterService("slow", [&](RpcContext, uint32_t, Bytes) -> Async<RpcResult> {
    co_await sched.Delay(Msec(50));
    co_return RpcResult{OkStatus(), {}};
  });
  std::optional<RpcResult> result;
  sched.Spawn([](Site& s, std::optional<RpcResult>* out) -> Async<void> {
    *out = co_await s.CallLocal("slow", 0, {}, RpcContext{}, false);
  }(site, &result));
  sched.Post(Msec(10), [&] { site.Crash(); });
  sched.RunUntilIdle();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace camelot
