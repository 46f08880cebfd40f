#include "src/harness/experiments.h"

#include "src/base/logging.h"

namespace camelot {

namespace {

std::string ServerName(int site) { return "server:" + std::to_string(site); }

// The throughput testbed's VAX 8200 multiprocessor profile: slower IPC, a
// per-event TranMan CPU burst, the single-master-processor kernel
// bottleneck, and the Table-1 raw disk write time for a log force.
constexpr SimDuration kCpuPerEvent = Usec(12000);
constexpr SimDuration kKernelCpuPerIpc = Usec(4000);
// One log force on the testbed's shared disk: Table 1's 26.8 ms raw track
// write plus seek/rotational positioning. Slow enough that the logger is the
// update-test bottleneck, as the paper reports.
constexpr SimDuration kForceLatency = Usec(50000);
constexpr double kIpcScale = 3.0;  // VAX 8200 local IPC is ~3x slower than the RT.

}  // namespace

Async<Status> MinimalTransaction(AppClient& app, int subordinates, TxnKind kind,
                                 CommitOptions options, int64_t value, TxnOutcome outcome) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  for (int site = 0; site <= subordinates; ++site) {
    if (kind == TxnKind::kWrite) {
      Status st = co_await app.WriteInt(tid, ServerName(site), "obj", value);
      if (!st.ok()) {
        co_await app.Abort(tid);
        co_return st;
      }
    } else {
      auto v = co_await app.ReadInt(tid, ServerName(site), "obj");
      if (!v.ok()) {
        co_await app.Abort(tid);
        co_return v.status();
      }
    }
  }
  if (outcome == TxnOutcome::kAbort) {
    co_return co_await app.Abort(tid);
  }
  Status st = co_await app.Commit(tid, options);
  co_return st;
}

namespace {

Async<void> DriveLatency(World& world, const LatencyConfig& config, LatencyResult* out) {
  AppClient app(world.site(0));
  Scheduler& sched = world.sched();
  const int subs = config.subordinates;

  // Warm the buffer pools (the paper reports steady-state latencies).
  co_await MinimalTransaction(app, subs, TxnKind::kWrite, CommitOptions::Optimized(), 0);
  co_await sched.Delay(Usec(300000));

  for (int rep = 0; rep < config.repetitions; ++rep) {
    const SimTime start = sched.now();
    Status st = co_await MinimalTransaction(app, subs, config.kind, config.options, rep);
    if (!st.ok()) {
      ++out->failures;
      co_await sched.Delay(Usec(300000));
      continue;
    }
    const SimTime committed = sched.now();
    out->total_ms.Add(ToMs(committed - start));
    out->tm_ms.Add(ToMs(committed - start) - OperationProcessingMs(subs));

    if (config.pipelined) {
      continue;  // Next transaction starts immediately (the paper's app).
    }

    // Isolated mode: measure the critical path by waiting until every
    // server's lock table is empty.
    while (true) {
      bool any_locks = false;
      for (int site = 0; site <= subs; ++site) {
        if (world.site(site).server(ServerName(site))->locks().held_lock_count() > 0) {
          any_locks = true;
          break;
        }
      }
      if (!any_locks) {
        break;
      }
      co_await sched.Delay(Usec(200));
    }
    out->critical_ms.Add(ToMs(sched.now() - start));

    // Let the epilogue (delayed acks, End records) finish so repetitions are
    // independent ("no other activity is in progress").
    co_await sched.Delay(Usec(250000));
  }
}

}  // namespace

WorldConfig LatencyWorldConfig(int subordinates, uint64_t seed, bool deterministic) {
  WorldConfig cfg;
  cfg.site_count = subordinates + 1;
  cfg.seed = seed;
  if (deterministic) {
    cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;
    cfg.net.receive_skew_mean = 0;
  }
  // Plenty of worker threads and negligible per-event CPU: the latency
  // experiments measure the protocols, not queueing.
  cfg.tranman.worker_threads = 20;
  cfg.tranman.cpu_per_event = Usec(150);
  return cfg;
}

LatencyResult RunLatencyExperiment(const LatencyConfig& config) {
  WorldConfig world_cfg = LatencyWorldConfig(config.subordinates, config.seed,
                                             config.deterministic);
  World world(world_cfg);
  world.net().set_use_multicast(config.multicast);
  for (int site = 0; site < world.site_count(); ++site) {
    DataServer* server = world.AddServer(site, ServerName(site));
    server->CreateObjectForSetup("obj", EncodeInt64(0));
  }
  LatencyResult result;
  world.sched().Spawn(DriveLatency(world, config, &result));
  world.RunUntilIdle();
  return result;
}

namespace {

Async<void> DriveThroughputClient(World& world, int pair, TxnKind kind, SimTime warmup_end,
                                  SimTime end, uint64_t* commits) {
  AppClient app(world.site(0));
  Scheduler& sched = world.sched();
  const std::string server = "pair" + std::to_string(pair);
  Rng rng(world.config().seed * 1000003 + static_cast<uint64_t>(pair));
  int64_t next = 0;
  while (sched.now() < end) {
    // A little think time de-phases the clients (real applications are not
    // lock-stepped; without this, log forces never collide and group commit
    // has nothing to batch).
    co_await sched.Delay(
        static_cast<SimDuration>(rng.NextExponential(5000.0)));
    auto begin = co_await app.Begin();
    if (!begin.ok()) {
      co_return;
    }
    Status st;
    if (kind == TxnKind::kWrite) {
      st = co_await app.WriteInt(*begin, server, "obj", next++);
    } else {
      auto v = co_await app.ReadInt(*begin, server, "obj");
      st = v.ok() ? OkStatus() : v.status();
    }
    if (!st.ok()) {
      co_await app.Abort(*begin);
      continue;
    }
    st = co_await app.Commit(*begin);
    if (st.ok() && sched.now() >= warmup_end && sched.now() < end) {
      ++*commits;
    }
  }
}

}  // namespace

ThroughputResult RunThroughputExperiment(const ThroughputConfig& config) {
  WorldConfig cfg;
  cfg.site_count = 1;
  cfg.seed = config.seed;
  cfg.net.send_jitter_mean = 0;
  cfg.net.stall_probability = 0;  // Single-site experiment; no network involved.
  cfg.net.receive_skew_mean = 0;
  // The VAX 8200 profile.
  auto scale = [](SimDuration d) {
    return static_cast<SimDuration>(static_cast<double>(d) * kIpcScale);
  };
  cfg.ipc.local_rpc = scale(cfg.ipc.local_rpc);
  cfg.ipc.local_rpc_server = scale(cfg.ipc.local_rpc_server);
  cfg.ipc.local_oneway = scale(cfg.ipc.local_oneway);
  cfg.ipc.local_out_of_line = scale(cfg.ipc.local_out_of_line);
  cfg.ipc.kernel_cpu_per_ipc = kKernelCpuPerIpc;
  cfg.tranman.worker_threads = config.tranman_threads;
  cfg.tranman.cpu_per_event = kCpuPerEvent;
  cfg.log.group_commit = config.group_commit;
  cfg.log.force_latency = kForceLatency;

  World world(cfg);
  for (int pair = 0; pair < config.pairs; ++pair) {
    DataServer* server = world.AddServer(0, "pair" + std::to_string(pair));
    server->CreateObjectForSetup("obj", EncodeInt64(0));
  }

  const SimTime warmup_end = world.sched().now() + config.duration / 10;
  const SimTime end = world.sched().now() + config.duration;
  uint64_t commits = 0;
  for (int pair = 0; pair < config.pairs; ++pair) {
    world.sched().Spawn(
        DriveThroughputClient(world, pair, config.kind, warmup_end, end, &commits));
  }
  world.RunUntilIdle();

  ThroughputResult result;
  result.commits = commits;
  result.tps = static_cast<double>(commits) /
               (static_cast<double>(end - warmup_end) / 1e6);
  result.disk_writes = world.site(0).log().counters().disk_writes;
  result.pool_queued_events = world.site(0).tranman().pool().queued_events();
  return result;
}

}  // namespace camelot
