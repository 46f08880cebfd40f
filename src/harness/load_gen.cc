#include "src/harness/load_gen.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace camelot {
namespace {

constexpr int64_t kInitialBalance = 1000;
constexpr int64_t kMaxAmount = 5;  // Transfer amounts are 1..kMaxAmount.
constexpr double kRetryBudgetCap = 50.0;

}  // namespace

// --- ZipfianGenerator ---------------------------------------------------------
//
// Gray et al.'s rejection-free inverse-CDF approximation as popularized by
// YCSB: two CDF breakpoints handle the head exactly, the tail uses the
// closed-form inverse of the continuous approximation.

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(std::max<uint64_t>(n, 1)), theta_(theta) {
  if (theta_ <= 0.0) {
    return;  // Uniform; Next() special-cases it.
  }
  zetan_ = 0;
  for (uint64_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) const {
  if (theta_ <= 0.0) {
    return rng.NextBounded(n_);
  }
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double frac = std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t key = static_cast<uint64_t>(static_cast<double>(n_) * frac);
  return std::min(key, n_ - 1);
}

// --- LoadGenStats -------------------------------------------------------------

double LoadGenStats::GoodputTps(SimTime from, SimTime to) const {
  if (to <= from) {
    return 0;
  }
  uint64_t commits = 0;
  for (size_t i = 0; i < goodput_buckets.size(); ++i) {
    const SimTime lo = start + static_cast<SimTime>(i) * kBucketWidth;
    const SimTime hi = lo + kBucketWidth;
    if (lo >= from && hi <= to) {
      commits += goodput_buckets[i];
    }
  }
  return static_cast<double>(commits) * 1e6 / static_cast<double>(to - from);
}

// --- LoadGen ------------------------------------------------------------------

BankWorkloadConfig ToBankConfig(const LoadGenConfig& cfg) {
  BankWorkloadConfig bank;
  bank.accounts_per_site = cfg.accounts_per_site;
  bank.initial_balance = kInitialBalance;
  bank.max_amount = kMaxAmount;
  bank.options = cfg.options;
  bank.rng_seed = cfg.rng_seed;
  return bank;
}

LoadGen::LoadGen(World& world, LoadGenConfig cfg)
    : world_(world),
      cfg_(cfg),
      rng_(cfg.rng_seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL),
      budget_(cfg.retry_budget_ratio, kRetryBudgetCap),
      zipf_(static_cast<uint64_t>(world.site_count()) *
                static_cast<uint64_t>(std::max(cfg.accounts_per_site, 1)),
            cfg.zipf_theta) {}

void LoadGen::Start() {
  stats_.start = world_.sched().now();
  world_.sched().Spawn(ArrivalLoop());
}

Async<void> LoadGen::ArrivalLoop() {
  const SimTime end = world_.sched().now() + cfg_.duration;
  const double mean_gap_us = 1e6 / std::max(cfg_.offered_tps, 1e-9);
  while (world_.sched().now() < end) {
    const SimTime arrival = world_.sched().now();
    ++stats_.offered;
    ++in_flight_;
    stats_.in_flight_peak = std::max(stats_.in_flight_peak, in_flight_);
    world_.sched().Spawn(RunTxn(stats_.offered, arrival));
    const SimDuration gap = static_cast<SimDuration>(rng_.NextExponential(mean_gap_us));
    co_await world_.sched().Delay(std::max<SimDuration>(gap, 1));
  }
  arrivals_done_ = true;
}

LoadGen::Pick LoadGen::PickAccount(Rng& rng) const {
  const uint64_t key = zipf_.Next(rng);
  const int per_site = std::max(cfg_.accounts_per_site, 1);
  return Pick{static_cast<int>(key / static_cast<uint64_t>(per_site)),
              static_cast<int>(key % static_cast<uint64_t>(per_site))};
}

void LoadGen::RecordCommit(SimTime arrival, SimTime deadline) {
  const SimTime now = world_.sched().now();
  ++stats_.committed;
  stats_.latency_ms.Add(static_cast<double>(now - arrival) / 1000.0);
  if (deadline > 0 && now > deadline) {
    ++stats_.late_commits;
    return;
  }
  ++stats_.goodput;
  if (now >= stats_.start) {
    const size_t bucket = static_cast<size_t>((now - stats_.start) / LoadGenStats::kBucketWidth);
    if (stats_.goodput_buckets.size() <= bucket) {
      stats_.goodput_buckets.resize(bucket + 1, 0);
    }
    ++stats_.goodput_buckets[bucket];
  }
}

Async<Status> LoadGen::Attempt(AppClient& app, Rng& rng, bool read_only, SimTime /*deadline*/) {
  Pick from = PickAccount(rng);
  Pick to = PickAccount(rng);
  if (from.site == to.site && from.index == to.index) {
    to.index = (to.index + 1) % std::max(cfg_.accounts_per_site, 1);
    if (cfg_.accounts_per_site <= 1) {
      to.site = (to.site + 1) % world_.site_count();
    }
  }
  const int64_t amount = 1 + static_cast<int64_t>(rng.NextBounded(kMaxAmount));
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return begin.status();
  }
  const Tid tid = *begin;
  auto a = co_await app.ReadInt(tid, BankServerName(from.site), BankAccountName(from.index));
  auto b = co_await app.ReadInt(tid, BankServerName(to.site), BankAccountName(to.index));
  Status staged = !a.ok() ? a.status() : b.status();
  if (staged.ok() && !read_only) {
    Status w1 = co_await app.WriteInt(tid, BankServerName(from.site),
                                      BankAccountName(from.index), *a - amount);
    Status w2 = co_await app.WriteInt(tid, BankServerName(to.site),
                                      BankAccountName(to.index), *b + amount);
    staged = !w1.ok() ? w1 : w2;
  }
  if (!staged.ok()) {
    co_await app.Abort(tid);
    co_return staged;
  }
  // Long-lived transactions: think with the locks held before committing, so
  // a nemesis crash has a real window to catch the family mid-flight.
  if (cfg_.hold_time_mean > 0) {
    SimDuration hold = static_cast<SimDuration>(
        rng.NextExponential(static_cast<double>(cfg_.hold_time_mean)));
    if (cfg_.hold_time_max > 0) {
      hold = std::min(hold, cfg_.hold_time_max);
    }
    co_await world_.sched().Delay(std::max<SimDuration>(hold, 1));
  }
  co_return co_await app.Commit(tid, cfg_.options);
}

Async<void> LoadGen::RunTxn(uint64_t id, SimTime arrival) {
  // The absolute deadline is fixed at arrival and survives retries.
  const SimTime deadline = cfg_.deadline > 0 ? arrival + cfg_.deadline : 0;
  const int home = static_cast<int>(id % static_cast<uint64_t>(world_.site_count()));
  AppClient app(world_.site(home));
  if (cfg_.propagate_deadlines) {
    app.set_deadline(deadline);
  }
  Rng rng(cfg_.rng_seed * 1000003 + id * 7919 + 23);
  const bool read_only = rng.NextBool(cfg_.read_fraction);

  budget_.OnAttempt();
  Status last = OkStatus();
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Past-deadline retries are pure waste even when nothing downstream
      // sheds; the budget gates the rest so a mass failure cannot double or
      // triple the offered load (the retry-storm amplifier).
      if (!cfg_.retry_past_deadline && deadline > 0 && world_.sched().now() > deadline) {
        break;
      }
      if (!budget_.TryRetry()) {
        break;
      }
      ++stats_.retries;
    }
    last = co_await Attempt(app, rng, read_only, deadline);
    if (last.ok()) {
      RecordCommit(arrival, deadline);
      break;
    }
  }
  if (!last.ok()) {
    if (last.code() == StatusCode::kOverloaded) {
      ++stats_.shed;
    } else {
      ++stats_.failed;
    }
  }
  stats_.retries_suppressed = budget_.suppressed();
  --in_flight_;
  ++finished_;
}

}  // namespace camelot
