#include "src/harness/oracle.h"

#include <string>
#include <vector>

namespace camelot {
namespace {

std::string Srv(int i) { return "server:" + std::to_string(i); }

Async<int64_t> ReadVault(AppClient& app, std::string srv) {
  auto begin = co_await app.Begin();
  if (!begin.ok()) {
    co_return -1;
  }
  auto value = co_await app.ReadInt(*begin, srv, "vault");
  co_await app.Commit(*begin);
  co_return value.value_or(-1);
}

}  // namespace

void AuditBalancesAndSubset(World& world, int site_count, int64_t initial_balance,
                            const std::vector<TransferAttempt>& attempts,
                            std::vector<std::string>* violations) {
  const int n = site_count;
  // Two observers read every vault; they must agree and every read must
  // succeed.
  std::vector<int64_t> balances(static_cast<size_t>(n), -1);
  for (int observer = 0; observer < 2 && observer < n; ++observer) {
    AppClient auditor(world.site(observer));
    for (int i = 0; i < n; ++i) {
      const int64_t balance = world.RunSync(ReadVault(auditor, Srv(i))).value_or(-1);
      if (balance < 0) {
        violations->push_back("audit read of vault " + std::to_string(i) + " from observer " +
                              std::to_string(observer) + " failed");
        return;
      }
      if (observer == 0) {
        balances[static_cast<size_t>(i)] = balance;
      } else if (balance != balances[static_cast<size_t>(i)]) {
        violations->push_back("observers disagree about vault " + std::to_string(i) + ": " +
                              std::to_string(balances[static_cast<size_t>(i)]) + " vs " +
                              std::to_string(balance));
      }
    }
  }

  // Money conserved, and the final balances are explained by some subset of
  // the attempted transfers that includes every client-visible OK.
  int64_t total = 0;
  std::vector<int64_t> delta(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    total += balances[static_cast<size_t>(i)];
    delta[static_cast<size_t>(i)] = balances[static_cast<size_t>(i)] - initial_balance;
  }
  if (total != static_cast<int64_t>(n) * initial_balance) {
    std::string detail;
    for (int i = 0; i < n; ++i) {
      detail += (i > 0 ? " " : "") + std::to_string(balances[static_cast<size_t>(i)]);
    }
    violations->push_back("money not conserved: total " + std::to_string(total) + " != " +
                          std::to_string(static_cast<int64_t>(n) * initial_balance) +
                          " (balances: " + detail + ")");
  }
  const size_t k = attempts.size();
  if (k <= 20) {  // Up to 2^k subsets; the explorer workloads are a handful.
    uint32_t must = 0;
    uint32_t may = 0;
    for (size_t i = 0; i < k; ++i) {
      if (attempts[i].status.ok()) {
        must |= 1u << i;
      }
      if (attempts[i].attempted) {
        may |= 1u << i;  // Never-attempted transfers cannot have committed.
      }
    }
    const auto apply = [&attempts](uint32_t mask, std::vector<int64_t>* d) {
      for (size_t i = 0; i < attempts.size(); ++i) {
        if (mask & (1u << i)) {
          (*d)[static_cast<size_t>(attempts[i].from_vault)] -= attempts[i].amount;
          (*d)[static_cast<size_t>(attempts[i].to_vault)] += attempts[i].amount;
        }
      }
    };
    // A candidate subset holds every client-OK transfer and no
    // never-attempted one, so an OK that was never attempted matches none;
    // otherwise only the undetermined transfers (attempted, not OK) are
    // enumerated, on top of the OK transfers' delta.
    bool matched = false;
    if ((must & ~may) == 0) {
      std::vector<int64_t> base(static_cast<size_t>(n), 0);
      apply(must, &base);
      std::vector<int64_t> d(static_cast<size_t>(n), 0);
      const uint32_t undetermined = may & ~must;
      for (uint32_t sub = undetermined; !matched; sub = (sub - 1) & undetermined) {
        d = base;
        apply(sub, &d);
        matched = (d == delta);
        if (sub == 0) {
          break;
        }
      }
    }
    if (!matched) {
      violations->push_back(
          "final balances match no subset of attempted transfers containing every "
          "client-OK commit (lost commit or partial transfer)");
    }
  }
}

void AuditLeaks(World& world, int site_count, std::vector<std::string>* violations) {
  for (int i = 0; i < site_count; ++i) {
    CamelotSite& s = world.site(i);
    // Every server on the site is audited, whatever the workload named them.
    size_t locks = 0;
    for (const auto& [name, server] : s.ServerMap()) {
      locks += server->locks().held_lock_count();
    }
    if (locks != 0) {
      violations->push_back("site " + std::to_string(i) + " leaked " + std::to_string(locks) +
                            " locks");
    }
    const size_t live = s.tranman().live_family_count();
    if (live != 0) {
      violations->push_back("site " + std::to_string(i) + " has " + std::to_string(live) +
                            " live families");
    }
    if (s.recovery_totals().failed_recoveries != 0) {
      violations->push_back("site " + std::to_string(i) + " reported " +
                            std::to_string(s.recovery_totals().failed_recoveries) +
                            " failed recoveries");
    }
  }
}

void AuditExactlyOnce(World& world, int site_count, std::vector<std::string>* violations) {
  for (int i = 0; i < site_count; ++i) {
    const uint64_t dups = world.site(i).tranman().counters().duplicate_effects;
    if (dups != 0) {
      violations->push_back("site " + std::to_string(i) + " re-drove " + std::to_string(dups) +
                            " commit/abort effects on already-final families "
                            "(duplicate or reordered datagram broke exactly-once)");
    }
  }
}

}  // namespace camelot
