// Shared explorer oracle: the audits every fault-exploration harness applies
// to a quiesced CamelotWorld after its faults healed.
//
// The workloads under exploration are vault transfers ("server:i" on site i,
// each holding an int64 object "vault"). Each attempt records its
// client-visible outcome plus which vaults it moved money between, so the
// audits can reason about arbitrary transfer patterns (the fault explorer's
// ring over every vault or over vaults 1 and 2, ...).
//
// Invariants:
//   - AuditBalancesAndSubset: two independent observers read identical
//     balances; money is conserved; the final balances are explained by SOME
//     subset of the attempted transfers that contains EVERY transfer whose
//     commit returned OK (client-visible OK implies durably committed;
//     timeouts and errors may have committed or not — both are legal).
//   - AuditLeaks: zero held locks, zero live (undecided) transaction
//     families at every site, and no recovery pass reported failure.
//   - AuditExactlyOnce: no site re-drove a commit/abort effect on an
//     already-final family (TranManCounters::duplicate_effects stays 0 even
//     under datagram duplication and reordering).
#ifndef SRC_HARNESS_ORACLE_H_
#define SRC_HARNESS_ORACLE_H_

#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/harness/world.h"

namespace camelot {

struct TransferAttempt {
  Status status;          // Client-visible outcome of the commit (or abort).
  bool attempted = false;  // False: never issued, cannot have committed.
  int from_vault = 0;
  int to_vault = 0;
  int64_t amount = 0;
};

// All audits append human-readable lines to `violations`; an empty append
// means the invariant held. The world must be quiescent (the balance audit
// issues its own read-only transactions through World::RunSync).
void AuditBalancesAndSubset(World& world, int site_count, int64_t initial_balance,
                            const std::vector<TransferAttempt>& attempts,
                            std::vector<std::string>* violations);
void AuditLeaks(World& world, int site_count, std::vector<std::string>* violations);
void AuditExactlyOnce(World& world, int site_count, std::vector<std::string>* violations);

}  // namespace camelot

#endif  // SRC_HARNESS_ORACLE_H_
