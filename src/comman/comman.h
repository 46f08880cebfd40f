// Communication Manager (ComMan / "CornMan").
//
// Interposes on the inter-site RPC path (client-ComMan-NetMsgServer-network-
// NetMsgServer-ComMan-server, Section 3.1 of the paper) and "spies on the
// contents" of transactional messages: every response leaving a site carries
// the list of sites used to generate it; the receiving ComMan strips and
// merges that list. If every operation responds, the site that began the
// transaction eventually knows every participant — exactly the set the
// transaction manager needs as its subordinates at commit time.
//
// The wire-level interposition cost model lives in NetMsgServer (ipc); this
// class supplies the hooks and the per-family knowledge, plus the name
// service facade applications use (Figure 1, event 1).
#ifndef SRC_COMMAN_COMMAN_H_
#define SRC_COMMAN_COMMAN_H_

#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ipc/name_service.h"
#include "src/ipc/netmsg.h"
#include "src/ipc/site.h"

namespace camelot {

class ComMan {
 public:
  ComMan(Site& site, NetMsgServer& netmsg, NameService& names);

  // --- Data path ---------------------------------------------------------------
  // Calls a named service wherever it lives: a local IPC for services on this
  // site, or a ComMan-interposed remote RPC otherwise. This is THE call path
  // for transactional operations (applications and servers both use it).
  // `deadline` (absolute virtual time; 0 = none) is the client deadline,
  // propagated in the RpcContext so the callee can shed expired work.
  Async<RpcResult> Call(const std::string& service, uint32_t method, Bytes body, const Tid& tid,
                        RpcTrace* trace = nullptr, SimTime deadline = 0);

  // Name-service lookup on behalf of an application (one local IPC).
  Async<Result<SiteId>> Lookup(const std::string& service);

  // --- Transaction knowledge ----------------------------------------------------
  // The sites this site knows to be involved in the family (always includes
  // sites we called or were called by; never includes this site itself).
  std::vector<SiteId> KnownSites(const FamilyId& family) const;

  // Marks a remote site as involved (used by TranMan when it learns of
  // participants through protocol messages rather than the RPC path).
  void NoteSite(const FamilyId& family, SiteId site);

  // True if a participant of the family crashed and restarted mid-transaction:
  // locks and volatile state at that site are gone, so reads made there may be
  // stale and the transaction MUST abort ("after a failure ... the recovery
  // process ... undo[es] updates of interrupted transactions").
  bool IsPoisoned(const FamilyId& family) const { return poisoned_.contains(family); }

  // Forgets a family once its transaction has committed or aborted everywhere.
  void Forget(const FamilyId& family);

  size_t tracked_family_count() const { return involved_.size(); }

  Site& site() { return site_; }
  NameService& names() { return names_; }
  NetMsgServer& netmsg() { return netmsg_; }

 private:
  Bytes EncodeSitesFor(const Tid& tid) const;
  void IngestSites(const Tid& tid, const Bytes& piggyback, SiteId responder,
                   uint32_t incarnation);

  Site& site_;
  NetMsgServer& netmsg_;
  NameService& names_;
  std::unordered_map<FamilyId, std::set<SiteId>> involved_;
  // First-observed incarnation of each participant, per family.
  std::unordered_map<FamilyId, std::unordered_map<SiteId, uint32_t>> incarnations_;
  std::unordered_set<FamilyId> poisoned_;
};

}  // namespace camelot

#endif  // SRC_COMMAN_COMMAN_H_
