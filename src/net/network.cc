#include "src/net/network.h"

#include <algorithm>

#include "src/base/logging.h"

namespace camelot {

namespace {
uint64_t BindingKey(SiteId site, ServiceId service) {
  return (static_cast<uint64_t>(site.value) << 32) | service;
}
}  // namespace

Network::Network(Scheduler& sched, NetConfig config)
    : sched_(sched), config_(config), rng_(sched.rng().Fork()) {}

void Network::RegisterSite(SiteId site) {
  CAMELOT_CHECK(!sites_.contains(site));
  sites_.emplace(site, SiteState{});
}

void Network::Bind(SiteId site, ServiceId service, std::function<void(Datagram)> deliver) {
  bindings_[BindingKey(site, service)] = std::move(deliver);
}

SimTime Network::OccupyNic(SiteState& sender, SimDuration occupancy) {
  const SimTime start = std::max(sched_.now(), sender.nic_free_at);
  sender.nic_free_at = start + occupancy;
  return sender.nic_free_at;
}

SimDuration Network::InjectedDelay(const Datagram& dg) {
  SimDuration extra = 0;
  if (config_.congestion_delay_mean > 0) {
    extra += static_cast<SimDuration>(
        rng_.NextExponential(static_cast<double>(config_.congestion_delay_mean)));
  }
  // Reordering holds a datagram back so traffic sent later arrives first. The
  // RPC transport is exempt: Mach's netmsgserver connections were
  // FIFO-reliable, and our NetMsgServer already dedups retransmissions, so
  // only the TranMan datagram protocols should ever see out-of-order delivery.
  if (config_.reorder_probability > 0 && dg.service != kNetMsgService &&
      rng_.NextBool(config_.reorder_probability)) {
    ++counters_.datagrams_reordered;
    extra += static_cast<SimDuration>(
        rng_.NextBounded(static_cast<uint64_t>(std::max<SimDuration>(config_.reorder_delay_max, 1))));
  }
  return extra;
}

bool Network::LoseOrDrop(const Datagram& dg) {
  if (!CanCommunicate(dg.src, dg.dst)) {
    ++counters_.datagrams_dropped_partition;
    return true;
  }
  if (config_.loss_probability > 0 && rng_.NextBool(config_.loss_probability)) {
    ++counters_.datagrams_lost;
    return true;
  }
  return false;
}

void Network::DeliverAfter(SimDuration delay, Datagram dg) {
  sched_.Post(delay, [this, dg = std::move(dg)]() mutable {
    auto site_it = sites_.find(dg.dst);
    if (site_it == sites_.end() || !site_it->second.up) {
      ++counters_.datagrams_dropped_dead;
      return;
    }
    if (!CanCommunicate(dg.src, dg.dst)) {
      ++counters_.datagrams_dropped_partition;
      return;
    }
    auto it = bindings_.find(BindingKey(dg.dst, dg.service));
    if (it == bindings_.end()) {
      ++counters_.datagrams_dropped_dead;
      return;
    }
    ++counters_.datagrams_delivered;
    it->second(std::move(dg));
  });
}

void Network::Send(Datagram dg) {
  auto it = sites_.find(dg.src);
  CAMELOT_CHECK(it != sites_.end());
  SiteState& sender = it->second;
  if (!sender.up) {
    return;  // A crashed site sends nothing.
  }
  ++counters_.datagrams_sent;
  if (LoseOrDrop(dg)) {
    return;
  }
  // The send jitter extends the NIC occupancy itself: the sending thread does
  // its sends sequentially, so a scheduling hiccup on one send delays every
  // later send too (this is what makes fan-out variance grow with the number
  // of subordinates, and what multicast avoids).
  SimDuration jitter =
      static_cast<SimDuration>(rng_.NextExponential(static_cast<double>(config_.send_jitter_mean)));
  if (config_.stall_probability > 0 && rng_.NextBool(config_.stall_probability)) {
    jitter += static_cast<SimDuration>(
        rng_.NextExponential(static_cast<double>(config_.stall_mean)));
  }
  const SimTime serialized_at = OccupyNic(sender, config_.send_cycle + jitter);
  const SimDuration skew =
      static_cast<SimDuration>(rng_.NextExponential(static_cast<double>(config_.receive_skew_mean)));
  const SimDuration total_delay =
      (serialized_at - sched_.now()) + config_.propagation + skew + InjectedDelay(dg);

  if (config_.duplicate_probability > 0 && rng_.NextBool(config_.duplicate_probability)) {
    ++counters_.datagrams_duplicated;
    DeliverAfter(total_delay + config_.propagation + InjectedDelay(dg), dg);
  }
  DeliverAfter(total_delay, std::move(dg));
}

void Network::Multicast(SiteId src, const std::vector<SiteId>& dsts, ServiceId service,
                        uint32_t type, SharedBytes body) {
  auto it = sites_.find(src);
  CAMELOT_CHECK(it != sites_.end());
  SiteState& sender = it->second;
  if (!sender.up) {
    return;
  }
  ++counters_.multicasts_sent;
  // One serialization (slightly longer for group packet assembly), ONE jitter
  // draw shared by the whole group: the delay that varies run-to-run shifts all
  // receivers together instead of independently.
  SimDuration shared_jitter =
      static_cast<SimDuration>(rng_.NextExponential(static_cast<double>(config_.send_jitter_mean)));
  if (config_.stall_probability > 0 && rng_.NextBool(config_.stall_probability)) {
    shared_jitter += static_cast<SimDuration>(
        rng_.NextExponential(static_cast<double>(config_.stall_mean)));
  }
  const SimDuration occupancy = config_.send_cycle + shared_jitter +
      config_.multicast_per_dest * static_cast<SimDuration>(dsts.size());
  const SimTime serialized_at = OccupyNic(sender, occupancy);
  for (SiteId dst : dsts) {
    Datagram dg{src, dst, service, type, body};
    ++counters_.datagrams_sent;
    if (LoseOrDrop(dg)) {
      continue;
    }
    const SimDuration skew = static_cast<SimDuration>(
        rng_.NextExponential(static_cast<double>(config_.receive_skew_mean)));
    DeliverAfter((serialized_at - sched_.now()) + config_.propagation + skew + InjectedDelay(dg),
                 std::move(dg));
  }
}

void Network::SendToAll(SiteId src, const std::vector<SiteId>& dsts, ServiceId service,
                        uint32_t type, SharedBytes body) {
  if (use_multicast_ && dsts.size() > 1) {
    Multicast(src, dsts, service, type, std::move(body));
    return;
  }
  for (SiteId dst : dsts) {
    Send(Datagram{src, dst, service, type, body});
  }
}

void Network::Broadcast(SiteId src, ServiceId service, uint32_t type, SharedBytes body) {
  std::vector<SiteId> dsts;
  for (const auto& [id, state] : sites_) {
    if (id != src) {
      dsts.push_back(id);
    }
  }
  std::sort(dsts.begin(), dsts.end());
  SendToAll(src, dsts, service, type, std::move(body));
}

void Network::CrashSite(SiteId site) {
  auto it = sites_.find(site);
  CAMELOT_CHECK(it != sites_.end());
  it->second.up = false;
}

void Network::RestartSite(SiteId site) {
  auto it = sites_.find(site);
  CAMELOT_CHECK(it != sites_.end());
  it->second.up = true;
  it->second.nic_free_at = sched_.now();
}

Status Network::SetPartition(std::vector<std::vector<SiteId>> groups) {
  // Validate fully before touching any state, so a rejected call leaves the
  // current topology (including any already-installed partition) intact.
  std::unordered_map<SiteId, int> assignment;
  int group_index = 0;
  for (const auto& group : groups) {
    if (group.empty()) {
      return InvalidArgumentError("SetPartition: empty group " + std::to_string(group_index));
    }
    for (SiteId s : group) {
      if (!sites_.contains(s)) {
        return InvalidArgumentError("SetPartition: unknown site " + std::to_string(s.value));
      }
      auto [it, inserted] = assignment.emplace(s, group_index);
      if (!inserted) {
        return InvalidArgumentError(
            "SetPartition: site " + std::to_string(s.value) + " listed in group " +
            std::to_string(it->second) + " and group " + std::to_string(group_index));
      }
    }
    ++group_index;
  }
  // Apply: re-installing over an existing partition replaces it atomically;
  // sites absent from every group (and an entirely empty `groups`) end up
  // isolated.
  for (auto& [id, state] : sites_) {
    auto it = assignment.find(id);
    state.partition_group = it == assignment.end() ? -1 : it->second;
  }
  partitioned_ = true;
  NotifyTopologyChange();
  return OkStatus();
}

void Network::ClearPartition() {
  const bool was_partitioned = partitioned_;
  partitioned_ = false;
  for (auto& [id, state] : sites_) {
    state.partition_group = -1;
  }
  if (was_partitioned) {
    NotifyTopologyChange();
  }
}

void Network::NotifyTopologyChange() {
  for (const auto& fn : topology_listeners_) {
    fn();
  }
}

bool Network::CanCommunicate(SiteId a, SiteId b) const {
  if (a == b) {
    return true;
  }
  if (!partitioned_) {
    return true;
  }
  auto ia = sites_.find(a);
  auto ib = sites_.find(b);
  if (ia == sites_.end() || ib == sites_.end()) {
    return false;
  }
  return ia->second.partition_group >= 0 && ia->second.partition_group == ib->second.partition_group;
}

}  // namespace camelot
