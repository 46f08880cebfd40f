// The LAN model: an extended token-ring-style local network connecting sites.
//
// Latency of one datagram = NIC serialization at the sender (an exclusive
// resource: back-to-back sends queue, the paper's 1.7 ms "cycle time for
// sending datagrams") + sender OS scheduling jitter (exponential; the paper
// attributes most commit-latency variance to "the coordinator's repeated
// sends", i.e. per-send jitter) + propagation + small per-receiver skew.
//
// Multicast performs ONE serialization and draws ONE sender jitter for the
// whole group (a single physical transmission), which is exactly why it
// reduces the variance of the fan-out without materially changing the mean.
//
// Failure injection: site crash/restart, network partition, probabilistic
// message loss, duplication, reordering, and congestion delay. Loss and
// duplication apply to every datagram; reordering is confined to the TranMan
// datagram service — the NetMsgServer's RPC transport stays FIFO-reliable, as
// Mach's connection-oriented netmsgserver did (its own retransmit/dedup layer
// already makes it at-most-once end to end, so reordering beneath it would
// only exercise that layer, not the commit protocols).
#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/codec.h"
#include "src/base/rng.h"
#include "src/base/shared_bytes.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/sim/scheduler.h"

namespace camelot {

// Dispatch key within a destination site (which process the datagram is for).
using ServiceId = uint32_t;

inline constexpr ServiceId kTranManService = 1;   // TranMan-to-TranMan datagrams.
inline constexpr ServiceId kNetMsgService = 2;    // NetMsgServer RPC transport.

struct Datagram {
  SiteId src;
  SiteId dst;
  ServiceId service = 0;
  uint32_t type = 0;  // Protocol-defined message type.
  // Shared so fan-out, retransmits, and duplicates are refcount bumps on one
  // buffer instead of per-destination copies.
  SharedBytes body;
};

struct NetConfig {
  // Exclusive per-site NIC occupancy per datagram send ("cycle time", paper: 1.7 ms).
  SimDuration send_cycle = Usec(1700);
  // Mean of the exponential OS-scheduling jitter charged per send operation.
  SimDuration send_jitter_mean = Usec(1500);
  // Occasionally a send stalls hard (preemption, page fault): with probability
  // stall_probability an extra Exp(stall_mean) is added. The heavy tail is
  // what makes fan-out variance grow quickly with the subordinate count.
  double stall_probability = 0.08;
  SimDuration stall_mean = Usec(12000);
  // Extra fixed cost for assembling a multicast packet, per destination.
  SimDuration multicast_per_dest = Usec(200);
  // Wire propagation + receive-side processing (so that one datagram averages
  // roughly 10 ms total: 1.7 cycle + 1.5 jitter + ~1.0 expected stall + 5.5
  // propagation + 0.3 skew).
  SimDuration propagation = Usec(5540);
  // Mean of small per-receiver exponential skew.
  SimDuration receive_skew_mean = Usec(300);
  // Probability that a datagram is silently lost / duplicated.
  double loss_probability = 0.0;
  double duplicate_probability = 0.0;
  // Probability that a non-RPC datagram is reordered behind later traffic: it
  // is held back by Uniform(0, reorder_delay_max) extra delay. RPC datagrams
  // (kNetMsgService) are exempt — that transport is FIFO-reliable as in Mach.
  double reorder_probability = 0.0;
  SimDuration reorder_delay_max = Usec(40000);
  // Congestion: mean of an exponential extra delivery delay added to every
  // datagram while > 0 (a nemesis "delay storm" knob).
  SimDuration congestion_delay_mean = 0;

  // Expected latency of a single uncontended datagram (for static analysis).
  SimDuration ExpectedDatagramLatency() const {
    const auto expected_stall =
        static_cast<SimDuration>(stall_probability * static_cast<double>(stall_mean));
    return send_cycle + send_jitter_mean + expected_stall + propagation + receive_skew_mean;
  }
};

struct NetCounters {
  uint64_t datagrams_sent = 0;
  uint64_t datagrams_delivered = 0;
  uint64_t datagrams_lost = 0;
  uint64_t datagrams_dropped_partition = 0;
  uint64_t datagrams_dropped_dead = 0;
  uint64_t datagrams_duplicated = 0;
  uint64_t datagrams_reordered = 0;
  uint64_t multicasts_sent = 0;
};

class Network {
 public:
  Network(Scheduler& sched, NetConfig config);

  // --- Topology -------------------------------------------------------------
  // Sites must be registered before use; they start up.
  void RegisterSite(SiteId site);

  // Binds a handler invoked (at delivery time) for datagrams addressed to
  // (site, service). Typically enqueues into a process mailbox.
  void Bind(SiteId site, ServiceId service, std::function<void(Datagram)> deliver);

  // --- Data path ------------------------------------------------------------
  // Fire-and-forget unreliable datagram.
  void Send(Datagram dg);

  // One serialization + one sender jitter draw for the whole group. The body
  // is shared across all destinations (one buffer, N refcount bumps).
  void Multicast(SiteId src, const std::vector<SiteId>& dsts, ServiceId service, uint32_t type,
                 SharedBytes body);

  // If true, Send() to multiple destinations via SendToAll uses Multicast.
  void set_use_multicast(bool v) { use_multicast_ = v; }

  // Fan-out honoring the multicast setting (the commit protocols call this).
  void SendToAll(SiteId src, const std::vector<SiteId>& dsts, ServiceId service, uint32_t type,
                 SharedBytes body);

  // Delivery to every registered site except the sender (recovery beacons).
  void Broadcast(SiteId src, ServiceId service, uint32_t type, SharedBytes body);

  // --- Failure injection ------------------------------------------------------
  void CrashSite(SiteId site);
  void RestartSite(SiteId site);

  // Splits sites into groups; traffic crosses a group boundary only while no
  // partition is installed. Sites absent from every group are isolated. An
  // empty `groups` isolates every site. Re-installing over an existing
  // partition replaces it atomically. Rejects (without changing the current
  // topology) an unknown site, a site listed twice — across groups or within
  // one — and an empty group list.
  Status SetPartition(std::vector<std::vector<SiteId>> groups);
  void ClearPartition();
  bool IsPartitioned() const { return partitioned_; }
  bool CanCommunicate(SiteId a, SiteId b) const;

  // Invoked after every SetPartition / ClearPartition (not on site
  // crash/restart — recovery beacons cover those). Components use this to
  // re-probe in-doubt state: a blocked participant parked before a partition
  // healed would otherwise never learn connectivity came back.
  void AddTopologyListener(std::function<void()> fn) {
    topology_listeners_.push_back(std::move(fn));
  }

  void set_loss_probability(double p) { config_.loss_probability = p; }
  void set_duplicate_probability(double p) { config_.duplicate_probability = p; }
  void set_reorder_probability(double p) { config_.reorder_probability = p; }
  void set_reorder_delay_max(SimDuration d) { config_.reorder_delay_max = d; }
  void set_congestion_delay_mean(SimDuration d) { config_.congestion_delay_mean = d; }

  const NetConfig& config() const { return config_; }
  const NetCounters& counters() const { return counters_; }

 private:
  struct SiteState {
    bool up = true;
    SimTime nic_free_at = 0;
    int partition_group = -1;  // -1 while no partition is installed.
  };

  // Computes when the NIC finishes serializing a send started now.
  SimTime OccupyNic(SiteState& sender, SimDuration occupancy);
  void DeliverAfter(SimDuration delay, Datagram dg);
  bool LoseOrDrop(const Datagram& dg);  // Returns true if the datagram dies at send time.
  // Congestion + reorder extra delay for one datagram (0 when both are off).
  SimDuration InjectedDelay(const Datagram& dg);
  void NotifyTopologyChange();

  Scheduler& sched_;
  NetConfig config_;
  Rng rng_;
  bool use_multicast_ = false;
  bool partitioned_ = false;
  std::unordered_map<SiteId, SiteState> sites_;
  std::unordered_map<uint64_t, std::function<void(Datagram)>> bindings_;
  std::vector<std::function<void()>> topology_listeners_;
  NetCounters counters_;
};

}  // namespace camelot

#endif  // SRC_NET_NETWORK_H_
