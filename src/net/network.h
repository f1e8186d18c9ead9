#ifndef BESYNC_NET_NETWORK_H_
#define BESYNC_NET_NETWORK_H_

#include <memory>
#include <vector>

#include "data/topology.h"
#include "net/link.h"
#include "net/message.h"
#include "util/random.h"
#include "util/shard_pool.h"

namespace besync {

/// Network topology parameters (paper Section 6: average cache-side
/// bandwidth B_C, average source-side bandwidth B_S, maximum relative
/// bandwidth change rate mB), generalized to `num_caches` caches — and,
/// when `topology` is non-flat, to a multi-tier relay tree whose edges
/// each carry their own Link (data/topology.h).
struct NetworkConfig {
  int num_sources = 1;
  /// Number of (leaf) caches, each with its own ingress link. 1 reproduces
  /// the paper's Figure-1 star topology.
  int num_caches = 1;
  /// Average cache-side bandwidth C(t), messages/second, applied to every
  /// cache link not covered by `cache_bandwidth_overrides`.
  double cache_bandwidth_avg = 10.0;
  /// Optional per-cache average bandwidth; entry c overrides
  /// cache_bandwidth_avg for cache c (values <= 0 fall back to the average).
  std::vector<double> cache_bandwidth_overrides;
  /// Average source-side bandwidth B_j(t), messages/second. <= 0 means
  /// unconstrained (the CGM polling model assumes no source-side limits).
  double source_bandwidth_avg = -1.0;
  /// Maximum relative rate of bandwidth change (mB). 0 = constant bandwidth.
  double bandwidth_change_rate = 0.0;
  /// Relay topology. Flat (default) reproduces the one-hop star exactly; a
  /// tree adds per-relay ingress/egress links and multi-hop routing. Leaf
  /// count must equal num_caches when non-flat.
  TopologySpec topology;
};

/// The refresh/control fabric between sources and caches. Flat topology: m
/// source-side links feeding `num_caches` independent cache-side links
/// (Figure 1 is the num_caches == 1 case). Tree topology: every node's
/// ingress edge is its own Link — leaf edges are the cache links, relay
/// edges sit above them — and refreshes are routed hop by hop toward the
/// `Message::cache_id` leaf (the relay agents in core/relay.h do the
/// forwarding between edges).
///
/// Also carries the upstream control channel (feedback / poll requests).
/// Control mail is keyed by (edge, source) — an edge is identified by its
/// child node, so the flat key degenerates to the historical
/// (cache, source). A message deposited by leaf c during tick t becomes
/// deliverable at tick t+1; PumpControlUpstream() then moves it edge by
/// edge to c's tier-1 ancestor within that tick (relays forward control
/// mail promptly — see DESIGN.md), so end-to-end control latency is one
/// tick at any depth, exactly matching the flat protocol.
class Network {
 public:
  Network(const NetworkConfig& config, Rng* rng);

  /// Advances all links (leaf, source, relay ingress/egress) into the tick
  /// [tick_start, tick_start+tick_len) and makes control messages deposited
  /// during the previous tick deliverable. The link advancement is sharded
  /// across `pool` (non-null; every link's budget, credit and statistics
  /// are self-contained, so per-link advancement commutes); mail promotion
  /// stays on the calling thread. Bitwise identical at any pool size.
  void BeginTick(double tick_start, double tick_len, ShardPool* pool);

  /// Flushes the final tick's usage into every link's utilization stat
  /// (call once at end of run — see Link::FinishTick).
  void FinishTick();

  Link& cache_link(int cache_id);
  const Link& cache_link(int cache_id) const;
  /// Single-cache convenience (the paper's topology).
  Link& cache_link() { return *cache_links_[0]; }
  const Link& cache_link() const { return *cache_links_[0]; }
  Link& source_link(int source_index);
  int num_sources() const { return static_cast<int>(source_links_.size()); }
  int num_caches() const { return static_cast<int>(cache_links_.size()); }

  // --- topology / routing ---

  const TopologySpec& topology() const { return config_.topology; }
  bool has_relays() const { return !relay_links_.empty(); }
  /// Total node count (caches + relays); equals num_caches() when flat.
  int num_nodes() const { return num_caches() + static_cast<int>(relay_links_.size()); }
  /// Ingress-edge link of any node: cache_link for leaves, the relay
  /// ingress link for relay nodes.
  Link& edge_link(int node);
  /// Egress (forwarding-budget) link of a relay node.
  Link& relay_egress(int node);
  /// Tier-1 ancestor of `cache_id` — where the sources inject refreshes for
  /// that cache (the leaf itself when flat).
  int32_t first_hop(int cache_id) const { return first_hop_[cache_id]; }
  Link& first_hop_link(int cache_id) { return edge_link(first_hop_[cache_id]); }
  /// Child of relay `node` on the path toward leaf `cache_id` (checked:
  /// the leaf must lie below the relay).
  int32_t NextHop(int node, int cache_id) const;
  /// Like NextHop, but returns -1 when the leaf is not below the relay —
  /// a message can outlive its routing when a failover re-homes its leaf
  /// while it sits in a relay store, and the forwarder must detect that.
  int32_t TryNextHop(int node, int cache_id) const;
  /// Relay node ids in downstream processing order (parents before
  /// children), so one tick cascades a pass-through tree end to end.
  const std::vector<int32_t>& downstream_relays() const { return downstream_relays_; }
  /// Nodes fed directly by the sources (ascending). All leaves when flat.
  const std::vector<int32_t>& tier1_nodes() const { return tier1_nodes_; }
  /// Children of `node` in ascending node order (empty for leaves).
  const std::vector<int32_t>& children(int node) const;

  // --- control mail, keyed by (edge, source) ---

  /// Deposits a cache -> source control message from leaf `cache_id` onto
  /// that leaf's edge; it starts traveling upstream at the next tick.
  void SendToSource(int cache_id, int source_index, Message message);
  /// Single-cache convenience: sends from cache 0.
  void SendToSource(int source_index, Message message);

  /// Moves deliverable control mail up the tree, edge by edge, onto the
  /// tier-1 edges (children drained in ascending node order, preserving
  /// per-leaf FIFO). No-op when flat. Returns the number of (message, hop)
  /// relay moves — the relay "feedback aggregation" traffic.
  int64_t PumpControlUpstream();

  /// Drains the control messages deliverable on edge `node` for
  /// `source_index` this tick. Call on tier-1 nodes after
  /// PumpControlUpstream(); with a flat topology every leaf is tier-1 and
  /// this is the historical (cache, source) drain.
  std::vector<Message> TakeSourceMail(int node, int source_index);
  /// Single-cache convenience: drains mail from cache 0.
  std::vector<Message> TakeSourceMail(int source_index);

  // --- fault injection: relay failover ---

  /// Whether a relay node is currently forwarding (always true for leaves).
  bool relay_alive(int node) const {
    return node < num_caches() || relay_alive_[node - num_caches()] != 0;
  }

  /// Fails relay `node`: its children re-attach to the topology's backup
  /// parent (or become tier-1 when the backup is missing or also dead) and
  /// first_hop/next-hop routing, the pump orders, and the tier-1 set are
  /// rebuilt from the surviving nodes. Control mail held at the relay is
  /// re-deposited at each message's originating leaf edge (stamped in
  /// SendToSource), preserving order — feedback is rerouted, never lost.
  /// Data messages queued on the relay's ingress link are *not* touched;
  /// the caller decides their fate (drop or drain) via Link::TakeQueue.
  void FailRelay(int node);

  /// Restores the original parent map for the recovered relay's subtree and
  /// rebuilds routing. The relay comes back with whatever queue its links
  /// kept (empty if the caller drained them at failure).
  void RecoverRelay(int node);

  /// Resets link statistics (end of warm-up).
  void ResetStats();

  const NetworkConfig& config() const { return config_; }

 private:
  size_t MailSlot(int node, int source_index) const;
  Link& relay_ingress(int node);
  /// Recomputes effective_parent_ from the alive set: a node whose parent
  /// died re-attaches to the parent's backup (when declared and alive),
  /// otherwise becomes tier-1 for the outage.
  void RecomputeEffectiveParents();
  /// Rebuilds children_, next_hop_, first_hop_, the pump orders and
  /// tier1_nodes_ from effective_parent_, skipping dead relays. With every
  /// relay alive this reproduces the construction-time tables exactly.
  void BuildRouting();

  NetworkConfig config_;
  std::vector<std::unique_ptr<Link>> cache_links_;
  std::vector<std::unique_ptr<Link>> source_links_;
  /// Relay ingress-edge links, indexed by node - num_caches. Constructed
  /// after the cache and source links so a pass-through tree consumes the
  /// scheduler RNG identically to the flat network (bitwise equivalence).
  std::vector<std::unique_ptr<Link>> relay_links_;
  /// Relay egress-budget links, indexed by node - num_caches.
  std::vector<std::unique_ptr<Link>> relay_egress_;
  /// Parent map under the current alive set (== topology.parent until a
  /// relay fails). Sized num_nodes for tree topologies, empty when flat.
  std::vector<int32_t> effective_parent_;
  /// 1 while the relay forwards, 0 between FailRelay and RecoverRelay.
  /// Indexed by node - num_caches.
  std::vector<uint8_t> relay_alive_;
  /// Tier-1 ancestor of each leaf (the leaf itself when flat).
  std::vector<int32_t> first_hop_;
  /// next_hop_[node - num_caches][leaf]: child of the relay on the path to
  /// the leaf, or -1 when the leaf is not below it.
  std::vector<std::vector<int32_t>> next_hop_;
  std::vector<int32_t> downstream_relays_;
  /// Relays children-before-parents: the control-pump order.
  std::vector<int32_t> upstream_relays_;
  /// Children of each node in ascending order (empty for leaves).
  std::vector<std::vector<int32_t>> children_;
  std::vector<int32_t> tier1_nodes_;
  // Control-channel double buffer keyed by (edge, source): deposited this
  // tick, delivered next tick. Slot = node * num_sources + source.
  std::vector<std::vector<Message>> mail_incoming_;
  std::vector<std::vector<Message>> mail_deliverable_;
  /// Slots with pending incoming mail, in deposit order (each slot listed
  /// once). BeginTick promotes exactly these instead of scanning all
  /// num_nodes x num_sources slots — per-slot promotions are independent,
  /// so visiting only the dirty slots is behavior-identical to the scan.
  std::vector<size_t> dirty_incoming_;
  /// Every link (cache, source, relay ingress, relay egress), flattened for
  /// the sharded BeginTick partition. Built once; link sets never change
  /// after construction.
  std::vector<Link*> all_links_;
};

}  // namespace besync

#endif  // BESYNC_NET_NETWORK_H_
