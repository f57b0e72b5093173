// Compute-cluster model: nodes, the high-speed interconnect fabric, the
// (much slower) shared storage network, and per-node page caches.
//
// The paper's central resource asymmetry — an InfiniBand/Gemini fabric that
// is largely idle during I/O phases versus a thin 10GigE storage network —
// is what transformative middleware exploits, so the two networks are
// modeled as separate resources:
//   * fabric: by preset (see TopologyKind). The default `flat` fabric is
//     per-node full-duplex NICs (fair-shared) + per-hop latency,
//     store-and-forward (sender uplink, then latency, then receiver
//     downlink) — simple, deterministic, adequate for collective
//     algorithms, and byte-identical to the pre-topology model. The `tor`
//     and `fat_tree` presets route each message as one flow through a
//     rack-structured link graph under per-flow max-min sharing
//     (net/topology.h), so oversubscribed uplinks and incast contention
//     become visible.
//   * storage network: one global fair-share pipe with a per-stream cap at
//     the node's storage NIC rate (the 1.25 GB/s "theoretical peak").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"
#include "net/page_cache.h"
#include "sim/engine.h"
#include "sim/fairshare.h"
#include "sim/task.h"

namespace tio::net {

class Topology;

// Fabric preset. `flat` is the original non-blocking NIC model; the others
// add rack structure (net/topology.h).
enum class TopologyKind : std::uint8_t { flat, tor, fat_tree };

struct ClusterConfig {
  std::size_t nodes = 64;
  std::size_t cores_per_node = 16;
  std::uint64_t memory_per_node = 32_GiB;

  // Interconnect (IB / Gemini class).
  double nic_bandwidth = 2.0e9;                       // bytes/s per direction
  Duration fabric_latency = Duration::us(2);

  // Fabric preset and rack geometry. `racks` must divide `nodes`;
  // `oversubscription` is the ToR uplink taper (4.0 means each rack's core
  // uplink carries a quarter of its hosts' aggregate NIC rate). Both are
  // ignored by the flat preset, which has no rack-visible structure —
  // rack_of_node() still answers from the geometry so placement layers
  // can plan against it.
  TopologyKind topology = TopologyKind::flat;
  std::size_t racks = 1;
  double oversubscription = 1.0;

  // Storage network (10GigE class).
  double storage_net_bandwidth = 1.25e9;              // aggregate bytes/s
  double storage_nic_bandwidth = 1.25e9;              // per-stream cap
  Duration storage_net_latency = Duration::us(60);

  // Page cache devoted to file data per node.
  std::uint64_t page_cache_per_node = 8_GiB;
  std::uint64_t page_cache_block = 256_KiB;
  double page_cache_bandwidth = 4.0e9;                // cached-read service rate

  std::size_t total_cores() const { return nodes * cores_per_node; }
  std::size_t nodes_per_rack() const { return nodes / racks; }
  std::size_t rack_of_node(std::size_t node) const { return node / nodes_per_rack(); }

  // Latency of the shared-memory transport between co-resident ranks (no
  // NIC, no switch hop) — the cheapest interaction the fabric model has.
  Duration intra_node_latency() const { return fabric_latency / 4; }

  // Throws std::invalid_argument on zero/negative capacities or counts,
  // non-positive latencies, or rack geometry that does not divide the
  // node count. Cluster's constructor calls this.
  void validate() const;
};

class Cluster {
 public:
  Cluster(sim::Engine& engine, ClusterConfig config);
  ~Cluster();

  const ClusterConfig& config() const { return config_; }
  sim::Engine& engine() { return engine_; }
  std::size_t nodes() const { return config_.nodes; }

  // One fabric message from node to node (intra-node messages cost only a
  // reduced latency). The awaiting process is blocked for the full
  // transfer, like a blocking MPI send-receive pair. Flat preset:
  // store-and-forward over the per-node NIC channels. tor/fat_tree: one
  // max-min-shared flow through the preset's link graph (net/topology.h).
  sim::Task<void> fabric_transfer(std::size_t from_node, std::size_t to_node,
                                  std::uint64_t bytes);

  // The routed link graph, or nullptr for the flat preset (which keeps
  // the original NIC path untouched).
  Topology* topology() { return topo_.get(); }

  sim::FairShareChannel& storage_net() { return *storage_net_; }
  Duration storage_latency() const { return config_.storage_net_latency; }
  PageCache& page_cache(std::size_t node) { return *caches_[node]; }
  double cached_read_rate() const { return config_.page_cache_bandwidth; }

 private:
  sim::Engine& engine_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> nic_out_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> nic_in_;
  std::unique_ptr<sim::FairShareChannel> storage_net_;
  std::vector<std::unique_ptr<PageCache>> caches_;
  std::unique_ptr<Topology> topo_;  // non-flat presets only
};

}  // namespace tio::net
