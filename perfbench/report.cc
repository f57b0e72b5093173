#include "report.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

#include "common/stats.h"
#include "common/trace.h"

namespace perfbench {

namespace {

constexpr bool kHost = true;
constexpr bool kModel = false;
constexpr bool kTraced = true;
constexpr bool kUntraced = false;

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", "lower", kHost, kUntraced},
      {"peak_rss_mib", "MiB", "lower", kHost, kUntraced},
      {"virtual_open_s", "s", "lower", kModel, kUntraced},
      {"virtual_close_s", "s", "lower", kModel, kUntraced},
      {"virtual_total_s", "s", "lower", kModel, kUntraced},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kSpecs = {
      // sim
      {"sim.events", "count", "lower", kHost, kUntraced},
      {"sim.host_ns_per_event", "ns", "lower", kHost, kUntraced},
      {"sim.event_pool_hit_ratio", "ratio", "higher", kHost, kUntraced},
      {"sim.frame_pool_hit_ratio", "ratio", "higher", kHost, kUntraced},
      {"sim.queue_peak", "count", "lower", kHost, kUntraced},
      {"sim.fn_heap_spills", "count", "lower", kHost, kUntraced},
      {"sim.fairshare.wait_s", "s", "lower", kModel, kTraced},
      {"trace.overhead_s", "s", "lower", kHost, kTraced},
      // workloads: host time of the whole simulation and of each public call,
      // and the virtual results of each call
      {"wall_s", "s", "lower", kHost, kUntraced},
      {"workloads.write_host_s", "s", "lower", kHost, kUntraced},
      {"workloads.read_host_s.original", "s", "lower", kHost, kUntraced},
      {"workloads.read_host_s.flatten", "s", "lower", kHost, kUntraced},
      {"workloads.read_host_s.parallel", "s", "lower", kHost, kUntraced},
      {"workloads.storm_host_s", "s", "lower", kHost, kUntraced},
      {"workloads.verify_host_s", "s", "lower", kHost, kUntraced},
      {"workloads.cb_host_s", "s", "lower", kHost, kUntraced},
      {"workloads.write_bw_mbps", "MB/s", "higher", kModel, kUntraced},
      {"workloads.write_close_s", "s", "lower", kModel, kUntraced},
      {"workloads.read_bw_mbps", "MB/s", "higher", kModel, kUntraced},
      {"workloads.read_open_s", "s", "lower", kModel, kUntraced},
      {"workloads.read_open_s.original", "s", "lower", kModel, kUntraced},
      {"workloads.read_open_s.flatten", "s", "lower", kModel, kUntraced},
      {"workloads.create_open_s", "s", "lower", kModel, kUntraced},
      {"workloads.create_close_s", "s", "lower", kModel, kUntraced},
      // plfs
      {"plfs.index.build_host_s", "s", "lower", kHost, kUntraced},
      {"plfs.index.entries_merged", "count", "lower", kModel, kUntraced},
      {"plfs.index.log_bytes_read", "B", "lower", kModel, kUntraced},
      {"plfs.index.global_bytes_read", "B", "lower", kModel, kUntraced},
      {"plfs.index.compression", "ratio", "higher", kModel, kUntraced},
      {"plfs.index_cache.hit_ratio", "ratio", "higher", kHost, kUntraced},
      {"plfs.open.index_read.self_s", "s", "lower", kModel, kTraced},
      {"plfs.open.merge.self_s", "s", "lower", kModel, kTraced},
      {"plfs.open.exchange.self_s", "s", "lower", kModel, kTraced},
      {"plfs.open.broadcast.self_s", "s", "lower", kModel, kTraced},
      {"plfs.close.flatten_gather.self_s", "s", "lower", kModel, kTraced},
      {"plfs.close.flatten_write.self_s", "s", "lower", kModel, kTraced},
      {"plfs.write.index_flush.self_s", "s", "lower", kModel, kTraced},
      {"plfs.create.subdir_home.self_s", "s", "lower", kModel, kTraced},
      {"plfs.retry.attempts", "count", "lower", kModel, kUntraced},
      {"plfs.retry.exhausted", "count", "lower", kModel, kUntraced},
      {"plfs.degrade.mds_failover", "count", "lower", kModel, kUntraced},
      // iolib
      {"iolib.cb.fabric_msgs", "count", "lower", kModel, kUntraced},
      {"iolib.cb.local_msgs", "count", "lower", kModel, kUntraced},
      {"iolib.cb.bytes_shipped", "B", "lower", kModel, kUntraced},
      {"iolib.cb.pfs_ops", "count", "lower", kModel, kUntraced},
      {"iolib.cb.sieve_useful_ratio", "ratio", "higher", kModel, kUntraced},
      {"cb.write.meta.self_s", "s", "lower", kModel, kTraced},
      {"cb.write.gather.self_s", "s", "lower", kModel, kTraced},
      {"cb.write.shuffle.self_s", "s", "lower", kModel, kTraced},
      {"cb.write.pfs.self_s", "s", "lower", kModel, kTraced},
      {"cb.write.sync.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.meta.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.gather.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.shuffle.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.pfs.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.reply.self_s", "s", "lower", kModel, kTraced},
      {"cb.read.sync.self_s", "s", "lower", kModel, kTraced},
      // net
      {"net.topo.bytes.cross_rack", "B", "lower", kModel, kUntraced},
      {"net.topo.msgs.cross_rack", "count", "lower", kModel, kUntraced},
      {"net.topo.link_bytes.rack", "B", "lower", kModel, kUntraced},
      {"net.topo.link.busy_s", "s", "lower", kModel, kTraced},
      // pfs
      {"pfs.meta.mutation_round_trips", "count", "lower", kModel, kUntraced},
      {"pfs.batch.occupancy", "ops/rpc", "higher", kModel, kUntraced},
      {"pfs.batch.failures", "count", "lower", kModel, kUntraced},
      {"pfs.meta_cache.hit_ratio", "ratio", "higher", kModel, kUntraced},
      {"pfs.batch.flush.p50_s", "s", "lower", kModel, kUntraced},
      {"pfs.batch.flush.p99_s", "s", "lower", kModel, kUntraced},
      // raft
      {"raft.commits", "count", "lower", kModel, kUntraced},
      {"raft.append_rpcs", "count", "lower", kModel, kUntraced},
      {"raft.heartbeats", "count", "lower", kModel, kUntraced},
      {"raft.elections_won", "count", "lower", kModel, kUntraced},
      {"raft.redirects", "count", "lower", kModel, kUntraced},
      {"raft.client_timeouts", "count", "lower", kModel, kUntraced},
      {"raft.replication.p50_s", "s", "lower", kModel, kUntraced},
      {"raft.replication.p99_s", "s", "lower", kModel, kUntraced},
      {"raft.failover.p99_s", "s", "lower", kModel, kUntraced},
  };
  return kSpecs;
}

namespace {

double count(const char* name) { return static_cast<double>(tio::counter(name).value()); }

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

double percentile_s(const char* name, double p) {
  return static_cast<double>(tio::histogram(name).percentile(p)) / 1e9;
}

}  // namespace

void add_registry_metrics(Metrics& m) {
  const double events = count("sim.engine.events");
  const double event_hits = count("sim.engine.event_pool_hits");
  const double frame_hits = count("sim.engine.frame_pool_hits");
  const double index_hits = count("plfs.index_cache.hits");
  const double meta_hits = count("pfs.meta_cache.hits");
  const Metrics derived = {
      {"sim.events", events},
      {"sim.host_ns_per_event", ratio(count("sim.engine.run_wall_ns"), events)},
      {"sim.event_pool_hit_ratio",
       ratio(event_hits, event_hits + count("sim.engine.event_pool_misses"))},
      {"sim.frame_pool_hit_ratio",
       ratio(frame_hits, frame_hits + count("sim.engine.frame_pool_misses"))},
      {"sim.queue_peak", count("sim.engine.queue_peak")},
      {"sim.fn_heap_spills", count("common.fn.heap_spills")},
      {"plfs.index.build_host_s", count("plfs.index.build_ns") / 1e9},
      {"plfs.index.entries_merged", count("plfs.index.entries_merged")},
      {"plfs.index.log_bytes_read", count("plfs.index.log_bytes_read")},
      {"plfs.index.global_bytes_read", count("plfs.index.global_bytes_read")},
      {"plfs.index.compression",
       ratio(count("plfs.index.pattern.raw_bytes"), count("plfs.index.pattern.wire_bytes"))},
      {"plfs.index_cache.hit_ratio",
       ratio(index_hits, index_hits + count("plfs.index_cache.misses"))},
      {"plfs.retry.attempts", count("plfs.retry.attempts")},
      {"plfs.retry.exhausted", count("plfs.retry.exhausted")},
      {"plfs.degrade.mds_failover", count("plfs.degrade.mds_failover")},
      {"iolib.cb.fabric_msgs", count("iolib.cb.fabric_msgs")},
      {"iolib.cb.local_msgs", count("iolib.cb.local_msgs")},
      {"iolib.cb.bytes_shipped", count("iolib.cb.bytes_shipped")},
      {"iolib.cb.pfs_ops", count("iolib.cb.pfs_ops")},
      {"net.topo.bytes.cross_rack", count("net.topo.bytes.cross_rack")},
      {"net.topo.msgs.cross_rack", count("net.topo.msgs.cross_rack")},
      {"net.topo.link_bytes.rack", count("net.topo.link_bytes.rack")},
      {"pfs.meta.mutation_round_trips", count("pfs.meta.mutation_round_trips")},
      {"pfs.batch.occupancy", ratio(count("pfs.batch.ops"), count("pfs.batch.rpcs"))},
      {"pfs.batch.failures", count("pfs.batch.failures")},
      {"pfs.meta_cache.hit_ratio", ratio(meta_hits, meta_hits + count("pfs.meta_cache.misses"))},
      {"pfs.batch.flush.p50_s", percentile_s("pfs.batch.flush", 50)},
      {"pfs.batch.flush.p99_s", percentile_s("pfs.batch.flush", 99)},
      {"raft.commits", count("raft.commits")},
      {"raft.append_rpcs", count("raft.append_rpcs")},
      {"raft.heartbeats", count("raft.heartbeats")},
      {"raft.elections_won", count("raft.elections_won")},
      {"raft.redirects", count("raft.redirects")},
      {"raft.client_timeouts", count("raft.client_timeouts")},
      {"raft.replication.p50_s", percentile_s("raft.replication", 50)},
      {"raft.replication.p99_s", percentile_s("raft.replication", 99)},
      {"raft.failover.p99_s", percentile_s("raft.failover", 99)},
  };
  m.insert(derived.begin(), derived.end());
  // Layers this workload never reached report zero.
  for (const auto& spec : per_layer_metrics()) {
    if (!spec.traced) m.emplace(spec.name, 0.0);
  }
}

void add_trace_metrics(Metrics& m, int max_ranks) {
  tio::trace::Tracer& tracer = tio::trace::Tracer::instance();
  constexpr std::string_view kSelf = ".self_s";
  std::unordered_map<std::uint32_t, std::string> self_time;  // span name id -> metric
  for (const auto& spec : per_layer_metrics()) {
    const std::string_view name = spec.name;
    if (name.size() > kSelf.size() && name.ends_with(kSelf)) {
      self_time[tracer.intern(name.substr(0, name.size() - kSelf.size()))] = spec.name;
      m[spec.name] = 0.0;
    }
  }
  const std::uint32_t wait_id = tracer.intern("sim.fairshare.wait");
  const std::uint32_t busy_id = tracer.intern("net.topo.link.busy");
  std::int64_t wait_ns = 0;
  std::int64_t busy_ns = 0;
  std::unordered_map<std::string, std::int64_t> self_ns;
  // Rank -1 is the engine track (fair-share waits, fabric links).
  for (int rank = -1; rank < max_ranks; ++rank) {
    const auto& spans = tracer.rank_spans(rank);
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& s : spans) {
      if (s.end_ns < 0 || s.parent == 0) continue;
      const auto& p = spans[s.parent - 1];
      const std::int64_t lo = std::max(s.start_ns, p.start_ns);
      const std::int64_t hi = p.end_ns < 0 ? s.end_ns : std::min(s.end_ns, p.end_ns);
      child_ns[s.parent - 1] += std::max<std::int64_t>(0, hi - lo);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.end_ns < 0) continue;
      const std::int64_t dur = s.end_ns - s.start_ns;
      if (s.name_id == wait_id) wait_ns += dur;
      if (s.name_id == busy_id) busy_ns += dur;
      if (auto it = self_time.find(s.name_id); it != self_time.end()) {
        self_ns[it->second] += std::max<std::int64_t>(0, dur - child_ns[i]);
      }
    }
  }
  for (const auto& [name, ns] : self_ns) m[name] = static_cast<double>(ns) / 1e9;
  m["sim.fairshare.wait_s"] = static_cast<double>(wait_ns) / 1e9;
  m["net.topo.link.busy_s"] = static_cast<double>(busy_ns) / 1e9;
}

std::uint64_t virtual_digest(const Metrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 0x100000001b3ull;
    }
  };
  for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& spec : *specs) {
      if (spec.host || spec.traced) continue;
      const auto it = m.find(spec.name);
      const double v = it == m.end() ? 0.0 : it->second;
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      mix(spec.name, std::strlen(spec.name) + 1);
      mix(&bits, sizeof bits);
    }
  }
  return h;
}

}  // namespace perfbench
