#include "cases.h"

#include <chrono>
#include <set>
#include <stdexcept>

#include "common/rng.h"
#include "common/stats.h"
#include "common/strutil.h"
#include "mpisim/runtime.h"
#include "testbed/testbed.h"
#include "workloads/harness.h"
#include "workloads/kernels.h"
#include "workloads/metadata.h"

namespace perfbench {

using namespace tio;
using namespace tio::workloads;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double mbps(const PhaseTimes& p) { return p.effective_bw() / 1e6; }

// Independent streams of the workload seed for the engine, the job's data
// pattern and the fault plan.
std::uint64_t rig_seed(std::uint64_t seed) { return hash_combine(seed, 1); }
std::uint64_t job_seed(std::uint64_t seed) { return hash_combine(seed, 2); }
std::uint64_t fault_seed(std::uint64_t seed) { return hash_combine(seed, 3); }

testbed::Rig::Options lanl(std::uint64_t seed, std::size_t num_mds) {
  testbed::Rig::Options o;
  o.cluster = testbed::lanl_cluster();
  o.pfs = testbed::lanl_pfs(num_mds);
  o.seed = rig_seed(seed);
  return o;
}

testbed::Rig::Options cielo(std::uint64_t seed, std::size_t num_mds) {
  testbed::Rig::Options o;
  o.cluster = testbed::cielo();
  o.pfs = testbed::cielo_pfs(num_mds);
  o.seed = rig_seed(seed);
  return o;
}

// Rank-level operations of one harness phase: an open, every op, a close.
std::uint64_t phase_ops(const OpGen& gen, int nprocs) {
  std::uint64_t ops = 0;
  for (int r = 0; r < nprocs; ++r) ops += 2 + gen(r, nprocs).size();
  return ops;
}

// Adds a phase to the end-to-end virtual sums.
void add_phase(Metrics& m, const PhaseTimes& p) {
  m["virtual_open_s"] += p.open_s;
  m["virtual_close_s"] += p.close_s;
  m["virtual_total_s"] += p.total_s();
}

// run_job under a host timer. Every rank of every phase must finish its
// close: the harness.close span feeds its histogram once per rank, so the
// count delta is the number of ranks that completed.
JobResult timed_job(Metrics& m, const std::string& timer, testbed::Rig& rig, int nprocs,
                    const JobSpec& spec) {
  const Histogram& closes = histogram("harness.close");
  const std::uint64_t closed_before = closes.count();
  const auto t0 = std::chrono::steady_clock::now();
  JobResult result = run_job(rig, nprocs, spec);
  m[timer] += seconds_since(t0);
  const std::uint64_t phases = (spec.do_write ? 1 : 0) + (spec.do_read ? 1 : 0);
  const std::uint64_t closed = closes.count() - closed_before;
  if (closed != phases * static_cast<std::uint64_t>(nprocs)) {
    throw std::runtime_error(str_printf("%s: %llu of %llu rank phases completed", timer.c_str(),
                                        static_cast<unsigned long long>(closed),
                                        static_cast<unsigned long long>(phases * nprocs)));
  }
  return result;
}

void cold_caches(testbed::Rig& rig) {
  rig.plfs().index_cache().clear();
  rig.pfs().drop_caches();
}

// N-1 strided checkpoint, then a cold restart through each read strategy
// (index cache cleared and PFS caches dropped before every read). The N^2
// Original read is the baseline the paper improves on: it is reported
// alone, not added to the end-to-end sums, where it would hide a change in
// the designs PLFS ships.
class CheckpointRestart final : public Case {
 public:
  CheckpointRestart(testbed::Rig::Options options, int ranks, OpGen ops, bool flatten_on_close,
                    std::vector<plfs::ReadStrategy> reads, std::uint64_t seed)
      : rig_(std::move(options)), ranks_(ranks), reads_(std::move(reads)) {
    max_ranks_ = ranks;
    write_.file = "checkpoint";
    write_.ops = std::move(ops);
    write_.target.access = Access::plfs_n1;
    write_.target.flatten_on_close = flatten_on_close;
    write_.do_read = false;
    write_.seed = job_seed(seed);
    read_ = write_;
    read_.target.flatten_on_close = false;
    read_.do_write = false;
    read_.do_read = true;
    read_.verify = true;
    attempted_ = (1 + reads_.size()) * phase_ops(write_.ops, ranks);
  }

  void run(Metrics& m) override {
    const PhaseTimes w = timed_job(m, "workloads.write_host_s", rig_, ranks_, write_).write;
    add_phase(m, w);
    m["workloads.write_bw_mbps"] = mbps(w);
    m["workloads.write_close_s"] = w.close_s;
    for (const plfs::ReadStrategy strategy : reads_) {
      const std::string label = label_of(strategy);
      cold_caches(rig_);
      read_.target.strategy = strategy;
      const PhaseTimes r = timed_job(m, "workloads.read_host_s." + label, rig_, ranks_, read_).read;
      if (strategy != plfs::ReadStrategy::original) add_phase(m, r);
      if (strategy == plfs::ReadStrategy::parallel_read) {
        m["workloads.read_open_s"] = r.open_s;
        m["workloads.read_bw_mbps"] = mbps(r);
      } else {
        m["workloads.read_open_s." + label] = r.open_s;
      }
    }
  }

 private:
  static const char* label_of(plfs::ReadStrategy s) {
    switch (s) {
      case plfs::ReadStrategy::original: return "original";
      case plfs::ReadStrategy::index_flatten: return "flatten";
      case plfs::ReadStrategy::parallel_read: return "parallel";
    }
    throw std::invalid_argument("unknown read strategy");
  }

  testbed::Rig rig_;
  int ranks_;
  std::vector<plfs::ReadStrategy> reads_;
  JobSpec write_;
  JobSpec read_;
};

// N-N create storm against Raft-replicated, batched, leased metadata with a
// leader crash mid-storm; then one rank lists the directory.
class CreateStorm final : public Case {
 public:
  static constexpr int kRanks = 128;
  static constexpr int kFilesPerRank = 64;

  explicit CreateStorm(std::uint64_t seed) : rig_(options(seed)) {
    max_ranks_ = kRanks;
    spec_.files_per_proc = kFilesPerRank;
    spec_.use_plfs = true;
    spec_.dir = "storm";
    attempted_ = 2ull * kRanks * kFilesPerRank + 1;  // creates, closes, the listing
  }

  void run(Metrics& m) override {
    auto t0 = std::chrono::steady_clock::now();
    const MetaResult r = run_metadata_storm(rig_, kRanks, spec_);
    m["workloads.storm_host_s"] = seconds_since(t0);
    // Rank 0 records the times only after the final barrier, which every
    // rank must reach: zero times mean some rank never completed.
    if (!(r.open_s > 0 && r.close_s > 0)) {
      throw std::runtime_error("create_storm: not every rank completed the storm");
    }
    m["virtual_open_s"] = r.open_s;
    m["virtual_close_s"] = r.close_s;
    m["virtual_total_s"] = r.open_s + r.close_s;
    m["workloads.create_open_s"] = r.open_s;
    m["workloads.create_close_s"] = r.close_s;

    t0 = std::chrono::steady_clock::now();
    check_listing();
    m["workloads.verify_host_s"] = seconds_since(t0);
  }

 private:
  static testbed::Rig::Options options(std::uint64_t seed) {
    testbed::Rig::Options o = lanl(seed, 9);
    o.pfs.mds_replication = pfs::MdsReplication::raft;
    o.pfs.mds_batch = 64;
    o.pfs.mds_batch_linger = Duration::ms(1);
    o.pfs.meta_lease = Duration::ms(50);
    auto plan = pfs::FaultPlan::parse("failover");
    if (!plan.ok()) throw std::runtime_error(plan.status().to_string());
    o.fault_plan = std::move(plan.value());
    o.fault_plan.seed = fault_seed(seed);
    return o;
  }

  // Every acked create must be visible to a single-rank Plfs::readdir.
  void check_listing() {
    // run_metadata_storm names rank r's i-th file f<r>_<i>.
    std::set<std::string> names;
    Status status = Status::Ok();
    mpi::run_spmd(rig_.cluster(), 1, [&](mpi::Comm comm) -> sim::Task<void> {
      auto listing = co_await rig_.plfs().readdir(
          pfs::IoCtx{comm.my_node(), comm.global_rank()}, "/" + spec_.dir);
      if (!listing.ok()) {
        status = listing.status();
        co_return;
      }
      for (const auto& e : *listing) names.insert(e.name);
    });
    if (!status.ok()) throw std::runtime_error("create_storm readdir: " + status.to_string());
    for (int rank = 0; rank < kRanks; ++rank) {
      for (int i = 0; i < kFilesPerRank; ++i) {
        if (names.count(str_printf("f%d_%d", rank, i)) == 0) {
          throw std::runtime_error(str_printf("create_storm: acked create f%d_%d missing", rank, i));
        }
      }
    }
  }

  testbed::Rig rig_;
  MetaSpec spec_;
};

// Collective-buffered noncontiguous write and cold read on a ToR fabric.
class CbNoncontig final : public Case {
 public:
  static constexpr int kRanks = 1024;

  explicit CbNoncontig(std::uint64_t seed) : rig_(options(seed)) {
    max_ranks_ = kRanks;
    iolib::CbConfig cb;
    cb.node_aggregation = true;
    cb.sieve_threshold = 4;
    spec_ = noncontig(kRanks, kExtent, kField, kStride, TargetOptions{}, cb);
    spec_.drop_caches_before_read = true;
    // Each rank writes, then reads back, one field per element it owns.
    const std::uint64_t fields = kExtent / kStride / kRanks;
    attempted_ = 2 * kRanks * (2 + fields);
  }

  void run(Metrics& m) override {
    const std::uint64_t holes_before = counter("iolib.cb.sieve_hole_bytes").value();
    const JobResult r = timed_job(m, "workloads.cb_host_s", rig_, kRanks, spec_);
    add_phase(m, r.write);
    add_phase(m, r.read);
    m["workloads.write_bw_mbps"] = mbps(r.write);
    m["workloads.write_close_s"] = r.write.close_s;
    m["workloads.read_bw_mbps"] = mbps(r.read);
    m["workloads.read_open_s"] = r.read.open_s;
    const double holes =
        static_cast<double>(counter("iolib.cb.sieve_hole_bytes").value() - holes_before);
    const double useful = static_cast<double>(r.read.bytes);
    m["iolib.cb.sieve_useful_ratio"] = useful / (useful + holes);
  }

 private:
  static constexpr std::uint64_t kExtent = 256_MiB;
  static constexpr std::uint64_t kField = 1_KiB;
  static constexpr std::uint64_t kStride = 4_KiB;

  static testbed::Rig::Options options(std::uint64_t seed) {
    testbed::Rig::Options o = lanl(seed, 1);
    o.cluster.topology = net::TopologyKind::tor;
    o.cluster.racks = 8;
    o.cluster.oversubscription = 4.0;
    return o;
  }

  testbed::Rig rig_;
  JobSpec spec_;
};

}  // namespace

// Sizes keep one repetition at a few host seconds at most, so a run holds
// several repetitions.
const std::vector<WorkloadInfo>& workloads() {
  using plfs::ReadStrategy;
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"restart_n1",
       [](std::uint64_t seed) -> std::unique_ptr<Case> {
         return std::make_unique<CheckpointRestart>(
             lanl(seed, 1), 512, strided_ops(2_MiB, 16_KiB), /*flatten_on_close=*/true,
             std::vector{ReadStrategy::original, ReadStrategy::index_flatten,
                         ReadStrategy::parallel_read},
             seed);
       }},
      {"create_storm",
       [](std::uint64_t seed) -> std::unique_ptr<Case> {
         return std::make_unique<CreateStorm>(seed);
       }},
      {"cb_noncontig",
       [](std::uint64_t seed) -> std::unique_ptr<Case> {
         return std::make_unique<CbNoncontig>(seed);
       }},
      {"cielo_scale",
       [](std::uint64_t seed) -> std::unique_ptr<Case> {
         return std::make_unique<CheckpointRestart>(
             cielo(seed, 10), 8192, strided_ops(512_KiB, 256_KiB), /*flatten_on_close=*/false,
             std::vector{ReadStrategy::parallel_read}, seed);
       }},
  };
  return kWorkloads;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
