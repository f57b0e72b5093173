// Microbenchmarks of the index hot paths (google-benchmark): build, lookup,
// and (de)serialization — the CPU work each reader pays at open.
//
// The headline comparison is the global-index build: the map-based oracle
// (BTreeIndex over a re-sorted concatenated pool, the original design)
// versus the merge-based FlatIndex (k-way merge of per-writer sorted runs +
// offset sweep) versus PatternIndex (runs compressed to arithmetic
// progressions) at 10k/100k/1M entries. `--index_backend=btree|flat|pattern`
// restricts the comparison to one backend; after the run a per-backend
// serialized-size report (wire v1 vs v2) and the plfs.index.* counters are
// printed.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/trace.h"
#include "plfs/index.h"
#include "plfs/index_builder.h"
#include "plfs/mount.h"
#include "plfs/pattern.h"
#include "sim/sharded.h"

namespace tio::plfs {
namespace {

std::vector<IndexEntry> strided_entries(int writers, int per_writer) {
  std::vector<IndexEntry> out;
  std::vector<std::uint64_t> phys(writers, 0);
  constexpr std::uint64_t kRecord = 64 << 10;
  for (int r = 0; r < per_writer; ++r) {
    for (int w = 0; w < writers; ++w) {
      out.push_back(IndexEntry{(static_cast<std::uint64_t>(r) * writers + w) * kRecord, kRecord,
                               phys[w], static_cast<std::int64_t>(out.size() + 1),
                               static_cast<std::uint32_t>(w)});
      phys[w] += kRecord;
    }
  }
  return out;
}

// The same workload as per-writer timestamp-sorted runs — what the index
// logs actually hold.
std::vector<std::shared_ptr<const std::vector<IndexEntry>>> strided_runs(int writers,
                                                                         int per_writer) {
  std::vector<std::vector<IndexEntry>> runs(writers);
  for (const auto& e : strided_entries(writers, per_writer)) runs[e.writer].push_back(e);
  std::vector<std::shared_ptr<const std::vector<IndexEntry>>> out;
  out.reserve(runs.size());
  for (auto& r : runs) {
    out.push_back(std::make_shared<const std::vector<IndexEntry>>(std::move(r)));
  }
  return out;
}

constexpr int kBuildWriters = 256;

// The original design: concatenate every writer's log into one pool, then
// sort the whole pool and feed a node-based map entry by entry.
void BM_GlobalBuildOracleBTree(benchmark::State& state) {
  const int per_writer = static_cast<int>(state.range(0)) / kBuildWriters;
  const auto runs = strided_runs(kBuildWriters, per_writer);
  std::vector<IndexEntry> pool;
  for (const auto& r : runs) pool.insert(pool.end(), r->begin(), r->end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(BTreeIndex::build(pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pool.size()));
}

// The refactored path: k-way merge of the already-sorted runs, then the
// FlatIndex offset sweep — no re-sort, no node allocations.
void BM_GlobalBuildMergeFlat(benchmark::State& state) {
  const int per_writer = static_cast<int>(state.range(0)) / kBuildWriters;
  const auto runs = strided_runs(kBuildWriters, per_writer);
  for (auto _ : state) {
    IndexBuilder builder(IndexBackend::flat);
    for (const auto& r : runs) builder.add_run(r);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}

// Merge into the map backend: isolates how much of the win is the merge
// (vs the flat representation).
void BM_GlobalBuildMergeBTree(benchmark::State& state) {
  const int per_writer = static_cast<int>(state.range(0)) / kBuildWriters;
  const auto runs = strided_runs(kBuildWriters, per_writer);
  for (auto _ : state) {
    IndexBuilder builder(IndexBackend::btree);
    for (const auto& r : runs) builder.add_run(r);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}

// Pattern backend: same merge front-end, then run detection over the
// resolved mappings so lookups answer arithmetically.
void BM_GlobalBuildMergePattern(benchmark::State& state) {
  const int per_writer = static_cast<int>(state.range(0)) / kBuildWriters;
  const auto runs = strided_runs(kBuildWriters, per_writer);
  for (auto _ : state) {
    IndexBuilder builder(IndexBackend::pattern);
    for (const auto& r : runs) builder.add_run(r);
    benchmark::DoNotOptimize(builder.build());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(state.range(0)));
}

void BM_IndexBuildStrided(benchmark::State& state) {
  const auto entries = strided_entries(static_cast<int>(state.range(0)), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BTreeIndex::build(entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_IndexBuildStrided)->Arg(64)->Arg(512)->Arg(2048);

void BM_IndexBuildSequentialCompresses(benchmark::State& state) {
  // One writer, purely sequential: compression collapses to one mapping.
  std::vector<IndexEntry> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.push_back(IndexEntry{static_cast<std::uint64_t>(i) * 4096, 4096,
                                 static_cast<std::uint64_t>(i) * 4096, i + 1, 0});
  }
  for (auto _ : state) {
    const BTreeIndex idx = BTreeIndex::build(entries);
    benchmark::DoNotOptimize(idx.mapping_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_IndexBuildSequentialCompresses)->Arg(1024)->Arg(16384);

void BM_IndexLookupBTree(benchmark::State& state) {
  const BTreeIndex idx = BTreeIndex::build(strided_entries(static_cast<int>(state.range(0)), 64));
  Rng rng(42);
  const std::uint64_t size = idx.logical_size();
  for (auto _ : state) {
    const std::uint64_t off = rng.below(size - 1);
    benchmark::DoNotOptimize(idx.lookup(off, std::min<std::uint64_t>(1 << 20, size - off)));
  }
}
BENCHMARK(BM_IndexLookupBTree)->Arg(64)->Arg(1024);

void BM_IndexLookupFlat(benchmark::State& state) {
  const FlatIndex idx = FlatIndex::build(strided_entries(static_cast<int>(state.range(0)), 64));
  Rng rng(42);
  const std::uint64_t size = idx.logical_size();
  for (auto _ : state) {
    const std::uint64_t off = rng.below(size - 1);
    benchmark::DoNotOptimize(idx.lookup(off, std::min<std::uint64_t>(1 << 20, size - off)));
  }
}
BENCHMARK(BM_IndexLookupFlat)->Arg(64)->Arg(1024);

void BM_IndexLookupPattern(benchmark::State& state) {
  const PatternIndex idx =
      PatternIndex::build(strided_entries(static_cast<int>(state.range(0)), 64));
  Rng rng(42);
  const std::uint64_t size = idx.logical_size();
  for (auto _ : state) {
    const std::uint64_t off = rng.below(size - 1);
    benchmark::DoNotOptimize(idx.lookup(off, std::min<std::uint64_t>(1 << 20, size - off)));
  }
}
BENCHMARK(BM_IndexLookupPattern)->Arg(64)->Arg(1024);

void BM_EntrySerialization(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_entries(entries));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size() * IndexEntry::kSerializedSize));
}
BENCHMARK(BM_EntrySerialization);

void BM_EntryDeserialization(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  FragmentList fl;
  fl.append(DataView::literal(serialize_entries(entries)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(deserialize_entries(fl));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fl.size()));
}
BENCHMARK(BM_EntryDeserialization);

void BM_EntryEncodeV2(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_entries(entries, WireFormat::v2));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size() * IndexEntry::kSerializedSize));
}
BENCHMARK(BM_EntryEncodeV2);

void BM_EntryDecodeV2(benchmark::State& state) {
  const auto entries = strided_entries(256, 64);
  FragmentList fl;
  fl.append(DataView::literal(encode_entries(entries, WireFormat::v2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_entries(fl));
  }
  // Items, not bytes: the interesting rate is entries decoded per second,
  // and the v2 buffer is far smaller than count * 40.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(entries.size()));
}
BENCHMARK(BM_EntryDecodeV2);

void register_build_benchmarks(bool want_btree, bool want_flat, bool want_pattern) {
  auto args = [](benchmark::internal::Benchmark* b) {
    b->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);
  };
  if (want_btree) {
    args(benchmark::RegisterBenchmark("BM_GlobalBuildOracleBTree", BM_GlobalBuildOracleBTree));
    args(benchmark::RegisterBenchmark("BM_GlobalBuildMergeBTree", BM_GlobalBuildMergeBTree));
  }
  if (want_flat) {
    args(benchmark::RegisterBenchmark("BM_GlobalBuildMergeFlat", BM_GlobalBuildMergeFlat));
  }
  if (want_pattern) {
    args(benchmark::RegisterBenchmark("BM_GlobalBuildMergePattern", BM_GlobalBuildMergePattern));
  }
}

// Per-backend serialized footprint for the strided workload: what each
// backend's to_entries() costs on the wire under v1 (fixed 40-byte records)
// and v2 (pattern-compressed). Each (entry count, backend) row is an
// independent build, so the rows are spread across the shard pool and
// printed afterwards in the serial order.
void print_size_report(bool want_btree, bool want_flat, bool want_pattern, std::size_t shards) {
  struct Job {
    int total;
    const char* name;
    IndexBackend backend;
  };
  std::vector<Job> jobs;
  for (const int total : {10000, 100000, 1000000}) {
    if (want_btree) jobs.push_back({total, "btree", IndexBackend::btree});
    if (want_flat) jobs.push_back({total, "flat", IndexBackend::flat});
    if (want_pattern) jobs.push_back({total, "pattern", IndexBackend::pattern});
  }
  std::vector<std::string> lines(jobs.size());
  tio::sim::ShardPool pool(shards);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pool.submit([&lines, &jobs, i] {
      const Job& job = jobs[i];
      const auto runs = strided_runs(kBuildWriters, job.total / kBuildWriters);
      IndexBuilder builder(job.backend);
      for (const auto& r : runs) builder.add_run(r);
      const IndexPtr idx = builder.build();
      const std::uint64_t v1 = idx->serialized_bytes(WireFormat::v1);
      const std::uint64_t v2 = idx->serialized_bytes(WireFormat::v2);
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%-9d %-8s %14llu %14llu %8.1fx %14llu\n", job.total,
                    job.name, static_cast<unsigned long long>(v1),
                    static_cast<unsigned long long>(v2),
                    static_cast<double>(v1) / static_cast<double>(v2),
                    static_cast<unsigned long long>(idx->memory_bytes()));
      lines[i] = buf;
    });
  }
  pool.run_all();
  std::printf("\n-- serialized index size per backend (strided workload) --\n");
  std::printf("%-9s %-8s %14s %14s %9s %14s\n", "entries", "backend", "wire_v1_B", "wire_v2_B",
              "ratio", "memory_B");
  for (const std::string& line : lines) std::fputs(line.c_str(), stdout);
}

}  // namespace
}  // namespace tio::plfs

int main(int argc, char** argv) {
  bool want_btree = true;
  bool want_flat = true;
  bool want_pattern = true;
  std::string trace_path;
  long long shards = 1;
  // Strip our flags before google-benchmark sees the command line.
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--index_backend=";
    constexpr const char* kTrace = "--trace=";
    constexpr const char* kShards = "--shards=";
    if (std::strncmp(argv[i], kShards, std::strlen(kShards)) == 0) {
      shards = std::atoll(argv[i] + std::strlen(kShards));
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      tio::plfs::IndexBackend backend;
      if (!tio::plfs::parse_index_backend(argv[i] + std::strlen(kFlag), backend)) {
        std::fprintf(stderr, "unknown --index_backend (want btree|flat|pattern): %s\n", argv[i]);
        return 1;
      }
      want_btree = backend == tio::plfs::IndexBackend::btree;
      want_flat = backend == tio::plfs::IndexBackend::flat;
      want_pattern = backend == tio::plfs::IndexBackend::pattern;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strncmp(argv[i], kTrace, std::strlen(kTrace)) == 0) {
      trace_path = argv[i] + std::strlen(kTrace);
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    }
  }
  const std::size_t pool_shards = tio::bench::shards_or_die(shards);
  // The index microbenches are host-CPU work, so the trace holds whatever
  // simulated spans ran (usually none) — the flag exists for tooling
  // uniformity and always yields a valid, loadable document.
  if (!trace_path.empty()) tio::trace::Tracer::instance().set_enabled(true);
  tio::plfs::register_build_benchmarks(want_btree, want_flat, want_pattern);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty()) {
    if (!tio::trace::Tracer::instance().write_chrome_json(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %zu spans -> %s\n",
                 tio::trace::Tracer::instance().span_count(), trace_path.c_str());
  }
  tio::plfs::print_size_report(want_btree, want_flat, want_pattern, pool_shards);
  const auto counters = tio::counter_snapshot("plfs.index");
  if (!counters.empty()) {
    std::printf("\n-- plfs.index counters --\n");
    for (const auto& [name, value] : counters) {
      std::printf("%-32s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
    }
  }
  return 0;
}
