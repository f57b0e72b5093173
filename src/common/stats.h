// Sample statistics for benchmark reporting (mean, stddev, percentiles),
// plus process-global named registries for lightweight subsystem
// instrumentation: monotonically increasing counters (index builds, cache
// hits, ...) and log-bucketed latency histograms (span durations recorded
// by common/trace.h).
//
// Sharded accumulation: the simulator can run independent simulations on
// several OS threads (sim/sharded.h). Counters and histograms therefore
// accumulate into per-shard cells selected by a thread-local shard id
// (set_stat_shard), so hot-path recording never contends across shards,
// and reads merge the cells. Merges are order-independent (sums for
// counters, a sorted multiset for histogram percentiles), so reported
// values are deterministic regardless of how work was interleaved across
// shards. Single-threaded programs never call set_stat_shard and behave
// exactly as before (everything lands in cell 0).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tio {

// Upper bound on concurrent stat shards (thread-local shard ids). Shard ids
// must be unique among concurrently running threads; sim::ShardPool assigns
// dense ids 0..shards-1 under this bound. Counters and histograms keep one
// cell per shard id, so no two concurrent shards ever share a cell.
inline constexpr unsigned kMaxStatShards = 16;

// Sets this thread's stat shard id (throws std::invalid_argument when
// shard >= kMaxStatShards). Worker threads of a shard pool call this once
// at startup; the main thread defaults to shard 0.
void set_stat_shard(unsigned shard);
unsigned stat_shard();

class Series {
 public:
  void add(double v) {
    xs_.push_back(v);
    sorted_ = false;
  }
  std::size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }

  double sum() const;
  double mean() const;
  double stddev() const;  // sample stddev (n-1); 0 for n < 2
  double min() const;
  double max() const;
  // Nearest-rank percentile, p in [0, 100] (values outside are clamped).
  // p = 0 returns the minimum, p = 100 the maximum. The sample is sorted
  // lazily once and the order is cached across calls, so a p50/p90/p99
  // report costs one sort, not three.
  double percentile(double p) const;

 private:
  std::vector<double> xs_;
  // Sorted view of xs_, built on first percentile() call and reused until
  // the next add() invalidates it.
  mutable std::vector<double> sorted_cache_;
  mutable bool sorted_ = false;
};

// A monotonically increasing event/byte counter. Counters are registered by
// name the first time they are requested and live for the process lifetime,
// so holding a `Counter&` across calls is always safe.
//
// Internally sharded: add() lands in the calling thread's cell (the one
// indexed by stat_shard()), value() sums every cell. Cells are
// cache-line-sized so shards incrementing the same counter never
// false-share.
class Counter {
 public:
  static constexpr std::size_t kSlots = kMaxStatShards;

  void add(std::uint64_t delta = 1) {
    cells_[slot()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  // Total across all shards.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }
  // This shard's contribution only. Lets a job measure a before/after delta
  // of a global counter without seeing concurrent jobs on other shards
  // (exact because shard ids of live threads are distinct).
  std::uint64_t local_value() const {
    return cells_[slot()].v.load(std::memory_order_relaxed);
  }
  void reset() {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t slot();
  std::array<Cell, kSlots> cells_{};
};

// A latency histogram over nonnegative int64 samples (virtual-time
// nanoseconds, in practice). Two views of the same data:
//   * log2 buckets — bucket b counts samples v with bit_width(v) == b,
//     i.e. v in [2^(b-1), 2^b); bucket 0 counts exact zeros. Constant
//     space, used for shape displays.
//   * the raw sample list — percentiles are exact (nearest-rank over the
//     full sample), not bucket-interpolated; the merged sort is lazy and
//     cached like Series.
// Like counters, histograms live in a process-global registry for the
// process lifetime, so holding a `Histogram&` across calls is always safe.
//
// Sharded accumulation: record() appends to the calling shard's private
// cell (no lock, no atomics on the sample path); count/sum/percentile/
// buckets merge the cells. Readers must be quiescent with respect to
// writers (the benches read only after shard threads have joined); the
// merged percentile is a sorted multiset, so it does not depend on which
// shard recorded which sample.
class Histogram {
 public:
  // Number of log2 buckets: zeros + one per possible bit width.
  static constexpr int kBuckets = 65;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  // Records one sample; negative values clamp to zero.
  void record(std::int64_t v);

  std::uint64_t count() const;
  bool empty() const { return count() == 0; }
  std::int64_t sum() const;
  std::int64_t min() const;  // 0 when empty
  std::int64_t max() const;  // 0 when empty
  // Exact nearest-rank percentile, p in [0, 100] (clamped); 0 when empty.
  std::int64_t percentile(double p) const;

  // Log2-bucket index of a sample and the smallest sample mapping to
  // bucket `b` (0 for the zero bucket).
  static int bucket_of(std::int64_t v);
  static std::int64_t bucket_min(int b);
  // Merged bucket counts across shards (by value: the merge is computed).
  std::array<std::uint64_t, kBuckets> buckets() const;

  void reset();

 private:
  struct Cell;  // per-shard samples + buckets + sum (stats.cc)
  Cell& local_cell();
  // Rebuilds the merged sorted sample cache when stale; returns it.
  const std::vector<std::int64_t>& merged() const;

  std::array<std::atomic<Cell*>, kMaxStatShards> cells_{};
  mutable std::mutex mu_;  // guards cell creation and the merge cache
  mutable std::vector<std::int64_t> sorted_cache_;
  mutable std::uint64_t sorted_count_ = ~std::uint64_t{0};
};

// Returns the process-global counter with this name, creating it on first
// use. Dotted names ("plfs.index.entries_merged") group related counters.
Counter& counter(std::string_view name);

// The process-global histogram with this name, creating it on first use.
// Names share the dotted-group convention with counters.
Histogram& histogram(std::string_view name);

// True when `name` belongs to the dot-separated group `prefix`: the empty
// prefix matches everything, otherwise `name` must equal `prefix` or start
// with `prefix` followed by a '.'. A prefix already ending in '.' is taken
// as a raw prefix match. So "plfs.index" matches "plfs.index.builds" but
// NOT "plfs.index_cache.hits"; use "plfs.index" + "plfs.index_cache" (or
// the raw prefix "plfs.index") to cover both.
bool name_in_group(std::string_view name, std::string_view prefix);

// All registered counters as (name, value), sorted by name. Counters whose
// value is zero are included; `prefix` filters by dot-boundary group (see
// name_in_group).
std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot(
    std::string_view prefix = "");

// All registered histograms as (name, histogram), sorted by name, filtered
// by dot-boundary group like counter_snapshot. The pointers stay valid for
// the process lifetime.
std::vector<std::pair<std::string, const Histogram*>> histogram_snapshot(
    std::string_view prefix = "");

// Zeroes every registered counter (the registry itself is never shrunk).
void reset_counters();
// Clears every registered histogram's samples and buckets.
void reset_histograms();

}  // namespace tio
