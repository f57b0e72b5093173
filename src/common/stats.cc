#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace tio {

namespace {

thread_local unsigned t_stat_shard = 0;

// Shared nearest-rank index computation: for n samples and p in [0, 100],
// the nearest-rank of p is ceil(p/100 * n) (1-based), clamped to [1, n] so
// p = 0 picks the first sorted sample and p = 100 the last — exact for
// every n including n = 1.
std::size_t nearest_rank_index(double p, std::size_t n) {
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

}  // namespace

void set_stat_shard(unsigned shard) {
  if (shard >= kMaxStatShards) {
    throw std::invalid_argument("set_stat_shard: shard id out of range");
  }
  t_stat_shard = shard;
}

unsigned stat_shard() { return t_stat_shard; }

double Series::sum() const {
  double s = 0;
  for (double x : xs_) s += x;
  return s;
}

double Series::mean() const {
  if (xs_.empty()) throw std::logic_error("Series::mean on empty series");
  return sum() / static_cast<double>(xs_.size());
}

double Series::stddev() const {
  if (xs_.size() < 2) return 0.0;
  // One pass for the sum (not mean(), which would re-walk the sample),
  // one for the squared deviations.
  double s = 0;
  for (double x : xs_) s += x;
  const double m = s / static_cast<double>(xs_.size());
  double acc = 0;
  for (double x : xs_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs_.size() - 1));
}

double Series::min() const {
  if (xs_.empty()) throw std::logic_error("Series::min on empty series");
  return *std::min_element(xs_.begin(), xs_.end());
}

double Series::max() const {
  if (xs_.empty()) throw std::logic_error("Series::max on empty series");
  return *std::max_element(xs_.begin(), xs_.end());
}

double Series::percentile(double p) const {
  if (xs_.empty()) throw std::logic_error("Series::percentile on empty series");
  if (!sorted_) {
    sorted_cache_ = xs_;
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_ = true;
  }
  return sorted_cache_[nearest_rank_index(p, sorted_cache_.size())];
}

std::size_t Counter::slot() { return t_stat_shard; }

// One shard's private accumulation. Only its owning thread writes it;
// readers merge cells while writers are quiescent.
struct Histogram::Cell {
  std::vector<std::int64_t> samples;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::int64_t sum = 0;
};

Histogram::~Histogram() {
  for (auto& slot : cells_) delete slot.load(std::memory_order_relaxed);
}

Histogram::Cell& Histogram::local_cell() {
  const unsigned shard = t_stat_shard;
  Cell* c = cells_[shard].load(std::memory_order_acquire);
  if (c == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    c = cells_[shard].load(std::memory_order_relaxed);
    if (c == nullptr) {
      c = new Cell();
      cells_[shard].store(c, std::memory_order_release);
    }
  }
  return *c;
}

void Histogram::record(std::int64_t v) {
  if (v < 0) v = 0;
  Cell& c = local_cell();
  c.samples.push_back(v);
  c.sum += v;
  ++c.buckets[static_cast<std::size_t>(bucket_of(v))];
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& slot : cells_) {
    if (const Cell* c = slot.load(std::memory_order_acquire)) n += c->samples.size();
  }
  return n;
}

std::int64_t Histogram::sum() const {
  std::int64_t s = 0;
  for (const auto& slot : cells_) {
    if (const Cell* c = slot.load(std::memory_order_acquire)) s += c->sum;
  }
  return s;
}

const std::vector<std::int64_t>& Histogram::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t n = count();
  if (sorted_count_ != n) {
    sorted_cache_.clear();
    sorted_cache_.reserve(n);
    for (const auto& slot : cells_) {
      if (const Cell* c = slot.load(std::memory_order_acquire)) {
        sorted_cache_.insert(sorted_cache_.end(), c->samples.begin(), c->samples.end());
      }
    }
    // A sorted multiset is placement-independent: the merged view is the
    // same whichever shard recorded which sample.
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_count_ = n;
  }
  return sorted_cache_;
}

std::int64_t Histogram::min() const {
  const auto& xs = merged();
  return xs.empty() ? 0 : xs.front();
}

std::int64_t Histogram::max() const {
  const auto& xs = merged();
  return xs.empty() ? 0 : xs.back();
}

std::int64_t Histogram::percentile(double p) const {
  const auto& xs = merged();
  if (xs.empty()) return 0;
  return xs[nearest_rank_index(p, xs.size())];
}

int Histogram::bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(v));
}

std::int64_t Histogram::bucket_min(int b) {
  if (b <= 0) return 0;
  if (b == 1) return 1;
  return std::int64_t{1} << (b - 1);
}

std::array<std::uint64_t, Histogram::kBuckets> Histogram::buckets() const {
  std::array<std::uint64_t, kBuckets> out{};
  for (const auto& slot : cells_) {
    if (const Cell* c = slot.load(std::memory_order_acquire)) {
      for (int b = 0; b < kBuckets; ++b) out[static_cast<std::size_t>(b)] += c->buckets[static_cast<std::size_t>(b)];
    }
  }
  return out;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : cells_) {
    if (Cell* c = slot.load(std::memory_order_relaxed)) {
      c->samples.clear();
      c->buckets.fill(0);
      c->sum = 0;
    }
  }
  sorted_cache_.clear();
  sorted_count_ = ~std::uint64_t{0};
}

bool name_in_group(std::string_view name, std::string_view prefix) {
  if (prefix.empty()) return true;
  if (!name.starts_with(prefix)) return false;
  if (name.size() == prefix.size()) return true;
  return prefix.back() == '.' || name[prefix.size()] == '.';
}

namespace {

struct Registries {
  std::mutex mu;
  // std::map: stable addresses for the registered objects and sorted
  // snapshots.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

Registries& registry() {
  static auto* r = new Registries();  // leaked: registrations outlive everything
  return *r;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    it = r.counters.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& histogram(std::string_view name) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.histograms.find(name);
  if (it == r.histograms.end()) {
    it = r.histograms.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_snapshot(std::string_view prefix) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, c] : r.counters) {
    if (name_in_group(name, prefix)) out.emplace_back(name, c->value());
  }
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> histogram_snapshot(
    std::string_view prefix) {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, const Histogram*>> out;
  for (const auto& [name, h] : r.histograms) {
    if (name_in_group(name, prefix)) out.emplace_back(name, h.get());
  }
  return out;
}

void reset_counters() {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->reset();
}

void reset_histograms() {
  Registries& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, h] : r.histograms) h->reset();
}

}  // namespace tio
