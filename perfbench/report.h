// What the benchmark reports: the metric catalogue, the per-layer metrics
// read from the simulator's counter, histogram and span registries, and the
// digest over the model's output.
#pragma once

#include <cstdint>
#include <vector>

#include "cases.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  bool host;           // host cost (not part of the model's output)
  bool traced;         // only a traced run can measure it
};

// Reported with tracing off, on every workload; never zero.
const std::vector<MetricSpec>& end_to_end_metrics();
// Reported by the traced invocation; zero where a workload skips the layer.
const std::vector<MetricSpec>& per_layer_metrics();

// Adds the per-layer metrics that the counter and histogram registries hold
// after one repetition. Keys the workload already set are kept.
void add_registry_metrics(Metrics& m);

// Adds the metrics only a traced repetition has: per-span self time (span
// time minus the part its child spans cover), summed over ranks, plus the
// storage-net fair-share wait and link busy time.
void add_trace_metrics(Metrics& m, int max_ranks);

// FNV-1a over every non-host, untraced metric in catalogue order: the
// model's output for one seed. Identical runs must give identical digests.
std::uint64_t virtual_digest(const Metrics& m);

}  // namespace perfbench
