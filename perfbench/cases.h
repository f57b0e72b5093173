// The benchmark's workloads. Each one builds its rig and inputs from a seed
// (the set-up the benchmark times as setup_s), then drives the simulator
// only through its public entry points, timing every call it makes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// Named metric values of one repetition.
using Metrics = std::map<std::string, double>;

// One prepared repetition of a workload: rig constructed, inputs generated.
class Case {
 public:
  virtual ~Case() = default;

  // Runs the workload once. Adds its virtual-time results and the host time
  // of each public call to `out`. Throws on any failed operation or check.
  virtual void run(Metrics& out) = 0;

  // Rank-level opens, creates, writes, reads and closes the run attempts.
  std::uint64_t attempted() const { return attempted_; }
  // Largest simulated rank count of any job (bounds the trace walk).
  int max_ranks() const { return max_ranks_; }

 protected:
  std::uint64_t attempted_ = 0;
  int max_ranks_ = 0;
};

// A named workload and the factory that builds its rig and inputs for a
// seed. The seed feeds the rig's engine, the job's data pattern and the
// fault plan. Why each workload is here, and which modules it stresses and
// bypasses, is in METRICS.md.
struct WorkloadInfo {
  const char* name;
  std::unique_ptr<Case> (*make)(std::uint64_t seed);
};

const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* find_workload(const std::string& name);

}  // namespace perfbench
