// The repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (fresh rig and inputs each time, the simulation on
// one thread) until --seconds of host time have passed, at least kMinReps
// times; each repetition also times the set-up (rig and inputs) over
// windows of back-to-back builds. Reports the median set-up window and the
// host figures of the fastest repetition. Virtual-time results must repeat
// bit for bit: every repetition's digest is compared. With --trace 1 it
// then runs the workload once more with the span tracer on and reports the
// per-layer metrics instead of the end-to-end ones.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// A failed operation or check marks the repetition's operations failed and
// makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cases.h"
#include "common/jsonfmt.h"
#include "common/stats.h"
#include "common/trace.h"
#include "report.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 3;
// Set-up takes tens of microseconds to a few milliseconds, too short to
// time once: each untimed repetition times kSetupWindows windows of
// back-to-back builds.
constexpr double kSetupWindowS = 0.1;
constexpr int kSetupWindows = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:",
               why.c_str());
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      args.workload = value;
      have[0] = find_workload(args.workload) != nullptr;
      if (!have[0]) usage("unknown workload " + args.workload);
    } else if (flag == "--seed") {
      have[1] = std::from_chars(value.data(), end, args.seed).ptr == end && !value.empty();
      if (!have[1]) usage("bad --seed");
    } else if (flag == "--seconds") {
      const auto r = std::from_chars(value.data(), end, args.seconds);
      have[2] = r.ptr == end && !value.empty() && args.seconds > 0;
      if (!have[2]) usage("bad --seconds");
    } else if (flag == "--trace") {
      have[3] = value == "0" || value == "1";
      if (!have[3]) usage("bad --trace");
      args.trace = value == "1";
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
  return args;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Shortest text that reads back as the same double.
std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Rep {
  Metrics metrics;
  std::vector<double> setup_s;  // one mean per set-up window
  std::uint64_t attempted = 0;
  std::string failure;  // empty on success
};

// Mean time of one set-up (rig and inputs) over builds made back to back
// for kSetupWindowS; each build is destroyed before the next, untimed. The
// builds run on a thread of their own, which glibc gives a malloc arena
// that only set-up builds ever use. On the main thread's heap, after a
// simulation, the same builds take up to twice as long, by an amount that
// varies from run to run.
double time_setup(const WorkloadInfo& workload, std::uint64_t seed) {
  double total = 0;
  int builds = 0;
  std::exception_ptr error;
  std::thread([&] {
    try {
      const auto window = Clock::now();
      do {
        const auto t0 = Clock::now();
        std::unique_ptr<Case> c = workload.make(seed);
        total += since(t0);
        ++builds;
      } while (since(window) < kSetupWindowS);
    } catch (...) {
      error = std::current_exception();
    }
  }).join();
  if (error) std::rethrow_exception(error);
  return total / builds;
}

// One repetition: set-up windows (untraced repetitions only; spread over
// the run, they see the host's slow and fast phases alike), a build of the
// case, then the timed simulation, with the process-global registries
// cleared just before it so the counters are the simulation's own.
Rep run_rep(const Args& args, bool traced) {
  Rep rep;
  auto& tracer = tio::trace::Tracer::instance();
  try {
    const WorkloadInfo& workload = *find_workload(args.workload);
    for (int i = 0; !traced && i < kSetupWindows; ++i) {
      rep.setup_s.push_back(time_setup(workload, args.seed));
    }
    std::unique_ptr<Case> c = workload.make(args.seed);
    rep.attempted = c->attempted();
    tio::reset_counters();
    tio::reset_histograms();
    tracer.clear();
    tracer.set_enabled(traced);
    const auto t0 = Clock::now();
    c->run(rep.metrics);
    rep.metrics["wall_s"] = since(t0);
    add_registry_metrics(rep.metrics);
    if (traced) add_trace_metrics(rep.metrics, c->max_ranks());
  } catch (const std::exception& e) {
    rep.failure = e.what();
  }
  tracer.set_enabled(false);
  tracer.clear();
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadInfo& info = *find_workload(args.workload);
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n", info.name,
              static_cast<unsigned long long>(args.seed), number(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::printf("provenance: hardware_concurrency=%u build_type=%s compiler=%s shards=1\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  std::vector<Rep> reps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failure;
  const auto record = [&](const Rep& rep, const char* label) {
    attempted += rep.attempted;
    if (!rep.failure.empty()) {
      failed += rep.attempted;
      failure = rep.failure;
      std::printf("%s %zu FAILED: %s\n", label, reps.size() + 1, rep.failure.c_str());
      return false;
    }
    const std::uint64_t digest = virtual_digest(rep.metrics);
    std::printf("%s %zu wall_s=%s digest=%016llx setup_s", label, reps.size() + 1,
                number(rep.metrics.at("wall_s")).c_str(), static_cast<unsigned long long>(digest));
    for (const double v : rep.setup_s) std::printf(" %s", number(v).c_str());
    std::printf("\n");
    std::fflush(stdout);
    if (!reps.empty() && digest != virtual_digest(reps.front().metrics)) {
      failed += rep.attempted;
      failure = "virtual results differ between repetitions of one seed";
      return false;
    }
    return true;
  };

  const auto start = Clock::now();
  while (failure.empty() && (reps.size() < kMinReps || since(start) < args.seconds)) {
    Rep rep = run_rep(args, /*traced=*/false);
    if (!record(rep, "rep")) break;
    reps.push_back(std::move(rep));
  }

  Metrics result;
  if (failure.empty()) {
    // Other work on a shared host only ever slows a repetition, and it comes
    // in phases that can cover most of a run, so the fastest repetition is
    // the steadiest estimate of the simulator's own cost. Set-up is reported
    // as the median window of all repetitions. Virtual figures are the same
    // in every repetition.
    result = std::min_element(reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
               return a.metrics.at("wall_s") < b.metrics.at("wall_s");
             })->metrics;
    std::vector<double> setups;
    for (const auto& rep : reps) setups.insert(setups.end(), rep.setup_s.begin(), rep.setup_s.end());
    std::sort(setups.begin(), setups.end());
    const std::size_t mid = setups.size() / 2;
    result["setup_s"] = setups.size() % 2 ? setups[mid] : (setups[mid - 1] + setups[mid]) / 2;
    result["peak_rss_mib"] = peak_rss_mib();
    for (const auto& spec : end_to_end_metrics()) {
      if (!(result[spec.name] > 0)) {
        failure = std::string(spec.name) + " is not positive";
        failed = attempted;
      }
    }
  }
  if (failure.empty() && args.trace) {
    Rep traced = run_rep(args, /*traced=*/true);
    if (record(traced, "traced")) {
      for (const auto& spec : per_layer_metrics()) {
        if (spec.traced) result[spec.name] = traced.metrics[spec.name];
      }
      result["trace.overhead_s"] = traced.metrics["wall_s"] - result["wall_s"];
    }
  }

  const auto& reported = args.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string json;
  if (failure.empty()) {
    for (const auto* specs : {&end_to_end_metrics(), &per_layer_metrics()}) {
      for (const auto& spec : *specs) {
        if (spec.traced && !args.trace) continue;
        std::printf("metric %-34s %s %s (%s is better)\n", spec.name,
                    number(result[spec.name]).c_str(), spec.unit, spec.better);
      }
    }
    std::printf("virtual_digest %016llx\n",
                static_cast<unsigned long long>(virtual_digest(result)));
    for (const auto& spec : reported) {
      json += std::string(json.empty() ? "" : ", ") + tio::json_quote(spec.name) +
              ": {\"value\": " + number(result[spec.name]) +
              ", \"unit\": " + tio::json_quote(spec.unit) + "}";
    }
  } else {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              failure.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json.c_str());
  return failure.empty() ? 0 : 1;
}
