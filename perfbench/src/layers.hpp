// Per-layer metrics of the traced run. Layer names are the library's
// module names (lp, flow, cps, core, sim, util, obs). Work ratios come from
// deltas of the library's own registry counters over the traced phase, so
// they repeat exactly at a seed; self times come from obs::Profiler,
// folded by span-name module prefix.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gridsec/obs/prof.hpp"
#include "harness.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedRun {
  std::map<std::string, std::int64_t> counters;  // delta over the phase
  gridsec::obs::Profile profile;
  PhaseResult traced;
  /// Throughput of the untraced phase of the same run, for the overhead.
  double untraced_units_per_s = 0.0;
  int pool_threads = 0;  // 0 when the workload runs without a pool
};

std::vector<Metric> layer_metrics(const TracedRun& run);

}  // namespace perfbench
