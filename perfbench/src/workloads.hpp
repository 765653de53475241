// The benchmark's three workloads. Each drives the library only through
// public calls and derives every input from the run seed and the unit
// index; README.md records why each was chosen and what it exercises.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::uint64_t seed = 0;
  int threads = 1;  // pool workers, or client threads for large_grid
  /// Perturb the output of this unit index before it is checked (used by
  /// the benchmark's own tests to prove the checker can fail).
  std::int64_t corrupt_index = -1;
};

/// The workload names: the two BENCHMARK.json lists, in its order, then
/// large_grid, which it leaves out (see README.md).
const std::vector<std::string>& workload_names();

/// Builds the workload's inputs, starts its pool and returns it ready for
/// warm-up. Throws std::invalid_argument for a name not in workload_names().
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

/// Unit indices at and above this are reserved for warm-up units, so they
/// never coincide with a measured unit.
inline constexpr std::uint64_t kWarmupIndexBase = std::uint64_t{1} << 40;

}  // namespace perfbench
