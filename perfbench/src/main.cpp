// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--min-units N] [--corrupt-unit I]
//             [--reference-dir DIR] [--write-reference FILE]
//
// --trace 0 sets the workload up several times, then runs whole cycles of
// its point list for at least S seconds and at least --min-units units,
// and reports the end-to-end metrics. --trace 1 runs untraced for S/2
// seconds, then a fixed number of units with the profiler on, and reports
// the per-layer metrics. Every unit's output is checked; at the default
// seed it is also compared with the committed reference. The last line of
// standard output is one JSON object; the exit code is 0 only when every
// unit passed its checks.
#include <algorithm>
#include <cinttypes>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/report.hpp"
#include "gridsec/util/thread_pool.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 2015;
/// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 15;
constexpr double kSpinUpSeconds = 1.0;
/// The traced phase runs the smallest whole number of cycles with at least
/// this many units, from its own index range, so its counters repeat
/// exactly at a seed whatever the untraced phase did.
constexpr std::uint64_t kTracedMinUnits = 48;
constexpr std::uint64_t kTracedIndexBase = std::uint64_t{1} << 32;
/// Relative tolerance against the committed reference. Recomputing a
/// matrix along another pivot path moves it by ~1e-11 relative; anything
/// beyond this is a changed output.
constexpr double kReferenceTol = 1e-8;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  int threads = 0;
  std::uint64_t min_units = 100;
  std::int64_t corrupt_unit = -1;
  std::string reference_dir = "perfbench/reference";
  std::string write_reference;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--threads T] [--min-units N] "
               "[--corrupt-unit I] [--reference-dir DIR] "
               "[--write-reference FILE]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') {
    usage("malformed number");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_uint(v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_uint(v));
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(parse_uint(v));
      if (a.trace > 1) usage("--trace takes 0 or 1");
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(parse_uint(v));
      if (a.threads < 1 || a.threads > 256) usage("--threads out of range");
    } else if (flag == "--min-units") {
      a.min_units = parse_uint(v);
      if (a.min_units < 1) usage("--min-units must be at least 1");
    } else if (flag == "--corrupt-unit") {
      a.corrupt_unit = static_cast<std::int64_t>(parse_uint(v));
    } else if (flag == "--reference-dir") {
      a.reference_dir = v;
    } else if (flag == "--write-reference") {
      a.write_reference = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage(("unknown workload " + a.workload).c_str());
  }
  return a;
}

/// A reference row per unit index: the digest the unit must reproduce.
using Reference = std::map<std::uint64_t, std::vector<double>>;

bool load_reference(const std::string& path, Reference* ref) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::uint64_t index = 0;
    if (!(row >> index)) return false;
    std::vector<double> digest;
    double v = 0.0;
    while (row >> v) digest.push_back(v);
    (*ref)[index] = std::move(digest);
  }
  return true;
}

/// Adds the units' digests to the reference file at `path`, keeping the
/// rows of other units already there.
void write_reference(const std::string& path, const std::string& workload,
                     std::uint64_t seed, const std::vector<UnitRecord>& units) {
  Reference ref;
  load_reference(path, &ref);
  for (const auto& u : units) ref[u.index] = u.digest;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "# perfbench reference outputs: workload=" << workload
      << " seed=" << seed << "\n# unit index, then the unit's digest\n";
  char buf[32];
  for (const auto& [index, digest] : ref) {
    out << index;
    for (double v : digest) {
      std::snprintf(buf, sizeof buf, " %.10g", v);
      out << buf;
    }
    out << '\n';
  }
}

/// Compares digests with the reference; marks mismatching units failed.
/// Returns how many units had a reference row.
std::size_t compare_reference(const Reference& ref,
                              std::vector<UnitRecord>& units) {
  std::size_t compared = 0;
  for (auto& u : units) {
    auto it = ref.find(u.index);
    if (it == ref.end()) continue;
    ++compared;
    bool same = it->second.size() == u.digest.size();
    for (std::size_t i = 0; same && i < u.digest.size(); ++i) {
      const double r = it->second[i];
      same = std::fabs(u.digest[i] - r) <=
             kReferenceTol * std::max(1.0, std::fabs(r));
    }
    if (!same && !u.failed) {
      u.failed = true;
      u.problem = "output differs from the committed reference";
    }
  }
  return compared;
}

/// FNV-1a over every digest's bytes in index order: equal outputs print
/// equal hashes, so two runs can be compared from their logs.
std::uint64_t outputs_hash(const std::vector<UnitRecord>& units) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& u : units) {
    for (double v : u.digest) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    }
  }
  return h;
}

struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<ClientGroup> group;
  double seconds = 0.0;
};

/// Network build, pool start and one warm-up unit. Only the first client
/// warms up: waiting for the slowest of several parallel warm-ups would
/// make set-up time swing with whichever CPU the host stalls.
Setup set_up(const Args& args, const WorkloadConfig& config) {
  Setup s;
  const double t0 = now_seconds();
  s.workload = make_workload(args.workload, config);
  s.group = std::make_unique<ClientGroup>(s.workload->clients());
  Workload& w = *s.workload;
  s.group->run([&](int client) {
    if (client != 0) return;
    UnitRecord rec = w.run(kWarmupIndexBase);
    if (rec.failed) throw std::runtime_error("warm-up unit: " + rec.problem);
  });
  s.seconds = now_seconds() - t0;
  return s;
}

void print_metric(const Metric& m) {
  std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  WorkloadConfig config;
  config.seed = args.seed;
  config.threads = args.threads > 0 ? args.threads : static_cast<int>(nproc);
  config.corrupt_index = args.corrupt_unit;

  const auto manifest =
      gridsec::obs::RunManifest::capture("perfbench", argc, argv);
  std::printf("perfbench workload=%s seed=%" PRIu64
              " trace=%d threads=%d nproc=%u build_type=%s git_sha=%s\n",
              args.workload.c_str(), args.seed, args.trace, config.threads,
              nproc, manifest.build_type.c_str(), manifest.git_sha.c_str());

  spin_up(static_cast<int>(nproc), kSpinUpSeconds);
  std::vector<Metric> metrics;
  std::vector<UnitRecord> checked;  // every measured unit, untraced first
  if (args.trace == 0) {
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < kSetups; ++i) {
      s = Setup{};  // tear the previous set-up down before timing the next
      s = set_up(args, config);
      setups.push_back(s.seconds);
    }
    StopRule rule;
    rule.min_units = args.min_units;
    rule.min_seconds = args.seconds;
    PhaseResult phase = run_phase(*s.workload, *s.group, rule);
    const double peak_rss = peak_rss_mib();
    std::vector<double> lat_ms;
    for (const auto& u : phase.units) {
      lat_ms.push_back(static_cast<double>(u.latency_ns) * 1e-6);
    }
    const auto n = static_cast<double>(phase.units.size());
    metrics = {
        {"setup_s", quantile(setups, 0.5), "s"},
        {"units_per_s", n / phase.wall_s, "units/s"},
        {"unit_p50_ms", quantile(lat_ms, 0.5), "ms"},
        {"unit_p90_ms", quantile(lat_ms, 0.9), "ms"},
        {"cpu_ms_per_unit", phase.cpu_s * 1e3 / n, "ms"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
    std::printf("clients=%d set-ups=%d timed_units=%zu timed_wall_s=%.3f "
                "p90_tail_samples=%zu\n",
                s.workload->clients(), kSetups, phase.units.size(),
                phase.wall_s,
                phase.units.size() - static_cast<std::size_t>(
                                         std::ceil(0.9 * n)));
    checked = std::move(phase.units);
  } else {
    Setup s = set_up(args, config);
    Workload& w = *s.workload;
    StopRule untraced_rule;
    untraced_rule.min_units = args.min_units;
    untraced_rule.min_seconds = args.seconds / 2.0;
    PhaseResult untraced = run_phase(w, *s.group, untraced_rule);

    namespace obs = gridsec::obs;
    StopRule traced_rule;
    traced_rule.first_index = kTracedIndexBase;
    traced_rule.fixed_units =
        (kTracedMinUnits + w.cycle() - 1) / w.cycle() * w.cycle();
    TracedRun tr;
    obs::sync_alloc_counters();
    const auto before = obs::default_registry().counter_values();
    obs::Profiler::reset();
    obs::Profiler::start();
    tr.traced = run_phase(w, *s.group, traced_rule);
    obs::Profiler::stop();
    obs::sync_alloc_counters();
    for (const auto& [name, value] :
         obs::default_registry().counter_values()) {
      auto it = before.find(name);
      tr.counters[name] = value - (it == before.end() ? 0 : it->second);
    }
    tr.profile = obs::Profiler::snapshot();
    tr.untraced_units_per_s =
        static_cast<double>(untraced.units.size()) / untraced.wall_s;
    for (const auto& pool : gridsec::ThreadPool::stats_for_all_pools()) {
      tr.pool_threads += static_cast<int>(pool.size());
    }
    metrics = layer_metrics(tr);
    std::printf("clients=%d untraced_units=%zu traced_units=%zu "
                "traced_outputs_fnv1a=%016" PRIx64 "\n",
                w.clients(), untraced.units.size(), tr.traced.units.size(),
                outputs_hash(tr.traced.units));
    checked = std::move(untraced.units);
    checked.insert(checked.end(),
                   std::make_move_iterator(tr.traced.units.begin()),
                   std::make_move_iterator(tr.traced.units.end()));
  }

  if (!args.write_reference.empty()) {
    write_reference(args.write_reference, args.workload, args.seed, checked);
  }
  if (args.seed == kDefaultSeed) {
    const std::string path =
        args.reference_dir + "/" + args.workload + ".txt";
    Reference ref;
    if (!load_reference(path, &ref)) {
      std::fprintf(stderr, "perfbench: cannot read reference %s\n",
                   path.c_str());
      return 1;
    }
    const std::size_t compared = compare_reference(ref, checked);
    std::printf("reference_compared=%zu reference=%s rel_tol=%g\n",
                compared, path.c_str(), kReferenceTol);
  }

  std::size_t failed = 0;
  for (const auto& u : checked) {
    if (!u.failed) continue;
    if (++failed <= 5) {
      std::fprintf(stderr, "perfbench: unit %" PRIu64 " failed: %s\n",
                   u.index, u.problem.c_str());
    }
  }
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(checked.size());
  for (const auto& m : metrics) print_metric(m);
  print_metric({"error_rate", error_rate, "fraction"});
  print_json(failed == 0, checked.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
