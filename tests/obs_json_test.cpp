// Every obs artifact follows one JSON number policy (src/obs/json.hpp):
// finite doubles read back bit-exact, non-finite ones come back in the
// same class, and integers survive beyond 2^53. One test per artifact.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gridsec/obs/audit.hpp"
#include "gridsec/obs/metrics.hpp"
#include "gridsec/obs/prof.hpp"
#include "gridsec/obs/report.hpp"
#include "obs/json.hpp"

namespace gridsec::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::vector<double>& doubles() {
  static const std::vector<double> v = {
      0.1, 1.0 / 3.0, 1e-300, 9007199254740993.0 /* 2^53+1 */,
      123456.789012345, std::nan(""), kInf, -kInf};
  return v;
}

const std::vector<std::int64_t>& integers() {
  static const std::vector<std::int64_t> v = {
      9007199254740993 /* 2^53+1 */, 123456789012345,
      std::numeric_limits<std::int64_t>::max()};
  return v;
}

void expect_same(double written, double read) {
  if (std::isnan(written)) {
    EXPECT_TRUE(std::isnan(read)) << read;
  } else {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &written, sizeof a);
    std::memcpy(&b, &read, sizeof b);
    EXPECT_EQ(a, b) << written << " came back as " << read;
  }
}

TEST(NumberRoundTrip, BenchReport) {
  RunReport report;
  report.manifest.wall_time_seconds = 1.0 / 3.0;
  for (std::size_t i = 0; i < doubles().size(); ++i) {
    CaseResult c;
    c.name = "case" + std::to_string(i);
    const double v = doubles()[i];
    c.wall = {1, 0, v, v, v, v, v, v};
    c.metrics["m"] = {integers()[i % integers().size()], v};
    report.cases.push_back(c);
  }
  std::ostringstream os;
  report.write_json(os, nullptr);
  const auto back = parse_report(os.str());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  expect_same(report.manifest.wall_time_seconds,
              back->manifest.wall_time_seconds);
  ASSERT_EQ(back->cases.size(), report.cases.size());
  for (std::size_t i = 0; i < report.cases.size(); ++i) {
    const CaseResult& w = report.cases[i];
    const CaseResult& r = back->cases[i];
    expect_same(w.wall.min_seconds, r.wall.min_seconds);
    expect_same(w.wall.median_seconds, r.wall.median_seconds);
    expect_same(w.wall.stddev_seconds, r.wall.stddev_seconds);
    expect_same(w.metrics.at("m").per_rep, r.metrics.at("m").per_rep);
    EXPECT_EQ(w.metrics.at("m").total, r.metrics.at("m").total);
  }
}

TEST(NumberRoundTrip, Registry) {
  MetricRegistry reg;
  for (std::size_t i = 0; i < doubles().size(); ++i) {
    reg.gauge("g" + std::to_string(i)).set(doubles()[i]);
  }
  for (std::size_t i = 0; i < integers().size(); ++i) {
    reg.counter("c" + std::to_string(i)).add(integers()[i]);
  }
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  const auto back = json::JsonParser(text).parse();
  ASSERT_TRUE(back.is_ok()) << back.status().to_string() << "\n" << text;
  const json::JsonValue* gauges = back->find("gauges");
  const json::JsonValue* counters = back->find("counters");
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(counters, nullptr);
  for (std::size_t i = 0; i < doubles().size(); ++i) {
    expect_same(doubles()[i],
                gauges->number_field("g" + std::to_string(i), -1.0));
  }
  for (std::size_t i = 0; i < integers().size(); ++i) {
    EXPECT_EQ(counters->int_field("c" + std::to_string(i)), integers()[i]);
  }
}

TEST(NumberRoundTrip, Profile) {
  // The profile carries only integers (ns, counts, bytes).
  Profile p;
  p.root.name = "(root)";
  for (std::size_t i = 0; i < integers().size(); ++i) {
    ProfileNode n;
    n.name = "phase" + std::to_string(i);
    n.count = n.wall_ns = n.cpu_ns = n.alloc_bytes = integers()[i];
    p.root.children.push_back(n);
  }
  p.alloc.bytes = integers()[0];
  p.pool_busy_ns = integers()[1];
  std::ostringstream os;
  write_profile_json(os, p);
  const auto back = parse_profile(os.str());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->alloc.bytes, p.alloc.bytes);
  EXPECT_EQ(back->pool_busy_ns, p.pool_busy_ns);
  ASSERT_EQ(back->root.children.size(), p.root.children.size());
  for (std::size_t i = 0; i < p.root.children.size(); ++i) {
    EXPECT_EQ(back->root.children[i].count, p.root.children[i].count);
    EXPECT_EQ(back->root.children[i].wall_ns, p.root.children[i].wall_ns);
    EXPECT_EQ(back->root.children[i].alloc_bytes,
              p.root.children[i].alloc_bytes);
  }
}

TEST(NumberRoundTrip, AuditBundle) {
  AuditBundle b;
  b.problem = lp::Problem(lp::Objective::kMinimize);
  b.problem.add_variable("y", 1.0 / 3.0, kInf, 2.0);
  b.problem.add_variable("x", 0.1, 123456.789012345, 1e-300);
  b.solution.status = lp::SolveStatus::kOptimal;
  b.solution.objective = 1.0 / 3.0;
  b.solution.x = doubles();
  b.solution.duals = doubles();
  b.certificate.primal_residual = std::nan("");
  b.certificate.duality_gap = kInf;
  std::ostringstream os;
  write_audit_bundle(os, b);
  const auto back = parse_audit_bundle(os.str());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  ASSERT_EQ(back->problem.num_variables(), 2);
  expect_same(1.0 / 3.0, back->problem.variable(0).lower);
  expect_same(kInf, back->problem.variable(0).upper);
  expect_same(0.1, back->problem.variable(1).lower);
  expect_same(123456.789012345, back->problem.variable(1).upper);
  expect_same(1e-300, back->problem.variable(1).objective);
  expect_same(b.solution.objective, back->solution.objective);
  ASSERT_EQ(back->solution.x.size(), doubles().size());
  ASSERT_EQ(back->solution.duals.size(), doubles().size());
  for (std::size_t i = 0; i < doubles().size(); ++i) {
    expect_same(doubles()[i], back->solution.x[i]);
    expect_same(doubles()[i], back->solution.duals[i]);
  }
  expect_same(b.certificate.primal_residual,
              back->certificate.primal_residual);
  expect_same(b.certificate.duality_gap, back->certificate.duality_gap);

  // A decoded non-finite lower bound is refused as input, not asserted on.
  std::string text = os.str();
  const std::string lower = "\"lower\":0.10000000000000001";
  ASSERT_NE(text.find(lower), std::string::npos) << text;
  text.replace(text.find(lower), lower.size(), "\"lower\":\"nan\"");
  EXPECT_FALSE(parse_audit_bundle(text).is_ok());
}

}  // namespace
}  // namespace gridsec::obs
