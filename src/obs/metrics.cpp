#include "gridsec/obs/metrics.hpp"

#include <ostream>

#include "json.hpp"

namespace gridsec::obs {

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

std::map<std::string, std::int64_t> MetricRegistry::counter_values() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

void MetricRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

void MetricRegistry::write_json(std::ostream& os) const {
  std::lock_guard lock(mutex_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':' << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    json::write_string(os, name);
    os << ':';
    json::write_number(os, g->value());
  }
  os << "}}";
}

MetricRegistry& default_registry() {
  // Leaked intentionally: instrumented code (thread-pool workers, solver
  // calls from static destructors in tests) may outlive ordinary statics.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

}  // namespace gridsec::obs
