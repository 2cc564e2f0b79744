#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_util.hpp"

namespace fetcam::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* r = new MetricsRegistry();  // never destroyed:
  // instrumented statics in other TUs may outlive any destruction order.
  return *r;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Distribution& MetricsRegistry::register_distribution(std::string_view name,
                                                     Unit unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = distributions_.find(name);
  if (it == distributions_.end()) {
    it = distributions_
             .emplace(std::string(name),
                      Registered{unit, std::make_unique<Distribution>()})
             .first;
  }
  return *it->second.dist;
}

Distribution& MetricsRegistry::latency(std::string_view name) {
  return register_distribution(name, Unit::kNanoseconds);
}

Distribution& MetricsRegistry::distribution(std::string_view name) {
  return register_distribution(name, Unit::kCount);
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> MetricsRegistry::gauge_values()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<NamedDistribution> MetricsRegistry::distribution_snapshots()
    const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamedDistribution> out;
  out.reserve(distributions_.size());
  for (const auto& [name, d] : distributions_) {
    out.push_back({name, d.unit, d.dist->snapshot()});
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << detail::json_escape(name)
       << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << detail::json_escape(name)
       << "\": " << detail::json_number(g->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"distributions\": {";
  first = true;
  for (const auto& [name, d] : distributions_) {
    os << (first ? "\n" : ",\n") << "    \"" << detail::json_escape(name)
       << "\": " << distribution_json(d.dist->snapshot(), d.unit);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricsRegistry::to_table() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  std::size_t width = 8;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width, name.size());
  for (const auto& [name, d] : distributions_) {
    width = std::max(width, name.size());
  }
  const auto pad = [&](const std::string& s) {
    return s + std::string(width + 2 - s.size(), ' ');
  };
  if (!counters_.empty()) {
    os << "counters:\n";
    for (const auto& [name, c] : counters_) {
      os << "  " << pad(name) << c->value() << "\n";
    }
  }
  if (!gauges_.empty()) {
    os << "gauges:\n";
    for (const auto& [name, g] : gauges_) {
      os << "  " << pad(name) << detail::json_number(g->value()) << "\n";
    }
  }
  if (!distributions_.empty()) {
    os << "distributions:\n";
    for (const auto& [name, d] : distributions_) {
      const DistributionSnapshot s = d.dist->snapshot();
      os << "  " << pad(name) << "count=" << s.count;
      if (s.count > 0) {
        const bool ns = d.unit == Unit::kNanoseconds;
        const double scale = ns ? 1e3 : 1.0;
        char buf[128];
        std::snprintf(buf, sizeof(buf), " p50=%.4g%s p99=%.4g%s max=%.4g%s",
                      static_cast<double>(s.p50) / scale, ns ? "us" : "",
                      static_cast<double>(s.p99) / scale, ns ? "us" : "",
                      static_cast<double>(s.max) / scale, ns ? "us" : "");
        os << buf;
      }
      os << "\n";
    }
  }
  return os.str();
}

bool MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_json();
  return static_cast<bool>(f);
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, d] : distributions_) d.dist->reset();
}

}  // namespace fetcam::obs
