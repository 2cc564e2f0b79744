// Benchmark program: runs one workload and prints its rows.
//
//   perfbench --workload <lpm_serve|rule_churn|knn_embed|dse_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//
// Output, one JSON object per line:
//   {"provenance": {...}}                       run identity
//   {"workload", "layer", "metric", "unit", "value"}   one row per metric
//   {"pipeline": {...}}                         layer parts + unattributed
//   {"result": {...}}                           checks, counts, metric maps
// run.py turns the result line into the benchmark's summary line.
//
// --trace 1 runs the workload twice: an untraced pass (end-to-end metrics)
// and a traced pass (per-layer probes), and reports the difference between
// the two passes' end-to-end metrics as tracing overhead.
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// "engine.table.match_us" -> layer "engine.table".
std::string layer_of(const std::string& metric) {
  const auto dot = metric.rfind('.');
  return dot == std::string::npos ? "e2e" : metric.substr(0, dot);
}

void print_row(const std::string& workload, const std::string& layer,
               const std::string& metric, const Metric& m) {
  std::cout << "{\"workload\": " << json_str(workload)
            << ", \"layer\": " << json_str(layer)
            << ", \"metric\": " << json_str(metric)
            << ", \"unit\": " << json_str(m.unit)
            << ", \"value\": " << json_num(m.value) << "}\n";
}

void print_map(const char* key, const std::map<std::string, Metric>& m,
               bool last) {
  std::cout << json_str(key) << ": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::cout << (first ? "" : ", ") << json_str(name) << ": {\"value\": "
              << json_num(metric.value) << ", \"unit\": "
              << json_str(metric.unit) << "}";
    first = false;
  }
  std::cout << "}" << (last ? "" : ", ");
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <lpm_serve|rule_churn|knn_embed|"
               "dse_sweep> --seed <n> --seconds <s> --trace <0|1> "
               "[--size full|tiny]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunArgs args;
  bool trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") return usage("--size takes full or tiny");
        args.size = value == "tiny" ? Size::kTiny : Size::kFull;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  const std::map<std::string, std::function<Report(const RunArgs&, bool)>> runners = {
      {"lpm_serve", run_lpm_serve},
      {"rule_churn", run_rule_churn},
      {"knn_embed", run_knn_embed},
      {"dse_sweep", run_dse_sweep},
  };
  const auto it = runners.find(workload);
  if (it == runners.end()) return usage("unknown workload '" + workload + "'");

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // The service workloads run a producer, searcher or compiler thread beside
  // the engine's dispatchers, so their pool leaves two cores free; the sweep
  // runs nothing beside its pool and leaves one.
  args.threads = std::min(workload == "dse_sweep" ? 3 : 2, nproc);
  fetcam::util::set_thread_count(args.threads);

  std::cout << "{\"provenance\": {\"workload\": " << json_str(workload)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << json_num(args.seconds)
            << ", \"trace\": " << (trace ? 1 : 0)
            << ", \"size\": " << json_str(args.size == Size::kTiny ? "tiny" : "full")
            << ", \"compiler\": " << json_str(PERFBENCH_COMPILER)
            << ", \"flags\": " << json_str(PERFBENCH_FLAGS)
            << ", \"cpu_model\": " << json_str(cpu_model())
            << ", \"nproc\": " << nproc
            << ", \"threads\": " << args.threads
            << ", \"lpm_offered_fps\": " << json_num(kLpmOfferedFps)
            << "}}" << std::endl;

  Report rep;
  Report traced;
  try {
    rep = it->second(args, false);
    if (trace) traced = it->second(args, true);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  long long attempted = rep.attempted + traced.attempted;
  long long failed = rep.failed + traced.failed;
  bool correct = failed == 0;
  for (const Report* r : {&rep, &traced}) {
    for (const auto& [name, ok] : r->checks) {
      print_row(workload, r->traced ? "check.traced" : "check", name,
                {ok ? 1.0 : 0.0, "bool"});
      if (!ok) correct = false;
    }
  }
  rep.e2e["setup_s"] = rep.rows["setup_s"];
  rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rep.row("peak_rss_mb", rep.e2e["peak_rss_mb"].value, "MB");
  rep.row("fail_frac",
          attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
          "ratio");
  for (const auto& [name, m] : rep.rows) print_row(workload, "e2e", name, m);

  if (trace) {
    // Every end-to-end row both passes report, traced relative to untraced.
    for (const auto& [name, m] : rep.rows) {
      const auto t = traced.rows.find(name);
      if (t == traced.rows.end() || m.value == 0.0) continue;
      print_row(workload, "trace", name + ".overhead_frac",
                {(t->second.value - m.value) / m.value, "ratio"});
    }
    const double ops = rep.e2e["ops_per_cpu_s"].value;
    traced.layer("trace.overhead_frac",
                 ops > 0.0 ? (ops - traced.e2e["ops_per_cpu_s"].value) / ops : 0.0, "ratio");
    if (!traced.pipelines.empty()) {
      const Decomposition& d = traced.pipelines.front();
      traced.layer("pipeline.unattributed_frac",
                   d.total != 0.0 ? d.unattributed() / d.total : 0.0, "ratio");
    }
    for (const auto& [name, m] : traced.layers) print_row(workload, layer_of(name), name, m);
    for (const Decomposition& d : traced.pipelines) {
      std::cout << "{\"pipeline\": {\"workload\": " << json_str(workload)
                << ", \"total_metric\": " << json_str(d.total_metric)
                << ", \"unit\": " << json_str(d.unit)
                << ", \"total\": " << json_num(d.total) << ", \"parts\": {";
      bool first = true;
      for (const auto& [name, v] : d.parts) {
        std::cout << (first ? "" : ", ") << json_str(name) << ": " << json_num(v);
        first = false;
      }
      std::cout << "}, \"unattributed\": " << json_num(d.unattributed()) << "}}\n";
    }
  }

  std::cout << "{\"result\": {\"workload\": " << json_str(workload)
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", ";
  print_map("e2e", rep.e2e, false);
  print_map("layers", traced.layers, true);
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
