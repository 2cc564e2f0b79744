// Design-space exploration benchmark (no paper counterpart): the
// surrogate-pruned sweep of src/dse against the exhaustive arm.
//
// Usage:
//   bench_dse                     # google-benchmark kernels
//   bench_dse --dse-json=PATH     # machine-readable report
//
// The JSON mode runs dse::run_dse_comparison on the default space (exact
// arm simulated once, pruned arm replayed against it) and writes the
// fetcam.dse.v1 document that CI's bench gate checks
// (tools/check_bench.py, rules "dse: ..."):
//   * the frontier holds both cell families (a 2FeFET and a 1.5T1Fe
//     design) — neither family is allowed to silently fall out of the
//     reproduction's trade-off space;
//   * the paper's nominal points are not dominated beyond a small
//     relative margin inside our own model;
//   * the pruned arm simulates <= 60 % of the grid while recovering
//     >= 95 % of the exact frontier.
//
// Everything in the JSON is deterministic (fixed seeds, counter-based MC
// streams, batched pruning decisions); only the google-benchmark kernel
// timings below are machine-dependent.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dse/design_space.hpp"
#include "dse/driver.hpp"
#include "dse/pareto.hpp"
#include "dse/report.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace fetcam;

namespace {

dse::DseOptions bench_options() {
  dse::DseOptions opts;
  opts.space = dse::default_space();
  return opts;
}

int emit_dse_json(const std::string& path) {
  const dse::DseOptions opts = bench_options();
  const dse::DseComparison cmp = dse::run_dse_comparison(opts);
  const auto paper = dse::check_paper_points(opts, cmp.exact);
  const std::string json =
      dse::render_json(opts, cmp.exact, &cmp.pruned, cmp.frontier_recall,
                       paper, util::thread_count());
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  f << json << "\n";
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

void BM_EvaluatePoint(benchmark::State& state) {
  const dse::DseOptions opts = bench_options();
  const dse::DesignPoint p = opts.space.grid_point(0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dse::evaluate_point(p, opts.eval, util::trial_key(1, i++)));
  }
}
BENCHMARK(BM_EvaluatePoint)->Unit(benchmark::kMillisecond);

void BM_ParetoFront(benchmark::State& state) {
  // Synthetic objective cloud via the Halton sequence (deterministic).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<dse::ObjVec> objs(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      objs[i][k] = util::radical_inverse(i + 1, k == 0   ? 2
                                                : k == 1 ? 3
                                                : k == 2 ? 5
                                                         : 7);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dse::pareto_front(objs));
  }
}
BENCHMARK(BM_ParetoFront)->Arg(128)->Arg(1024);

void BM_SurrogateFitPredict(benchmark::State& state) {
  const dse::DseOptions opts = bench_options();
  const auto pts = opts.space.grid_points();
  for (auto _ : state) {
    dse::QuadraticSurrogate s(opts.space.feature_names().size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      dse::ObjVec y{};
      for (std::size_t k = 0; k < 4; ++k) {
        y[k] = 1.0 + util::radical_inverse(i + 1, 2 + k);
      }
      s.add_sample(opts.space.features(pts[i]), y);
    }
    s.fit();
    benchmark::DoNotOptimize(s.predict(opts.space.features(pts[0])));
  }
}
BENCHMARK(BM_SurrogateFitPredict);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--dse-json=", 11) == 0) {
      json_path = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return emit_dse_json(json_path);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
