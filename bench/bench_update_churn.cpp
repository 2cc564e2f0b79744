// Rule-churn update cost study (no paper counterpart): the delta planner
// (src/compiler) against the naive erase-everything/rewrite-everything
// controller, and endurance-aware placement against capacity-only
// placement under hot-rule churn.
//
// Usage:
//   bench_update_churn                      # google-benchmark kernels
//   bench_update_churn --update-json=PATH   # machine-readable report
//
// The JSON mode writes the fetcam.update.v1 document (BENCH_update.json)
// that CI's bench gate checks (tools/check_bench.py, rules "update: ..."):
//   * planned delta write phases <= 50 % of the naive full-rewrite
//     baseline over the churn run; and
//   * the endurance-aware run's wear spread (max - min per-mat writes)
//     and hottest-row count no worse than capacity-only placement's.
//
// Both churn arms run the SAME rule trace with fixed seeds, so every
// reported count is deterministic; only the search latency figures are
// machine-dependent (and are reported, not gated).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "compiler/rules.hpp"
#include "engine/engine.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "util/parallel.hpp"

using namespace fetcam;

namespace {

engine::TraceSpec churn_trace_spec() {
  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kIpPrefix;
  spec.cols = 32;
  spec.rules = 96;
  spec.queries = 512;
  spec.match_rate = 0.4;
  spec.seed = 11;
  return spec;
}

engine::TableConfig churn_table_config() {
  engine::TableConfig cfg;
  cfg.design = arch::TcamDesign::k1p5DgFe;
  cfg.mats = 4;
  cfg.rows_per_mat = 64;
  cfg.cols = 32;
  cfg.subarrays_per_mat = 4;
  return cfg;
}

engine::ChurnSpec churn_spec() {
  engine::ChurnSpec churn;
  churn.seed = 11;
  churn.hot_fraction = 0.25;
  churn.hot_modify_rate = 0.9;
  churn.modify_rate = 0.1;
  churn.add_remove_rate = 0.05;
  churn.priority_jitter_rate = 0.05;
  return churn;
}

constexpr int kChurnSteps = 24;

// ---------------------------------------------------------------------------
// google-benchmark kernels
// ---------------------------------------------------------------------------

void BM_ExpandRangeWorstCase(benchmark::State& state) {
  // The classic [1, 2^w - 2] range: 2(w - 1) prefixes at w = 16.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compiler::expand_range(1, (1ull << 16) - 2, 16));
  }
}
BENCHMARK(BM_ExpandRangeWorstCase);

void BM_CompileRuleSet(benchmark::State& state) {
  const auto trace = engine::generate_trace(churn_trace_spec());
  const auto rules = compiler::rule_set_from_trace(trace);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile_rules(rules));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rules.rules.size()));
}
BENCHMARK(BM_CompileRuleSet)->Unit(benchmark::kMicrosecond);

void BM_CompileChurnedRuleSet(benchmark::State& state) {
  // The same set after 50 churn steps: edits scatter 'X' digits, so care
  // masks are many and irregular instead of one per prefix length.
  const auto spec = churn_trace_spec();
  auto rules = engine::generate_trace(spec).rules;
  for (int step = 1; step <= 50; ++step) {
    rules = engine::churn_rules(rules, spec.kind, spec.cols, churn_spec(),
                                step);
  }
  const auto set = compiler::rule_set_from_rules(spec.cols, rules);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::compile_rules(set));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(set.rules.size()));
}
BENCHMARK(BM_CompileChurnedRuleSet)->Unit(benchmark::kMicrosecond);

void BM_PlanChurnDelta(benchmark::State& state) {
  // plan_update is read-only on the table, so one installed state can be
  // re-planned every iteration.
  const auto spec = churn_trace_spec();
  const auto trace = engine::generate_trace(spec);
  engine::TcamTable table(churn_table_config());
  compiler::Installation installed;
  const auto setA =
      compiler::compile_rules(compiler::rule_set_from_rules(spec.cols,
                                                            trace.rules));
  {
    engine::SearchEngine eng(table);
    installed = compiler::apply_plan(
                    eng, compiler::plan_update({}, setA, table), setA)
                    .installed;
  }
  const auto rules_b = engine::churn_rules(trace.rules, spec.kind, spec.cols,
                                           churn_spec(), 1);
  const auto setB =
      compiler::compile_rules(compiler::rule_set_from_rules(spec.cols,
                                                            rules_b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiler::plan_update(installed, setB, table));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(setB.entries.size()));
}
BENCHMARK(BM_PlanChurnDelta)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Machine-readable report (--update-json=PATH)
// ---------------------------------------------------------------------------

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ChurnReport {
  int steps = 0;
  long long delta_write_phases = 0;
  long long delta_switched_cells = 0;
  double delta_energy_j = 0.0;
  long long naive_write_phases = 0;
  double naive_energy_j = 0.0;
  long long keeps = 0;
  long long priority_flips = 0;
  long long rewrites = 0;
  long long inserts = 0;
  long long erases = 0;
  long long relocations = 0;
  std::vector<std::uint64_t> mat_writes;
  std::uint64_t mat_spread = 0;
  std::uint64_t max_row_writes = 0;
  double search_p50_us = 0.0;  ///< median 64-query batch during churn
};

/// Drive kChurnSteps churn steps through compile -> plan -> apply with the
/// given placement policy, interleaving timed search sweeps.
ChurnReport run_churn(bool endurance_aware) {
  const auto spec = churn_trace_spec();
  const auto trace = engine::generate_trace(spec);
  engine::TcamTable table(churn_table_config());

  compiler::PlannerOptions popts;
  popts.placement.endurance_aware = endurance_aware;
  popts.placement.rewrite_spread_headroom = 6;

  ChurnReport rep;
  rep.steps = kChurnSteps;
  std::vector<double> batch_us;
  {
    engine::SearchEngine eng(table);
    compiler::Installation installed;
    std::vector<engine::TraceRule> rules = trace.rules;
    for (int step = 0; step <= kChurnSteps; ++step) {
      if (step > 0) {
        rules = engine::churn_rules(rules, spec.kind, spec.cols, churn_spec(),
                                    step);
      }
      const auto compiled =
          compiler::compile_rules(compiler::rule_set_from_rules(spec.cols,
                                                                rules));
      const auto plan =
          compiler::plan_update(installed, compiled, table, popts);
      installed = compiler::apply_plan(eng, plan, compiled).installed;
      if (step > 0) {  // step 0 is the install, not churn
        rep.delta_write_phases += plan.cost.write_phases;
        rep.delta_switched_cells += plan.cost.switched_cells;
        rep.delta_energy_j += plan.cost.energy_j;
        rep.naive_write_phases += plan.cost.naive_write_phases;
        rep.naive_energy_j += plan.cost.naive_energy_j;
        rep.keeps += plan.keeps;
        rep.priority_flips += plan.priority_flips;
        rep.rewrites += plan.rewrites;
        rep.inserts += plan.inserts;
        rep.erases += plan.erases;
        rep.relocations += plan.relocations;
      }

      // Timed search sweep between updates (latency under churn load).
      for (std::size_t q = 0; q + 64 <= trace.queries.size(); q += 64) {
        std::vector<engine::Request> batch;
        batch.reserve(64);
        for (std::size_t k = q; k < q + 64; ++k) {
          batch.push_back(engine::make_search(trace.queries[k]));
        }
        const double t0 = now_us();
        benchmark::DoNotOptimize(eng.execute(std::move(batch)));
        batch_us.push_back(now_us() - t0);
      }
    }
    eng.drain();
  }

  std::uint64_t max_mat = 0;
  std::uint64_t min_mat = ~std::uint64_t{0};
  for (int m = 0; m < table.mats(); ++m) {
    const auto& e = table.endurance(m);
    rep.mat_writes.push_back(e.total_writes());
    max_mat = std::max(max_mat, e.total_writes());
    min_mat = std::min(min_mat, e.total_writes());
    rep.max_row_writes = std::max(rep.max_row_writes, e.max_row_writes());
  }
  rep.mat_spread = max_mat - min_mat;
  std::sort(batch_us.begin(), batch_us.end());
  rep.search_p50_us = batch_us.empty() ? 0.0 : batch_us[batch_us.size() / 2];
  return rep;
}

void json_arm(std::ostream& os, const char* name, const ChurnReport& r,
              bool last) {
  os << "  \"" << name << "\": {\n"
     << "    \"steps\": " << r.steps << ",\n"
     << "    \"delta_write_phases\": " << r.delta_write_phases << ",\n"
     << "    \"delta_switched_cells\": " << r.delta_switched_cells << ",\n"
     << "    \"delta_energy_j\": " << r.delta_energy_j << ",\n"
     << "    \"naive_write_phases\": " << r.naive_write_phases << ",\n"
     << "    \"naive_energy_j\": " << r.naive_energy_j << ",\n"
     << "    \"keeps\": " << r.keeps << ",\n"
     << "    \"priority_flips\": " << r.priority_flips << ",\n"
     << "    \"rewrites\": " << r.rewrites << ",\n"
     << "    \"inserts\": " << r.inserts << ",\n"
     << "    \"erases\": " << r.erases << ",\n"
     << "    \"relocations\": " << r.relocations << ",\n"
     << "    \"mat_writes\": [";
  for (std::size_t m = 0; m < r.mat_writes.size(); ++m) {
    os << (m != 0 ? ", " : "") << r.mat_writes[m];
  }
  os << "],\n"
     << "    \"mat_spread\": " << r.mat_spread << ",\n"
     << "    \"max_row_writes\": " << r.max_row_writes << ",\n"
     << "    \"search_p50_us\": " << r.search_p50_us << "\n"
     << "  }" << (last ? "\n" : ",\n");
}

int emit_update_json(const std::string& path) {
  util::set_thread_count(0);
  const ChurnReport aware = run_churn(true);
  const ChurnReport naive_place = run_churn(false);
  std::cerr << "aware: delta=" << aware.delta_write_phases << " phases vs "
            << aware.naive_write_phases << " naive, mat_spread="
            << aware.mat_spread << ", max_row=" << aware.max_row_writes
            << "\n";
  std::cerr << "capacity-only: delta=" << naive_place.delta_write_phases
            << " phases, mat_spread=" << naive_place.mat_spread
            << ", max_row=" << naive_place.max_row_writes << "\n";

  std::ostringstream os;
  os << "{\n  \"schema\": \"fetcam.update.v1\",\n";
  json_arm(os, "endurance_aware", aware, false);
  json_arm(os, "capacity_only", naive_place, true);
  os << "}\n";

  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  f << os.str();
  std::cerr << "wrote " << path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--update-json=", 14) == 0) {
      json_path = argv[i] + 14;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return emit_update_json(json_path);
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
