// Simulator-kernel scaling study (no paper counterpart): dense vs sparse LU
// factorization cost on MNA-structured matrices, the KLU-style refactor
// speedup, end-to-end transient throughput of the word harness, and the
// dense LU's structural replay on the word harness's own Jacobians.
//
// This is the evidence behind two solver policies: SolverKind::kAuto (the
// sparse Gilbert-Peierls path overtakes dense LU at a few hundred unknowns
// on the ladder-plus-branches structure TCAM netlists produce) and
// factorization reuse (the numeric-only refactor path must beat the full
// symbolic+numeric factor by a wide margin for the reuse machinery to pay).
//
// Usage:
//   bench_solver_scaling                      # google-benchmark kernels
//   bench_solver_scaling --solver-json=PATH   # machine-readable report
//   bench_solver_scaling --solver-json=PATH --no-transient  # kernels only
//
// The JSON mode writes the fetcam.solver.v1 document (BENCH_solver.json)
// that CI's bench gate checks (tools/check_bench.py, rules "solver: ...").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "numeric/lu.hpp"
#include "numeric/newton.hpp"
#include "numeric/sparse_lu.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "spice/transient.hpp"
#include "tcam/sim_harness.hpp"

using namespace fetcam;

namespace {

// MNA-like ladder matrix: tridiagonal conductances plus a few long-range
// branch rows, the structure of a match-line netlist.
void build_ladder(int n, num::Matrix* dense, num::TripletAccumulator* sparse) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> g(0.5, 2.0);
  const auto add = [&](num::Index r, num::Index c, double v) {
    if (dense != nullptr) (*dense)(r, c) += v;
    if (sparse != nullptr) sparse->add(r, c, v);
  };
  for (int i = 0; i < n; ++i) {
    add(i, i, 2.5 + g(rng));
    if (i > 0) add(i, i - 1, -1.0);
    if (i + 1 < n) add(i, i + 1, -1.0);
  }
  // Branch-like rows every 32 unknowns.
  for (int i = 0; i + 32 < n; i += 32) {
    add(i, i + 32, 1.0);
    add(i + 32, i, 1.0);
  }
}

void BM_DenseLu(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  num::Matrix a(n, n);
  build_ladder(n, &a, nullptr);
  const num::Vector b(n, 1.0);
  for (auto _ : state) {
    num::LuFactorization lu;
    benchmark::DoNotOptimize(lu.factor(a));
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_DenseLu)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_SparseLu(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  num::TripletAccumulator a(n);
  build_ladder(n, nullptr, &a);
  const num::Vector b(n, 1.0);
  for (auto _ : state) {
    num::SparseLu lu;
    benchmark::DoNotOptimize(lu.factor(a));
    auto x = lu.solve(b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SparseLu)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_SparseLuRefactor(benchmark::State& state) {
  // Steady-state cost of the reuse path: factor once, then numeric-only
  // refactors of the same pattern (what every transient step pays).
  const int n = static_cast<int>(state.range(0));
  num::TripletAccumulator a(n);
  build_ladder(n, nullptr, &a);
  num::StampedCsc m;
  m.build(a);
  num::SparseLu lu;
  if (!lu.factor(m)) state.SkipWithError("factor failed");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lu.factor(m));
  }
}
BENCHMARK(BM_SparseLuRefactor)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Arg(2048)->Unit(benchmark::kMicrosecond);

void BM_WordSearchTransient(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    tcam::WordOptions opts;
    opts.n_bits = n;
    tcam::SearchConfig cfg;
    for (int i = 0; i < n; ++i) {
      cfg.stored.push_back((i % 2) != 0 ? arch::Ternary::kOne
                                        : arch::Ternary::kZero);
      cfg.query.push_back((i % 2) != 0 ? 1 : 0);
    }
    auto m = tcam::measure_search(arch::TcamDesign::k1p5DgFe, opts, cfg);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_WordSearchTransient)->Arg(8)->Arg(32)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Machine-readable report (--solver-json=PATH)
// ---------------------------------------------------------------------------

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `reps` timings of `fn` (microseconds).
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_us();
    fn();
    t.push_back(now_us() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

double peak_rss_mb() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
  }
#endif
  return 0.0;
}

struct KernelRow {
  int n = 0;
  std::size_t nnz = 0;
  double full_factor_us = 0.0;
  double refactor_us = 0.0;
  double solve_us = 0.0;
  double triplet_build_us = 0.0;
  double replay_fill_us = 0.0;
};

KernelRow measure_kernels(int n) {
  KernelRow row;
  row.n = n;
  num::TripletAccumulator a(n);
  build_ladder(n, nullptr, &a);
  num::StampedCsc m;
  m.build(a);
  row.nnz = m.nonzeros();

  const int reps = n >= 1024 ? 25 : 100;

  // Full symbolic + numeric factor (reuse disabled).
  {
    num::SparseLuOptions opts;
    opts.reuse_symbolic = false;
    num::SparseLu lu;
    row.full_factor_us = median_us(reps, [&] {
      if (!lu.factor(m, opts)) std::abort();
    });
  }
  // Numeric-only refactor of the cached pattern.
  num::SparseLu lu;
  if (!lu.factor(m)) std::abort();
  row.refactor_us = median_us(reps, [&] {
    if (!lu.factor(m)) std::abort();
  });
  // Triangular solve (in place, allocation-free).
  num::Vector b(n, 1.0);
  row.solve_us = median_us(reps, [&] { lu.solve(b); });

  // Assembly: fresh triplet -> CSC build vs stamp-slot replay.
  row.triplet_build_us = median_us(reps, [&] { m.build(a); });
  row.replay_fill_us = median_us(reps, [&] {
    m.begin_fill();
    const auto& rows = a.rows();
    const auto& cols = a.cols();
    const auto& vals = a.vals();
    for (std::size_t k = 0; k < vals.size(); ++k) {
      if (!m.add(rows[k], cols[k], vals[k])) std::abort();
    }
    if (!m.end_fill()) std::abort();
  });
  return row;
}

struct NewtonPathRow {
  int n_bits = 0;
  num::Index system_size = 0;
  std::size_t stamps = 0;
  double scratch_us = 0.0;
  double steady_us = 0.0;
};

/// Per-iteration Newton SOLVER path on the real word-slice Jacobian at its
/// converged operating point, device model evaluation excluded (this PR does
/// not change it).  The scratch arm re-does what every iteration used to pay:
/// triplet accumulation, dedup CSC build, full symbolic + numeric factor.
/// The steady arm is the reuse path: stamp-slot replay into the cached
/// pattern plus a numeric-only refactor.  Both arms deliver the identical
/// stamp stream and solve the identical system.
NewtonPathRow measure_newton_path(int n_bits) {
  NewtonPathRow row;
  row.n_bits = n_bits;
  tcam::WordOptions opts;
  opts.n_bits = n_bits;
  tcam::SearchConfig cfg;
  for (int i = 0; i < n_bits; ++i) {
    cfg.stored.push_back((i % 2) != 0 ? arch::Ternary::kOne
                                      : arch::Ternary::kZero);
    cfg.query.push_back((i % 2) != 0 ? 1 : 0);
  }
  auto h = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
  h->build_search(cfg);
  spice::OpOptions oopts;
  oopts.solver = spice::SolverKind::kSparse;
  const auto op = spice::solve_op(h->circuit(), oopts);
  if (!op.converged) {
    std::cerr << "OP failed for newton-path measurement\n";
    std::abort();
  }
  const num::Index n = h->circuit().system_size();
  row.system_size = n;

  // Capture the stamp stream once (real device stamps at the OP solution).
  const spice::EvalContext ctx;
  num::TripletAccumulator a(n);
  num::Vector residual(n, 0.0);
  {
    num::TripletSink sink(a);
    spice::assemble_system(h->circuit(), ctx, op.x, sink, residual);
  }
  row.stamps = a.entries();
  const auto& rs = a.rows();
  const auto& cs = a.cols();
  const auto& vs = a.vals();

  const int reps = 200;
  num::Vector rhs(n, 0.0);

  // Scratch arm: what an iteration cost before reuse.
  num::SparseLuOptions off;
  off.reuse_symbolic = false;
  num::TripletAccumulator a2(n);
  num::SparseLu lu_off;
  row.scratch_us = median_us(reps, [&] {
    a2.reset(n);
    for (std::size_t k = 0; k < vs.size(); ++k) a2.add(rs[k], cs[k], vs[k]);
    if (!lu_off.factor(a2, off)) std::abort();
    rhs = residual;
    lu_off.solve(rhs);
  });

  // Steady arm: stamp-slot replay + numeric-only refactor.
  num::StampedCsc m;
  m.build(a);
  num::SparseLu lu_on;
  if (!lu_on.factor(m)) std::abort();
  row.steady_us = median_us(reps, [&] {
    m.begin_fill();
    for (std::size_t k = 0; k < vs.size(); ++k) {
      if (!m.add(rs[k], cs[k], vs[k])) std::abort();
    }
    if (!m.end_fill()) std::abort();
    if (!lu_on.factor(m)) std::abort();
    rhs = residual;
    lu_on.solve(rhs);
  });
  return row;
}

struct TransientAb {
  int n_bits = 0;
  num::Index system_size = 0;
  double reuse_on_s = 0.0;
  double reuse_off_s = 0.0;
  double hit_rate = 0.0;
  std::uint64_t full_factors = 0;
  std::uint64_t refactors = 0;
  std::uint64_t fallbacks = 0;
};

/// End-to-end A/B: one 1.5T1DG match-line slice searched with the sparse
/// solver, reuse on vs off.  `n_bits = 256` is the paper-scale word slice.
TransientAb measure_transient_ab(int n_bits) {
  TransientAb ab;
  ab.n_bits = n_bits;
  const auto run = [&](bool reuse, num::SparseLu::Stats* stats) {
    tcam::WordOptions opts;
    opts.n_bits = n_bits;
    tcam::SearchConfig cfg;
    for (int i = 0; i < n_bits; ++i) {
      cfg.stored.push_back((i % 2) != 0 ? arch::Ternary::kOne
                                        : arch::Ternary::kZero);
      cfg.query.push_back((i % 2) != 0 ? 1 : 0);
    }
    auto h = tcam::make_word_harness(arch::TcamDesign::k1p5DgFe, opts);
    h->build_search(cfg);
    h->circuit().finalize();
    ab.system_size = h->circuit().system_size();
    num::NewtonWorkspace ws;
    spice::TransientOptions topts;
    topts.t_stop = h->t_stop();
    topts.dt = h->suggested_dt();
    topts.op.solver = spice::SolverKind::kSparse;
    topts.op.reuse_factorization = reuse;
    topts.workspace = &ws;
    const double t0 = now_us();
    const auto res = spice::run_transient(h->circuit(), topts);
    const double wall = (now_us() - t0) * 1e-6;
    if (!res.ok) {
      std::cerr << "transient failed: " << res.error << "\n";
      std::abort();
    }
    if (stats != nullptr) *stats = ws.sparse_lu.stats();
    return wall;
  };
  num::SparseLu::Stats stats;
  ab.reuse_on_s = run(true, &stats);
  ab.reuse_off_s = run(false, nullptr);
  ab.full_factors = stats.full_factors;
  ab.refactors = stats.refactors;
  ab.fallbacks = stats.fallbacks;
  const double total =
      static_cast<double>(stats.full_factors + stats.refactors);
  ab.hit_rate = total > 0.0 ? static_cast<double>(stats.refactors) / total
                            : 0.0;
  return ab;
}

struct DenseReplayRow {
  arch::TcamDesign design{};
  int n_bits = 0;
  num::Index system_size = 0;
  double fresh_factor_us = 0.0;
  double replay_us = 0.0;
  double solve_us = 0.0;
  std::uint64_t factors = 0;
  std::uint64_t replays = 0;
  std::uint64_t records = 0;
};

/// Mean microseconds per call of `fn`, as the median over batches.
template <typename Fn>
double per_call_us(Fn&& fn) {
  constexpr int kBatch = 100;
  return median_us(41, [&] {
           for (int i = 0; i < kBatch; ++i) fn();
         }) /
         kBatch;
}

/// The dense LU on a word harness's own transient Jacobians (report only).
/// One worst-case search transient on the dense solver counts the LU's
/// factors, structural replays and recorded structures; its last Jacobian
/// then times a fresh dense factor (a one-shot object, which records
/// nothing), a replay of the recorded structure, and a solve.
DenseReplayRow measure_dense_replay(arch::TcamDesign design, int n_bits) {
  DenseReplayRow row;
  row.design = design;
  row.n_bits = n_bits;
  tcam::WordOptions opts;
  opts.n_bits = n_bits;
  tcam::SearchConfig cfg;
  for (int i = 0; i < n_bits; ++i) {
    cfg.stored.push_back((i % 2) != 0 ? arch::Ternary::kOne
                                      : arch::Ternary::kZero);
    cfg.query.push_back((i % 2) != 0 ? 1 : 0);
  }
  cfg.stored[0] = arch::Ternary::kOne;
  cfg.query[0] = 0;
  auto h = tcam::make_word_harness(design, opts);
  h->build_search(cfg);
  num::NewtonWorkspace ws;
  spice::TransientOptions topts;
  topts.t_stop = h->t_stop();
  topts.dt = h->suggested_dt();
  topts.op.solver = spice::SolverKind::kDense;
  topts.workspace = &ws;

  auto& reg = obs::MetricsRegistry::instance();
  obs::Counter& factors = reg.counter("lu.dense.factors");
  obs::Counter& replays = reg.counter("lu.dense.replays");
  obs::Counter& records = reg.counter("lu.dense.records");
  const obs::Level level = obs::level();
  obs::set_level(obs::Level::kMetrics);
  const std::uint64_t f0 = factors.value();
  const std::uint64_t p0 = replays.value();
  const std::uint64_t r0 = records.value();
  const auto res = spice::run_transient(h->circuit(), topts);
  row.factors = factors.value() - f0;
  row.replays = replays.value() - p0;
  row.records = records.value() - r0;
  obs::set_level(level);
  if (!res.ok) {
    std::cerr << "dense transient failed: " << res.error << "\n";
    std::abort();
  }

  const num::Matrix jac = ws.dense_jac;
  row.system_size = jac.rows();
  row.fresh_factor_us = per_call_us([&] {
    num::LuFactorization fresh;
    if (!fresh.factor(jac)) std::abort();
  });
  num::LuFactorization lu;
  for (int i = 0; i < 2; ++i) {
    if (!lu.factor(jac)) std::abort();  // the second call records
  }
  row.replay_us = per_call_us([&] {
    if (!lu.factor(jac)) std::abort();
  });
  num::Vector b(jac.rows(), 1.0);
  row.solve_us = per_call_us([&] {
    num::Vector x = b;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  });
  return row;
}

int emit_solver_json(const std::string& path, bool with_transient) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"fetcam.solver.v1\",\n  \"kernels\": [\n";
  const int sizes[] = {64, 128, 256, 512, 1024, 2048};
  bool first = true;
  for (const int n : sizes) {
    const KernelRow r = measure_kernels(n);
    os << (first ? "" : ",\n");
    first = false;
    os << "    {\"n\": " << r.n << ", \"nnz\": " << r.nnz
       << ", \"full_factor_us\": " << r.full_factor_us
       << ", \"refactor_us\": " << r.refactor_us
       << ", \"refactor_speedup\": "
       << (r.refactor_us > 0.0 ? r.full_factor_us / r.refactor_us : 0.0)
       << ", \"solve_us\": " << r.solve_us
       << ", \"triplet_build_us\": " << r.triplet_build_us
       << ", \"replay_fill_us\": " << r.replay_fill_us << "}";
    std::cerr << "kernel n=" << r.n << " full=" << r.full_factor_us
              << "us refactor=" << r.refactor_us << "us solve=" << r.solve_us
              << "us\n";
  }
  os << "\n  ],\n  \"newton_path\": [\n";
  first = true;
  for (const int bits : {64, 256}) {
    const NewtonPathRow np = measure_newton_path(bits);
    os << (first ? "" : ",\n");
    first = false;
    os << "    {\"n_bits\": " << np.n_bits
       << ", \"system_size\": " << np.system_size
       << ", \"stamps\": " << np.stamps
       << ", \"scratch_us\": " << np.scratch_us
       << ", \"steady_us\": " << np.steady_us << ", \"speedup\": "
       << (np.steady_us > 0.0 ? np.scratch_us / np.steady_us : 0.0) << "}";
    std::cerr << "newton_path bits=" << np.n_bits << " n=" << np.system_size
              << " scratch=" << np.scratch_us << "us steady=" << np.steady_us
              << "us\n";
  }
  os << "\n  ],\n";
  if (with_transient) {
    // 256 bits is the paper-scale match-line slice (acceptance target);
    // 64 keeps a fast cross-check point.
    os << "  \"transient\": [\n";
    first = true;
    for (const int bits : {64, 256}) {
      const TransientAb ab = measure_transient_ab(bits);
      os << (first ? "" : ",\n");
      first = false;
      os << "    {\"n_bits\": " << ab.n_bits
         << ", \"system_size\": " << ab.system_size
         << ", \"reuse_on_s\": " << ab.reuse_on_s
         << ", \"reuse_off_s\": " << ab.reuse_off_s << ", \"speedup\": "
         << (ab.reuse_on_s > 0.0 ? ab.reuse_off_s / ab.reuse_on_s : 0.0)
         << ", \"refactor_hit_rate\": " << ab.hit_rate
         << ", \"full_factors\": " << ab.full_factors
         << ", \"refactors\": " << ab.refactors
         << ", \"fallbacks\": " << ab.fallbacks << "}";
      std::cerr << "transient bits=" << ab.n_bits << " on=" << ab.reuse_on_s
                << "s off=" << ab.reuse_off_s
                << "s hit_rate=" << ab.hit_rate << "\n";
    }
    os << "\n  ],\n";
  }
  // Report only: the dense LU at the DSE's word sizes, 26 to 50 unknowns.
  os << "  \"dense_replay\": [\n";
  first = true;
  for (const auto& [design, bits] :
       {std::pair{arch::TcamDesign::k2SgFefet, 8},
        std::pair{arch::TcamDesign::k2DgFefet, 8},
        std::pair{arch::TcamDesign::k2DgFefet, 20},
        std::pair{arch::TcamDesign::k2SgFefet, 32}}) {
    const DenseReplayRow r = measure_dense_replay(design, bits);
    os << (first ? "" : ",\n");
    first = false;
    os << "    {\"design\": \"" << arch::design_name(r.design)
       << "\", \"n_bits\": " << r.n_bits << ", \"n\": " << r.system_size
       << ", \"fresh_factor_us\": " << r.fresh_factor_us
       << ", \"replay_us\": " << r.replay_us
       << ", \"solve_us\": " << r.solve_us
       << ", \"factors_per_transient\": " << r.factors
       << ", \"replays_per_transient\": " << r.replays
       << ", \"records_per_transient\": " << r.records << "}";
    std::cerr << "dense_replay n=" << r.system_size
              << " fresh=" << r.fresh_factor_us << "us replay=" << r.replay_us
              << "us solve=" << r.solve_us << "us records=" << r.records
              << "\n";
  }
  os << "\n  ],\n";
  os << "  \"peak_rss_mb\": " << peak_rss_mb() << "\n}\n";

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
  bool with_transient = true;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--solver-json=", 14) == 0) {
      json_path = argv[i] + 14;
    } else if (std::strcmp(argv[i], "--no-transient") == 0) {
      with_transient = false;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return emit_solver_json(json_path, with_transient);
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
