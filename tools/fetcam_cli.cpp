// fetcam command-line driver: run any reproduction experiment by name.
//
//   fetcam_cli table4 [n_bits]        Table IV FoM comparison (n_bits and
//                                     fig7's lengths: even, 2..1024)
//   fetcam_cli fig1                   FeFET I-V curves + memory windows
//   fetcam_cli fig4                   two-step search waveform summary
//   fetcam_cli fig7 [n1 n2 ...]       word-length sweep
//   fetcam_cli ops <design>           operation-table verification
//   fetcam_cli divider                1.5T1Fe divider corners (SG + DG)
//   fetcam_cli variability [sigma]    Monte-Carlo divider yield (sigma
//                                     scale: finite, 0..100)
//   fetcam_cli disturb                read-disturb comparison
//   fetcam_cli halfselect             write half-select disturb study
//   fetcam_cli search <design> <stored> <query>
//                                     one circuit-level search of one word
//                                     (stored: 0/1/X digits; query: 0/1
//                                     bits of the same length, even for
//                                     1.5sg / 1.5dg)
//   fetcam_cli datasheet [rows cols]  array-level macro comparison (rows,
//                                     cols: whole, 1..1048576)
//   fetcam_cli export <design> <stored> <query> <file.cir>
//                                     ngspice deck of one search netlist
//   fetcam_cli engine [opts]          trace-driven TCAM service engine run
//                                     (JSON report on stdout); options:
//                                       --trace FILE     load a saved trace
//                                       --kind ip|classifier|embedding
//                                         (--workload is an alias) generate
//                                         one; "embedding" switches the run
//                                         to the approximate-match kNN path
//                                         (kSearchNearest) and the JSON
//                                         report gains recall_at_k plus a
//                                         winner-distance histogram
//                                       --cols/--rules/--queries/--seed N
//                                       --match-rate R  --update-rate R
//                                       --k N            neighbors per query
//                                       --threshold T    max mismatching
//                                                        digits (kNN mode)
//                                       --digit-bits D   bits per CAM digit
//                                                        (1-3, multi-level)
//                                       --mats N --rows-per-mat N
//                                       --design D --batch N
//                                       --save-trace FILE
//                                       --stats-interval MS  sample the
//                                         service stats every MS ms
//                                       --stats-out FILE  write the sampled
//                                         window documents plus one final
//                                         "fetcam.stats.v1" snapshot (a
//                                         concatenated JSON stream; stderr
//                                         when only --stats-interval is
//                                         given).  Implies at least
//                                         --obs-level metrics.
//   fetcam_cli compile [file] [opts]  rule compiler + update planner report
//                                     (JSON on stdout): expansion factor,
//                                     planned vs naive writes, projected
//                                     write energy, per-mat wear histogram.
//                                     [file] is a rule-set file (see
//                                     src/compiler/rules.hpp); without one
//                                     a workload is generated.  Options:
//                                       --kind ip|classifier --cols N
//                                       --rules N --seed N
//                                       --churn-steps N  planner churn loop
//                                       --mats N --rows-per-mat N --design D
//                                       --no-endurance   disable wear-aware
//                                                        placement
// Designs: 16t, 2sg, 2dg, 1.5sg, 1.5dg.  Every numeric engine / compile
// flag is parsed strictly (whole text, in range; rates in [0, 1]): a bad
// value exits 2 and names the flag.
//
// Global flags (before the command):
//   --threads N    pool size for the parallel evaluators, a whole number
//                  in [1, util::kMaxThreads] (overrides the FETCAM_THREADS
//                  environment variable; results are bit-identical for any
//                  value — only wall clock changes).  The engine
//                  subcommand's batch match phase runs on this same pool:
//                  --threads/FETCAM_THREADS sets how many threads each
//                  batch's parallel match phase uses, while batch
//                  APPLICATION stays on the one coordinator and in order —
//                  which is why engine results are bit-identical at any
//                  thread count too.
//   --obs-level L  off | metrics | trace (default off, or the FETCAM_OBS
//                  environment variable).  "metrics" collects solver-health
//                  counters/distributions; "trace" additionally records
//                  Chrome-trace spans.  Simulation RESULTS are identical at
//                  every level — only telemetry output changes.
//   --metrics-out F  write the metrics registry as JSON (implies at least
//                  --obs-level metrics unless off was given explicitly)
//   --trace-out F  write a chrome://tracing / Perfetto-loadable timeline
//                  (implies --obs-level trace unless set explicitly)
//   --manifest-out F  write the run manifest JSON here (default
//                  run_manifest.json whenever obs-level != off)
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "compiler/applier.hpp"
#include "compiler/compile.hpp"
#include "compiler/planner.hpp"
#include "compiler/rules.hpp"
#include "engine/engine.hpp"
#include "engine/stats.hpp"
#include "engine/table.hpp"
#include "engine/workload.hpp"
#include "dse/design_space.hpp"
#include "dse/driver.hpp"
#include "dse/report.hpp"
#include "eval/calibration.hpp"
#include "eval/disturb.hpp"
#include "eval/half_select.hpp"
#include "eval/array_eval.hpp"
#include "eval/experiments.hpp"
#include "eval/report.hpp"
#include "eval/variability.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/spice_export.hpp"
#include "tcam/sim_harness.hpp"
#include "util/parallel.hpp"

using namespace fetcam;

namespace {

/// Run manifest for the current invocation; command handlers add their
/// seeds / sweep parameters through this.
obs::RunManifest* g_manifest = nullptr;

struct SubcommandInfo {
  const char* name;
  const char* oneline;
};

constexpr SubcommandInfo kSubcommands[] = {
    {"table4", "figure-of-merit comparison of the five designs (Table IV)"},
    {"fig1", "SG FG-read vs DG BG-read device characteristics (Fig. 1)"},
    {"fig4", "search waveform match/miss demonstration (Fig. 4)"},
    {"fig7", "latency/energy vs word-length sweep (Fig. 7)"},
    {"ops", "per-design search/write operation verification table"},
    {"divider", "1.5T1Fe divider operating points across corners"},
    {"variability", "Monte-Carlo divider yield analysis"},
    {"disturb", "read-disturb polarization accumulation study"},
    {"halfselect", "write half-select disturb study"},
    {"search", "one search operation on a simulated word harness"},
    {"datasheet", "array-level area/energy/latency datasheet"},
    {"export", "SPICE netlist export of a cell/array testbench"},
    {"engine", "software match engine: bench, serve, client modes"},
    {"compile", "rule-set compiler onto the TCAM array model"},
    {"dse", "design-space exploration: surrogate-pruned sweep with "
            "Pareto-frontier output"},
};

int usage() {
  std::fprintf(stderr,
               "usage: fetcam_cli [--threads N] [--obs-level off|metrics|"
               "trace]\n"
               "                  [--metrics-out F] [--trace-out F] "
               "[--manifest-out F]\n"
               "                  <subcommand> [args]\n\n"
               "subcommands:\n");
  for (const auto& sc : kSubcommands) {
    std::fprintf(stderr, "  %-12s %s\n", sc.name, sc.oneline);
  }
  std::fprintf(stderr,
               "\n  see the header comment of tools/fetcam_cli.cpp\n"
               "  engine: --threads/FETCAM_THREADS also sets the engine's\n"
               "  batch-match worker pool (results are bit-identical at any\n"
               "  thread count; batches always apply in submission order)\n");
  return 2;
}

bool parse_design(const std::string& s, arch::TcamDesign& out) {
  if (s == "16t") out = arch::TcamDesign::kCmos16T;
  else if (s == "2sg") out = arch::TcamDesign::k2SgFefet;
  else if (s == "2dg") out = arch::TcamDesign::k2DgFefet;
  else if (s == "1.5sg") out = arch::TcamDesign::k1p5SgFe;
  else if (s == "1.5dg") out = arch::TcamDesign::k1p5DgFe;
  else return false;
  return true;
}

/// Strict positional number: the whole text must parse as a T inside
/// [lo, hi] (which also turns away nan and inf).  Prints what was wanted
/// and returns nullopt otherwise; callers then exit 2.
template <class T>
std::optional<T> parse_number(const char* what, std::string_view text, T lo,
                              T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !(v >= lo) ||
      !(v <= hi)) {
    std::ostringstream os;
    os << what << " wants a number in [" << lo << ", " << hi << "], got '"
       << text << "'\n";
    std::fputs(os.str().c_str(), stderr);
    return std::nullopt;
  }
  return v;
}

/// Upper bounds of the numeric `engine` / `compile` flags.
constexpr int kMaxCount = 1 << 20;        // rules, cols, mats, rows, k, ...
constexpr int kMaxQueries = 1 << 26;
constexpr int kMaxIntervalMs = 3600 * 1000;
constexpr std::uint64_t kMaxSeed = ~std::uint64_t{0};

/// Strict numeric flag value: parse_number into `out`, false on a bad
/// value (the caller exits 2).
template <class T>
bool set_number(T& out, const char* what, const char* text, T lo, T hi) {
  const auto v = parse_number(what, text, lo, hi);
  if (v) out = *v;
  return v.has_value();
}

/// Word length of table4 / fig7: every design includes a 1.5T1Fe word,
/// which pairs its cells, so the length must be even.
std::optional<int> parse_word_length(std::string_view text) {
  const auto n = parse_number("word length", text, 2, 1024);
  if (n && *n % 2 != 0) {
    std::fprintf(stderr, "word length must be even, got %d\n", *n);
    return std::nullopt;
  }
  return n;
}

int cmd_table4(int argc, char** argv) {
  eval::FomOptions opts;
  if (argc > 0) {
    const auto n = parse_word_length(argv[0]);
    if (!n) return 2;
    opts.n_bits = *n;
  }
  const auto foms = eval::table4(opts);
  std::printf("%s", eval::render_table4(foms).c_str());
  return 0;
}

int cmd_fig1() {
  for (const auto& c : {eval::fig1_sg_fg_read(), eval::fig1_dg_bg_read()}) {
    std::printf("%s: MW=%.2f V, on/off=%.3g %s\n", c.label.c_str(),
                c.memory_window, c.on_off_ratio, c.ok ? "" : "(FAILED)");
  }
  return 0;
}

int cmd_fig4() {
  for (const auto& c : eval::fig4_waveforms(tcam::Flavor::kDg)) {
    std::printf("%-12s -> SA %s %s\n", c.label.c_str(),
                c.matched ? "match" : "miss", c.ok ? "" : "(FAILED)");
  }
  return 0;
}

int cmd_fig7(int argc, char** argv) {
  std::vector<int> lengths;
  for (int i = 0; i < argc; ++i) {
    const auto n = parse_word_length(argv[i]);
    if (!n) return 2;
    lengths.push_back(*n);
  }
  if (lengths.empty()) lengths = {16, 32, 64};
  for (const auto d :
       {arch::TcamDesign::k2SgFefet, arch::TcamDesign::k2DgFefet,
        arch::TcamDesign::k1p5SgFe, arch::TcamDesign::k1p5DgFe}) {
    std::printf("%s:\n", arch::design_name(d).c_str());
    for (const auto& p : eval::fig7_sweep(d, lengths)) {
      std::printf("  N=%-4d latency %.0f ps, E_avg %.3f fJ/cell %s\n",
                  p.n_bits, p.latency_full_ps, p.energy_avg_fj,
                  p.ok ? "" : "(FAILED)");
    }
  }
  return 0;
}

int cmd_ops(int argc, char** argv) {
  arch::TcamDesign d;
  if (argc < 1 || !parse_design(argv[0], d)) return usage();
  int failures = 0;
  for (const auto& c : eval::verify_operation_table(d)) {
    std::printf("%-26s %-40s %s\n", c.operation.c_str(), c.detail.c_str(),
                c.passed ? "OK" : "FAIL");
    if (!c.passed) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int cmd_divider() {
  for (const auto flavor : {tcam::Flavor::kSg, tcam::Flavor::kDg}) {
    std::printf("1.5T1%s-Fe:\n", flavor == tcam::Flavor::kSg ? "SG" : "DG");
    for (const auto& p : eval::characterize_divider(flavor)) {
      std::printf("  stored %c query %d: slb=%.3f ml=%.3f %s\n",
                  arch::to_char(p.stored), p.query, p.v_slb, p.v_ml,
                  p.correct ? "OK" : "WRONG");
    }
  }
  return 0;
}

int cmd_variability(int argc, char** argv) {
  eval::VariabilityParams p;
  if (argc > 0) {
    const auto parsed = parse_number("sigma scale", argv[0], 0.0, 100.0);
    if (!parsed) return 2;
    const double scale = *parsed;
    p.sigma_fefet_vth *= scale;
    p.sigma_ps_rel *= scale;
    p.sigma_mos_vth *= scale;
    p.sigma_vc_rel *= scale;
    if (g_manifest != nullptr) g_manifest->add_info("sigma_scale", argv[0]);
  }
  if (g_manifest != nullptr) {
    g_manifest->add_info("rng_seed", static_cast<long long>(p.seed));
    g_manifest->add_info("samples", static_cast<long long>(p.samples));
  }
  for (const auto flavor : {tcam::Flavor::kSg, tcam::Flavor::kDg}) {
    const auto rep = eval::analyze_variability(flavor, p);
    const std::string label =
        flavor == tcam::Flavor::kSg ? "1.5T1SG-Fe" : "1.5T1DG-Fe";
    std::printf("%s", eval::render_variability(label, rep).c_str());
  }
  return 0;
}

int cmd_halfselect() {
  for (const bool dg : {true, false}) {
    std::printf("%s flavour:\n", dg ? "DG" : "SG");
    for (const auto& pt : eval::half_select_study(dg)) {
      std::printf("  %-32s v_FE=%.2f V, writes to fail: %lld%s\n",
                  eval::inhibit_scheme_name(pt.scheme).c_str(),
                  pt.v_fe_program, pt.writes_to_fail,
                  pt.survives_budget ? "+ (survives budget)" : "");
    }
  }
  return 0;
}

int cmd_disturb() {
  const auto res = eval::read_disturb_comparison();
  for (const auto& pt : res.sg_fg_read) {
    std::printf("SG FG read %.2f V: |dP|/Ps = %.3g\n", pt.v_read,
                pt.p_drift_norm);
  }
  std::printf("DG BG read %.2f V: |dP|/Ps = %.3g (disturb-free)\n",
              res.dg_bg_read.v_read, res.dg_bg_read.p_drift_norm);
  return 0;
}

int cmd_datasheet(int argc, char** argv) {
  eval::DatasheetOptions opts;
  if (argc >= 2) {
    const auto rows = parse_number("rows", argv[0], 1, 1 << 20);
    const auto cols = parse_number("cols", argv[1], 1, 1 << 20);
    if (!rows || !cols) return 2;
    opts.rows = *rows;
    opts.cols = *cols;
  }
  std::vector<eval::ArrayDatasheet> sheets;
  for (const auto d :
       {arch::TcamDesign::kCmos16T, arch::TcamDesign::k2SgFefet,
        arch::TcamDesign::k2DgFefet, arch::TcamDesign::k1p5SgFe,
        arch::TcamDesign::k1p5DgFe}) {
    sheets.push_back(eval::array_datasheet(d, opts));
  }
  std::printf("%s", eval::render_datasheets(sheets).c_str());
  return 0;
}

/// The <stored> <query> arguments of search / export, checked before any
/// simulation: a ternary word and a query of the same nonzero length, even
/// for the paired 1.5T1Fe cells.  Prints the problem and returns nullopt
/// otherwise; callers then exit 2.
std::optional<tcam::SearchConfig> parse_search_words(arch::TcamDesign d,
                                                     const char* stored,
                                                     const char* query) {
  tcam::SearchConfig cfg;
  try {
    cfg.stored = arch::word_from_string(stored);
    cfg.query = arch::bits_from_string(query);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return std::nullopt;
  }
  if (cfg.stored.empty() || cfg.stored.size() != cfg.query.size()) {
    std::fprintf(stderr,
                 "stored word (%zu digits) and query (%zu bits) must have "
                 "the same nonzero length\n",
                 cfg.stored.size(), cfg.query.size());
    return std::nullopt;
  }
  const bool paired = d == arch::TcamDesign::k1p5SgFe ||
                      d == arch::TcamDesign::k1p5DgFe;
  if (paired && cfg.stored.size() % 2 != 0) {
    std::fprintf(stderr, "1.5T1Fe word length must be even, got %zu\n",
                 cfg.stored.size());
    return std::nullopt;
  }
  return cfg;
}

int cmd_export(int argc, char** argv) {
  arch::TcamDesign d;
  if (argc < 4 || !parse_design(argv[0], d)) return usage();
  const auto cfg = parse_search_words(d, argv[1], argv[2]);
  if (!cfg) return 2;
  tcam::WordOptions opts;
  opts.n_bits = static_cast<int>(cfg->stored.size());
  auto h = tcam::make_word_harness(d, opts);
  h->build_search(*cfg);
  spice::SpiceExportOptions eopts;
  eopts.title = arch::design_name(d) + " search: stored " +
                std::string(argv[1]) + " query " + argv[2];
  eopts.tran_step = 2e-12;
  eopts.tran_stop = h->t_stop();
  if (!spice::export_ngspice_file(argv[3], h->circuit(), eopts)) {
    std::fprintf(stderr, "export failed\n");
    return 1;
  }
  std::printf("wrote %s (%d devices)\n", argv[3],
              static_cast<int>(h->circuit().devices().size()));
  return 0;
}

int cmd_search(int argc, char** argv) {
  arch::TcamDesign d;
  if (argc < 3 || !parse_design(argv[0], d)) return usage();
  const auto cfg = parse_search_words(d, argv[1], argv[2]);
  if (!cfg) return 2;
  tcam::WordOptions opts;
  opts.n_bits = static_cast<int>(cfg->stored.size());
  const auto m = tcam::measure_search(d, opts, *cfg);
  if (!m.ok) {
    std::printf("simulation failed: %s\n", m.error.c_str());
    return 1;
  }
  std::printf("%s: stored %s vs query %s -> %s (expected %s)\n",
              arch::design_name(d).c_str(), argv[1], argv[2],
              m.measured_match ? "MATCH" : "miss",
              m.expected_match ? "MATCH" : "miss");
  if (m.latency) std::printf("latency: %.0f ps\n", *m.latency * 1e12);
  std::printf("energy/cell: %.3f fJ\n", m.energy_per_cell * 1e15);
  return m.measured_match == m.expected_match ? 0 : 1;
}

int cmd_engine(int argc, char** argv) {
  engine::TraceSpec spec;
  spec.cols = 64;
  spec.rules = 1024;
  spec.queries = 20000;
  engine::TableConfig cfg;
  cfg.mats = 8;
  cfg.rows_per_mat = 256;
  engine::RunOptions ropts;
  engine::NearestRunOptions nopts;
  bool nearest = false;  ///< kNN mode: embedding workload or explicit --k
  std::string trace_path, save_path;
  std::string stats_out;
  int stats_interval_ms = 0;

  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--trace" && (v = value())) {
      trace_path = v;
    } else if (flag == "--save-trace" && (v = value())) {
      save_path = v;
    } else if ((flag == "--kind" || flag == "--workload") && (v = value())) {
      const std::string kind = v;
      if (kind == "ip") {
        spec.kind = engine::TraceKind::kIpPrefix;
      } else if (kind == "classifier") {
        spec.kind = engine::TraceKind::kClassifier;
      } else if (kind == "embedding") {
        spec.kind = engine::TraceKind::kEmbedding;
        nearest = true;
      } else {
        return usage();
      }
    } else if (flag == "--k" && (v = value())) {
      if (!set_number(nopts.k, "--k", v, 1, kMaxCount)) return 2;
      nearest = true;
    } else if (flag == "--threshold" && (v = value())) {
      if (!set_number(nopts.threshold, "--threshold", v, 0, kMaxCount)) {
        return 2;
      }
      nearest = true;
    } else if (flag == "--digit-bits" && (v = value())) {
      if (!set_number(cfg.digit_bits, "--digit-bits", v, 1, 3)) return 2;
      spec.digit_bits = cfg.digit_bits;
    } else if (flag == "--cols" && (v = value())) {
      if (!set_number(spec.cols, "--cols", v, 1, kMaxCount)) return 2;
    } else if (flag == "--rules" && (v = value())) {
      if (!set_number(spec.rules, "--rules", v, 1, kMaxCount)) return 2;
    } else if (flag == "--queries" && (v = value())) {
      if (!set_number(spec.queries, "--queries", v, 1, kMaxQueries)) {
        return 2;
      }
    } else if (flag == "--match-rate" && (v = value())) {
      if (!set_number(spec.match_rate, "--match-rate", v, 0.0, 1.0)) {
        return 2;
      }
    } else if (flag == "--update-rate" && (v = value())) {
      if (!set_number(ropts.update_rate, "--update-rate", v, 0.0, 1.0)) {
        return 2;
      }
    } else if (flag == "--seed" && (v = value())) {
      if (!set_number(spec.seed, "--seed", v, std::uint64_t{0}, kMaxSeed)) {
        return 2;
      }
      ropts.seed = spec.seed;
    } else if (flag == "--mats" && (v = value())) {
      if (!set_number(cfg.mats, "--mats", v, 1, kMaxCount)) return 2;
    } else if (flag == "--rows-per-mat" && (v = value())) {
      if (!set_number(cfg.rows_per_mat, "--rows-per-mat", v, 1, kMaxCount)) {
        return 2;
      }
    } else if (flag == "--batch" && (v = value())) {
      if (!set_number(ropts.batch_size, "--batch", v, 1, kMaxCount)) return 2;
      nopts.batch_size = ropts.batch_size;
    } else if (flag == "--design" && (v = value())) {
      if (!parse_design(v, cfg.design)) return usage();
    } else if (flag == "--stats-interval" && (v = value())) {
      if (!set_number(stats_interval_ms, "--stats-interval", v, 0,
                      kMaxIntervalMs)) {
        return 2;
      }
    } else if (flag == "--stats-out" && (v = value())) {
      stats_out = v;
    } else {
      return usage();
    }
  }
  // Periodic service-stats sampling needs the recorders populated, so the
  // stats flags imply at least metrics level (same contract as
  // --metrics-out).
  if ((stats_interval_ms > 0 || !stats_out.empty()) &&
      !obs::metrics_on()) {
    obs::set_level(obs::Level::kMetrics);
  }

  engine::Trace trace;
  if (!trace_path.empty()) {
    const auto loaded = engine::load_trace(trace_path);
    if (!loaded) {
      std::fprintf(stderr, "cannot load trace %s\n", trace_path.c_str());
      return 1;
    }
    trace = *loaded;
  } else {
    trace = engine::generate_trace(spec);
  }
  if (!save_path.empty() && !engine::save_trace(trace, save_path)) {
    std::fprintf(stderr, "cannot save trace to %s\n", save_path.c_str());
    return 1;
  }
  cfg.cols = trace.cols;

  if (g_manifest != nullptr) {
    g_manifest->add_info("engine_trace",
                         trace_path.empty()
                             ? engine::trace_kind_name(spec.kind)
                             : trace_path);
    g_manifest->add_info("engine_rules",
                         static_cast<long long>(trace.rules.size()));
    g_manifest->add_info("engine_queries",
                         static_cast<long long>(trace.queries.size()));
    g_manifest->add_info("rng_seed", static_cast<long long>(spec.seed));
  }

  try {
    engine::TcamTable table(cfg);
    const auto ids = engine::load_rules(table, trace);
    engine::SearchEngine eng(table);

    // Service-stats sampling: a sampler thread appends one deterministic
    // WindowedSnapshot JSON document (delta counters / rates / stage
    // percentiles) to --stats-out every --stats-interval ms, and the run
    // finishes with one final "fetcam.stats.v1" snapshot.  The file is a
    // concatenated stream of JSON documents.  Without --stats-out the
    // samples go to stderr (stdout stays a single report document).
    std::FILE* stats_file = nullptr;
    if (stats_interval_ms > 0 || !stats_out.empty()) {
      stats_file = stats_out.empty() ? stderr
                                     : std::fopen(stats_out.c_str(), "w");
      if (stats_file == nullptr) {
        std::fprintf(stderr, "cannot open stats output %s\n",
                     stats_out.c_str());
        return 1;
      }
    }
    std::mutex stats_mu;
    std::condition_variable stats_cv;
    bool stats_stop = false;
    std::thread sampler;
    if (stats_file != nullptr && stats_interval_ms > 0) {
      sampler = std::thread([&] {
        obs::WindowedSnapshot window;
        std::unique_lock<std::mutex> lock(stats_mu);
        while (!stats_cv.wait_for(
            lock, std::chrono::milliseconds(stats_interval_ms),
            [&] { return stats_stop; })) {
          const std::string doc = window.capture_json();
          std::fwrite(doc.data(), 1, doc.size(), stats_file);
          std::fflush(stats_file);
        }
      });
    }

    engine::RunSummary s;
    engine::NearestRunSummary ns;
    if (nearest) {
      ns = engine::run_nearest_trace(eng, table, trace, ids, nopts);
    } else {
      s = engine::run_trace(eng, table, trace, ids, ropts);
    }

    if (sampler.joinable()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        stats_stop = true;
      }
      stats_cv.notify_all();
      sampler.join();
    }
    if (stats_file != nullptr) {
      const std::string final_doc = engine::stats_snapshot_json(eng);
      std::fwrite(final_doc.data(), 1, final_doc.size(), stats_file);
      std::fflush(stats_file);
      if (stats_file != stderr) std::fclose(stats_file);
    }
    if (nearest) {
      std::printf(
          "{\n"
          "  \"design\": \"%s\",\n"
          "  \"mode\": \"nearest\",\n"
          "  \"mats\": %d,\n"
          "  \"rows_per_mat\": %d,\n"
          "  \"cols\": %d,\n"
          "  \"digit_bits\": %d,\n"
          "  \"threads\": %d,\n"
          "  \"rules\": %zu,\n"
          "  \"k\": %d,\n"
          "  \"threshold\": %d,\n"
          "  \"requests\": %llu,\n"
          "  \"searches\": %llu,\n"
          "  \"batches\": %llu,\n"
          "  \"hit_rate\": %.6f,\n"
          "  \"recall_at_k\": %.6f,\n"
          "  \"recall_queries\": %llu,\n"
          "  \"distance_histogram\": [",
          arch::design_name(cfg.design).c_str(), cfg.mats, cfg.rows_per_mat,
          cfg.cols, cfg.digit_bits, util::thread_count(), trace.rules.size(),
          ns.k, ns.threshold, static_cast<unsigned long long>(ns.requests),
          static_cast<unsigned long long>(ns.searches),
          static_cast<unsigned long long>(ns.batches), ns.hit_rate,
          ns.recall_at_k,
          static_cast<unsigned long long>(ns.recall_queries));
      for (std::size_t i = 0; i < ns.distance_histogram.size(); ++i) {
        std::printf("%s%llu", i ? ", " : "",
                    static_cast<unsigned long long>(ns.distance_histogram[i]));
      }
      std::printf(
          "],\n"
          "  \"energy_j\": %.6g,\n"
          "  \"energy_per_search_j\": %.6g,\n"
          "  \"model_time_s\": %.6g,\n"
          "  \"wall_s\": %.6f,\n"
          "  \"qps\": %.1f,\n"
          "  \"p50_batch_us\": %.1f,\n"
          "  \"p99_batch_us\": %.1f\n"
          "}\n",
          ns.energy_j, ns.energy_per_search_j, ns.model_time_s, ns.wall_s,
          ns.qps, ns.p50_batch_us, ns.p99_batch_us);
      return 0;
    }
    std::printf(
        "{\n"
        "  \"design\": \"%s\",\n"
        "  \"mats\": %d,\n"
        "  \"rows_per_mat\": %d,\n"
        "  \"cols\": %d,\n"
        "  \"threads\": %d,\n"
        "  \"rules\": %zu,\n"
        "  \"requests\": %llu,\n"
        "  \"searches\": %llu,\n"
        "  \"writes\": %llu,\n"
        "  \"batches\": %llu,\n"
        "  \"hit_rate\": %.6f,\n"
        "  \"step1_miss_rate\": %.6f,\n"
        "  \"energy_j\": %.6g,\n"
        "  \"energy_per_search_j\": %.6g,\n"
        "  \"driver_stalls\": %lld,\n"
        "  \"write_cycles\": %lld,\n"
        "  \"model_time_s\": %.6g,\n"
        "  \"wall_s\": %.6f,\n"
        "  \"qps\": %.1f,\n"
        "  \"p50_batch_us\": %.1f,\n"
        "  \"p99_batch_us\": %.1f\n"
        "}\n",
        arch::design_name(cfg.design).c_str(), cfg.mats, cfg.rows_per_mat,
        cfg.cols, util::thread_count(), trace.rules.size(),
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.searches),
        static_cast<unsigned long long>(s.writes),
        static_cast<unsigned long long>(s.batches), s.hit_rate,
        s.step1_miss_rate, s.energy_j, s.energy_per_search_j, s.driver_stalls,
        s.write_cycles, s.model_time_s, s.wall_s, s.qps, s.p50_batch_us,
        s.p99_batch_us);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int cmd_compile(int argc, char** argv) {
  engine::TraceSpec spec;
  spec.kind = engine::TraceKind::kClassifier;
  spec.cols = 32;
  spec.rules = 256;
  spec.queries = 0;
  engine::TableConfig cfg;
  cfg.mats = 4;
  cfg.rows_per_mat = 128;
  std::string rules_path;
  int churn_steps = 8;
  compiler::PlannerOptions popts;

  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag.rfind("--", 0) != 0) {
      rules_path = flag;
    } else if (flag == "--kind" && (v = value())) {
      const std::string kind = v;
      if (kind == "ip") spec.kind = engine::TraceKind::kIpPrefix;
      else if (kind == "classifier") spec.kind = engine::TraceKind::kClassifier;
      else return usage();
    } else if (flag == "--cols" && (v = value())) {
      if (!set_number(spec.cols, "--cols", v, 1, kMaxCount)) return 2;
    } else if (flag == "--rules" && (v = value())) {
      if (!set_number(spec.rules, "--rules", v, 1, kMaxCount)) return 2;
    } else if (flag == "--seed" && (v = value())) {
      if (!set_number(spec.seed, "--seed", v, std::uint64_t{0}, kMaxSeed)) {
        return 2;
      }
    } else if (flag == "--churn-steps" && (v = value())) {
      if (!set_number(churn_steps, "--churn-steps", v, 0, kMaxCount)) {
        return 2;
      }
    } else if (flag == "--mats" && (v = value())) {
      if (!set_number(cfg.mats, "--mats", v, 1, kMaxCount)) return 2;
    } else if (flag == "--rows-per-mat" && (v = value())) {
      if (!set_number(cfg.rows_per_mat, "--rows-per-mat", v, 1, kMaxCount)) {
        return 2;
      }
    } else if (flag == "--design" && (v = value())) {
      if (!parse_design(v, cfg.design)) return usage();
    } else if (flag == "--no-endurance") {
      popts.placement.endurance_aware = false;
    } else {
      return usage();
    }
  }

  compiler::RuleSet rules;
  if (!rules_path.empty()) {
    const auto loaded = compiler::load_rule_set(rules_path);
    if (!loaded) {
      std::fprintf(stderr, "cannot load rule set %s\n", rules_path.c_str());
      return 1;
    }
    rules = *loaded;
  } else {
    rules = compiler::rule_set_from_trace(engine::generate_trace(spec));
  }
  cfg.cols = rules.cols;

  if (g_manifest != nullptr) {
    g_manifest->add_info("compile_rules",
                         rules_path.empty() ? engine::trace_kind_name(spec.kind)
                                            : rules_path);
    g_manifest->add_info("compile_source_rules",
                         static_cast<long long>(rules.rules.size()));
    g_manifest->add_info("compile_churn_steps",
                         static_cast<long long>(churn_steps));
    g_manifest->add_info("rng_seed", static_cast<long long>(spec.seed));
  }

  try {
    const auto compiled = compiler::compile_rules(rules);
    engine::TcamTable table(cfg);
    engine::SearchEngine eng(table);

    // Initial install (this IS the naive cost: nothing to reuse yet).
    const auto install_plan = compiler::plan_update({}, compiled, table, popts);
    auto installed = compiler::apply_plan(eng, install_plan, compiled).installed;

    // Churn loop: each step edits the rule set, recompiles, and applies
    // the delta plan; totals accumulate the planner's savings.
    engine::ChurnSpec churn;
    churn.seed = spec.seed;
    compiler::PlanCost churn_cost;
    compiler::UpdatePlan last_plan;
    long long keeps = 0, flips = 0, rewrites = 0, inserts = 0, erases = 0,
              relocations = 0;
    std::vector<engine::TraceRule> current_rules;
    for (const auto& r : rules.rules) {
      if (r.has_range) continue;  // churn edits plain words only
      current_rules.push_back({r.match, r.priority});
    }
    const bool can_churn =
        current_rules.size() == rules.rules.size() && churn_steps > 0;
    for (int step = 1; can_churn && step <= churn_steps; ++step) {
      current_rules = engine::churn_rules(current_rules, spec.kind, rules.cols,
                                          churn, step);
      const auto next = compiler::compile_rules(
          compiler::rule_set_from_rules(rules.cols, current_rules));
      last_plan = compiler::plan_update(installed, next, table, popts);
      installed = compiler::apply_plan(eng, last_plan, next).installed;
      churn_cost.write_phases += last_plan.cost.write_phases;
      churn_cost.switched_cells += last_plan.cost.switched_cells;
      churn_cost.energy_j += last_plan.cost.energy_j;
      churn_cost.naive_write_phases += last_plan.cost.naive_write_phases;
      churn_cost.naive_switched_cells += last_plan.cost.naive_switched_cells;
      churn_cost.naive_energy_j += last_plan.cost.naive_energy_j;
      keeps += last_plan.keeps;
      flips += last_plan.priority_flips;
      rewrites += last_plan.rewrites;
      inserts += last_plan.inserts;
      erases += last_plan.erases;
      relocations += last_plan.relocations;
    }
    eng.drain();

    // Wear histogram: per-mat write totals + row extremes.
    std::string per_mat;
    std::uint64_t max_row = 0;
    std::uint64_t min_row = ~std::uint64_t{0};
    std::uint64_t max_mat = 0;
    std::uint64_t min_mat = ~std::uint64_t{0};
    for (int m = 0; m < table.mats(); ++m) {
      const auto& e = table.endurance(m);
      if (!per_mat.empty()) per_mat += ", ";
      per_mat += std::to_string(e.total_writes());
      max_row = std::max(max_row, e.max_row_writes());
      min_row = std::min(min_row, e.min_row_writes());
      max_mat = std::max(max_mat, e.total_writes());
      min_mat = std::min(min_mat, e.total_writes());
    }

    const auto& st = compiled.stats;
    std::printf(
        "{\n"
        "  \"design\": \"%s\",\n"
        "  \"mats\": %d,\n"
        "  \"rows_per_mat\": %d,\n"
        "  \"cols\": %d,\n"
        "  \"endurance_aware\": %s,\n"
        "  \"source_rules\": %d,\n"
        "  \"empty_rules\": %d,\n"
        "  \"expanded_entries\": %lld,\n"
        "  \"shadowed_removed\": %lld,\n"
        "  \"redundant_removed\": %lld,\n"
        "  \"compiled_entries\": %zu,\n"
        "  \"priority_levels\": %d,\n"
        "  \"expansion_factor\": %.4f,\n"
        "  \"install\": {\n"
        "    \"write_phases\": %lld,\n"
        "    \"switched_cells\": %lld,\n"
        "    \"write_energy_j\": %.6g\n"
        "  },\n"
        "  \"churn\": {\n"
        "    \"steps\": %d,\n"
        "    \"write_phases\": %lld,\n"
        "    \"switched_cells\": %lld,\n"
        "    \"write_energy_j\": %.6g,\n"
        "    \"naive_write_phases\": %lld,\n"
        "    \"naive_write_energy_j\": %.6g,\n"
        "    \"writes_vs_naive\": %.4f,\n"
        "    \"keeps\": %lld,\n"
        "    \"priority_flips\": %lld,\n"
        "    \"rewrites\": %lld,\n"
        "    \"inserts\": %lld,\n"
        "    \"erases\": %lld,\n"
        "    \"relocations\": %lld\n"
        "  },\n"
        "  \"wear\": {\n"
        "    \"per_mat_writes\": [%s],\n"
        "    \"mat_spread\": %llu,\n"
        "    \"max_row_writes\": %llu,\n"
        "    \"min_row_writes\": %llu\n"
        "  }\n"
        "}\n",
        arch::design_name(cfg.design).c_str(), cfg.mats, cfg.rows_per_mat,
        cfg.cols, popts.placement.endurance_aware ? "true" : "false",
        st.source_rules, st.empty_rules, st.expanded_entries,
        st.shadowed_removed, st.redundant_removed, compiled.entries.size(),
        st.priority_levels, st.expansion_factor,
        install_plan.cost.write_phases, install_plan.cost.switched_cells,
        install_plan.cost.energy_j, can_churn ? churn_steps : 0,
        churn_cost.write_phases, churn_cost.switched_cells,
        churn_cost.energy_j, churn_cost.naive_write_phases,
        churn_cost.naive_energy_j,
        churn_cost.naive_write_phases > 0
            ? static_cast<double>(churn_cost.write_phases) /
                  static_cast<double>(churn_cost.naive_write_phases)
            : 0.0,
        keeps, flips, rewrites, inserts, erases, relocations, per_mat.c_str(),
        static_cast<unsigned long long>(max_mat - min_mat),
        static_cast<unsigned long long>(max_row),
        static_cast<unsigned long long>(min_row));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "compile run failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

// fetcam_cli dse [--space=FILE] [--budget=N] [--surrogate=on|off]
//                [--mc=N] [--seed=N] [--json=FILE]
//
// Sweeps the design space (default: dse::default_space(); --space loads
// the `key = v1 v2 ...` format of docs/DSE.md), prints the Pareto
// frontier, and writes the fetcam.dse.v1 JSON document (default
// BENCH_dse.json; --json= with an empty value disables the file).  With
// the surrogate on (default) the exact arm runs once and the pruned arm
// replays against it, so the JSON carries both plus the frontier-recall
// figure the CI gate checks.  Parallelism comes from the global --threads
// flag; the table is bit-identical at any thread count.
int cmd_dse(int argc, char** argv) {
  dse::DseOptions opts;
  opts.space = dse::default_space();
  std::string json_out = "BENCH_dse.json";
  bool surrogate = true;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value_of = [&a](const char* prefix) {
      return a.substr(std::strlen(prefix));
    };
    // Whole-string numeric parse: "--budget=abc" is an error, not 0.
    const auto parse_u64 = [](const std::string& flag,
                              const std::string& v) {
      char* end = nullptr;
      const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || end == nullptr || *end != '\0') {
        throw std::invalid_argument(flag + " wants a non-negative integer, got '" +
                                    v + "'");
      }
      return n;
    };
    try {
      if (a.rfind("--space=", 0) == 0) {
        opts.space = dse::load_space_file(value_of("--space="));
      } else if (a.rfind("--budget=", 0) == 0) {
        opts.budget = static_cast<std::size_t>(
            parse_u64("--budget", value_of("--budget=")));
      } else if (a.rfind("--surrogate=", 0) == 0) {
        const std::string v = value_of("--surrogate=");
        if (v == "on") surrogate = true;
        else if (v == "off") surrogate = false;
        else {
          std::fprintf(stderr, "--surrogate wants on|off\n");
          return usage();
        }
      } else if (a.rfind("--mc=", 0) == 0) {
        const unsigned long long mc = parse_u64("--mc", value_of("--mc="));
        if (mc == 0) throw std::invalid_argument("--mc wants >= 1 trials");
        opts.eval.mc_samples = static_cast<int>(mc);
      } else if (a.rfind("--seed=", 0) == 0) {
        opts.seed = parse_u64("--seed", value_of("--seed="));
        opts.eval.seed = opts.seed;
      } else if (a.rfind("--json=", 0) == 0) {
        json_out = value_of("--json=");
      } else {
        std::fprintf(stderr, "dse: unknown flag '%s'\n", a.c_str());
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dse: %s\n", e.what());
      return 2;
    }
  }

  if (g_manifest != nullptr) {
    g_manifest->add_info("rng_seed", static_cast<long long>(opts.seed));
    g_manifest->add_info("dse_budget", static_cast<long long>(opts.budget));
    g_manifest->add_info("dse_surrogate", surrogate ? "on" : "off");
  }

  try {
    std::string json, text;
    if (surrogate) {
      const dse::DseComparison cmp = dse::run_dse_comparison(opts);
      const auto paper = dse::check_paper_points(opts, cmp.exact);
      json = dse::render_json(opts, cmp.exact, &cmp.pruned,
                              cmp.frontier_recall, paper,
                              util::thread_count());
      text = dse::render_text(opts, cmp.exact, &cmp.pruned,
                              cmp.frontier_recall, paper);
    } else {
      dse::DseOptions exact_opts = opts;
      exact_opts.use_surrogate = false;
      const dse::DseResult res = dse::run_dse(exact_opts);
      const auto paper = dse::check_paper_points(opts, res);
      json = dse::render_json(opts, res, nullptr, 0.0, paper,
                              util::thread_count());
      text = dse::render_text(opts, res, nullptr, 0.0, paper);
    }
    std::printf("%s", text.c_str());
    if (!json_out.empty()) {
      std::FILE* f = std::fopen(json_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
      std::printf("\nwrote %s\n", json_out.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dse: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& cmd, int argc, char** argv) {
  if (cmd == "table4") return cmd_table4(argc - 2, argv + 2);
  if (cmd == "fig1") return cmd_fig1();
  if (cmd == "fig4") return cmd_fig4();
  if (cmd == "fig7") return cmd_fig7(argc - 2, argv + 2);
  if (cmd == "ops") return cmd_ops(argc - 2, argv + 2);
  if (cmd == "divider") return cmd_divider();
  if (cmd == "variability") return cmd_variability(argc - 2, argv + 2);
  if (cmd == "disturb") return cmd_disturb();
  if (cmd == "halfselect") return cmd_halfselect();
  if (cmd == "search") return cmd_search(argc - 2, argv + 2);
  if (cmd == "datasheet") return cmd_datasheet(argc - 2, argv + 2);
  if (cmd == "export") return cmd_export(argc - 2, argv + 2);
  if (cmd == "engine") return cmd_engine(argc - 2, argv + 2);
  if (cmd == "compile") return cmd_compile(argc - 2, argv + 2);
  if (cmd == "dse") return cmd_dse(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::string command_line;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command_line += ' ';
    command_line += argv[i];
  }

  // Global flags precede the command.
  std::string metrics_out, trace_out, manifest_out;
  bool level_given = false;
  int argi = 1;
  while (argi < argc && std::strncmp(argv[argi], "--", 2) == 0) {
    const std::string flag = argv[argi];
    const auto take_value = [&](std::string& out) {
      if (argi + 1 >= argc) return false;
      out = argv[argi + 1];
      argi += 2;
      return true;
    };
    if (flag == "--threads" && argi + 1 < argc) {
      const std::optional<int> n = util::parse_thread_count(argv[argi + 1]);
      if (!n) {
        std::fprintf(stderr, "--threads wants a whole count in [1, %d]\n",
                     util::kMaxThreads);
        return 2;
      }
      util::set_thread_count(*n);
      argi += 2;
    } else if (flag == "--obs-level") {
      std::string value;
      obs::Level level;
      if (!take_value(value) || !obs::parse_level(value, level)) {
        std::fprintf(stderr, "--obs-level wants off|metrics|trace\n");
        return 2;
      }
      obs::set_level(level);
      level_given = true;
    } else if (flag == "--metrics-out") {
      if (!take_value(metrics_out)) return usage();
    } else if (flag == "--trace-out") {
      if (!take_value(trace_out)) return usage();
    } else if (flag == "--manifest-out") {
      if (!take_value(manifest_out)) return usage();
    } else {
      return usage();
    }
  }
  // Output flags imply a collection level unless one was set explicitly.
  if (!level_given) {
    if (!trace_out.empty()) {
      obs::set_level(obs::Level::kTrace);
    } else if (!metrics_out.empty() && obs::level() < obs::Level::kMetrics) {
      obs::set_level(obs::Level::kMetrics);
    }
  }

  argc -= argi - 1;
  argv += argi - 1;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  obs::RunManifest manifest("fetcam_cli", command_line);
  manifest.set_threads(util::thread_count());
  manifest.set_level(obs::level());
  g_manifest = &manifest;

  int rc;
  {
    const obs::PhaseTimer phase(manifest, cmd);
    rc = dispatch(cmd, argc, argv);
  }
  g_manifest = nullptr;

  // Telemetry output.  With observability off and no explicit output paths
  // this writes nothing — the baseline run is byte-for-byte untouched.
  if (!metrics_out.empty() &&
      !obs::MetricsRegistry::instance().write_json(metrics_out)) {
    std::fprintf(stderr, "failed to write metrics to %s\n",
                 metrics_out.c_str());
  }
  if (!trace_out.empty() &&
      !obs::TraceCollector::instance().write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
  }
  if (manifest_out.empty() && obs::level() != obs::Level::kOff) {
    manifest_out = "run_manifest.json";
  }
  if (!manifest_out.empty() && !manifest.write(manifest_out)) {
    std::fprintf(stderr, "failed to write manifest to %s\n",
                 manifest_out.c_str());
  }
  return rc;
}
