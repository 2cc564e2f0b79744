#include "tcam/full_array.hpp"

#include <stdexcept>

#include "spice/measure.hpp"

namespace fetcam::tcam {

using spice::Capacitor;
using spice::kGround;
using spice::NodeId;
using spice::VoltageSource;
using spice::Waveform;

FullArray::FullArray(FullArrayOptions opts) : opts_(opts) {
  if (opts.rows < 1 || opts.cols < 1) {
    throw std::invalid_argument("array too small");
  }
  word_.n_bits = opts.cols;
}

void FullArray::begin_build(const std::vector<arch::TernaryWord>& stored,
                            const arch::BitWord& query) {
  if (built_) throw std::logic_error("full array is one-shot");
  built_ = true;
  bool shape_ok = static_cast<int>(stored.size()) == opts_.rows &&
                  static_cast<int>(query.size()) == opts_.cols;
  for (const auto& w : stored) {
    shape_ok = shape_ok && static_cast<int>(w.size()) == opts_.cols;
  }
  if (!shape_ok) throw std::invalid_argument("stored/query shape mismatch");
  ml_sense_.assign(static_cast<std::size_t>(opts_.rows), -1);
  sa_out_.assign(static_cast<std::size_t>(opts_.rows), -1);
}

std::vector<NodeId> FullArray::place_row_match_line(const WordHarness& cell,
                                                    int r, int taps,
                                                    int cells_per_tap,
                                                    bool write_clamp,
                                                    const SearchTiming& tm) {
  const std::string sr = std::to_string(r);
  MatchLine ml = place_match_line(ckt_, word_, cell.cell_pitch(), taps,
                                  cells_per_tap, sr + "_", "r" + sr,
                                  write_clamp);
  program_precharge(ml.pre, word_.vdd, tm);
  ml_sense_[static_cast<std::size_t>(r)] = ml.taps.back();
  sa_out_[static_cast<std::size_t>(r)] = ml.sa.out;
  return std::move(ml.taps);
}

void FullArray::finish_build(const SearchTiming& tm, int steps) {
  t_stop_ = tm.stop_after(steps);
  t_latch_ = t_stop_ - tm.t_tail;
}

OnePointFiveArray::OnePointFiveArray(Flavor flavor, FullArrayOptions opts)
    : FullArray(opts), cell_(flavor, word_) {}

void OnePointFiveArray::build_search(
    const std::vector<arch::TernaryWord>& stored, const arch::BitWord& query,
    const SearchTiming& tm) {
  begin_build(stored, query);
  const int m = opts_.rows;
  const int n = opts_.cols;
  const int pairs = n / 2;
  const double vdd = word_.vdd;
  const double vsel = cell_.select_voltage();
  const double share = cell_.column_share();
  const bool dg = cell_.flavor() == Flavor::kDg;

  const NodeId vdd_rail = ckt_.node("slrail");
  ckt_.emplace<VoltageSource>("VSLRAIL", vdd_rail, kGround,
                              Waveform::dc(vdd));

  // --- select lines: DG back-gate SeL_a/SeL_b (the rows' lines lumped on
  // one node each); SG merged BL/SeL lines per column parity ---------------
  const LevelPlan plan_sel[2] = {
      {{0.0, 0.0}, {tm.search_start(), vsel}, {tm.step2_start(), 0.0}},
      {{0.0, 0.0}, {tm.step2_start(), vsel}}};
  NodeId sel[2];
  for (int s = 0; s < 2; ++s) {
    const std::string tag = s == 0 ? "a" : "b";
    sel[s] = ckt_.node((dg ? "sel" : "blsel.") + tag);
    ckt_.emplace<VoltageSource>("VSEL." + tag, sel[s], kGround,
                                levels_waveform(plan_sel[s], tm.t_edge));
    ckt_.emplace<Capacitor>("CSEL." + tag, sel[s], kGround,
                            share * (dg ? n : pairs) * m);
  }

  // --- DG BLs, grouped by query bit; they carry V_b while searching '0' --
  std::vector<NodeId> bl_of_col(static_cast<std::size_t>(n));
  if (dg) {
    int bl_count[2] = {0, 0};
    for (const auto qb : query) ++bl_count[qb ? 1 : 0];
    NodeId bl_q[2];
    for (int b = 0; b < 2; ++b) {
      const std::string sb = std::to_string(b);
      bl_q[b] = ckt_.node("bl.q" + sb);
      const LevelPlan bias{{0.0, 0.0},
                           {tm.search_start(), cell_.cell_params().v_b}};
      ckt_.emplace<VoltageSource>(
          "VBL.q" + sb, bl_q[b], kGround,
          levels_waveform(b == 0 ? bias : LevelPlan{{0.0, 0.0}}, tm.t_edge));
      if (bl_count[b] > 0) {
        ckt_.emplace<Capacitor>("CBL.q" + sb, bl_q[b], kGround,
                                share * bl_count[b] * m);
      }
    }
    for (int c = 0; c < n; ++c) {
      bl_of_col[static_cast<std::size_t>(c)] =
          bl_q[query[static_cast<std::size_t>(c)] ? 1 : 0];
    }
  } else {
    for (int c = 0; c < n; ++c) {
      bl_of_col[static_cast<std::size_t>(c)] = sel[c % 2];
    }
  }

  // --- per-pair-column SL / Wr/SL lines, shared by every row ---------------
  const auto level_for = [&](bool q) { return q ? 0.0 : vdd; };
  std::vector<NodeId> sl_col(static_cast<std::size_t>(pairs));
  std::vector<NodeId> wrsl_col(static_cast<std::size_t>(pairs));
  for (int pc = 0; pc < pairs; ++pc) {
    const auto idx = static_cast<std::size_t>(pc);
    const bool q1 = query[2 * idx] != 0;
    const bool q2 = query[2 * idx + 1] != 0;
    const std::string sp = std::to_string(pc);
    sl_col[idx] = ckt_.node("sl." + sp);
    wrsl_col[idx] = ckt_.node("wrsl." + sp);
    LevelPlan sl_plan{{0.0, 0.0}, {tm.search_start(), level_for(q1)}};
    LevelPlan wrsl_plan{{0.0, vdd}, {tm.search_start(), level_for(q1)}};
    if (q1 != q2) {
      sl_plan.push_back({tm.step2_start(), level_for(q2)});
      wrsl_plan.push_back({tm.step2_start(), level_for(q2)});
    }
    ckt_.emplace<VoltageSource>("VSL." + sp, sl_col[idx], kGround,
                                levels_waveform(sl_plan, tm.t_edge));
    ckt_.emplace<VoltageSource>("VWRSL." + sp, wrsl_col[idx], kGround,
                                levels_waveform(wrsl_plan, tm.t_edge));
    ckt_.emplace<Capacitor>("CSL." + sp, sl_col[idx], kGround,
                            share * 2 * m);
    ckt_.emplace<Capacitor>("CWRSL." + sp, wrsl_col[idx], kGround,
                            share * 2 * m);
  }

  // --- rows -----------------------------------------------------------------
  // SG cells have no BG select: their BL/SeL is the FG line.
  const NodeId bg[2] = {dg ? sel[0] : kGround, dg ? sel[1] : kGround};
  for (int r = 0; r < m; ++r) {
    const auto taps = place_row_match_line(cell_, r, pairs, 2, false, tm);
    const std::string row = std::to_string(r) + "_";
    const auto& word = stored[static_cast<std::size_t>(r)];
    for (int pc = 0; pc < pairs; ++pc) {
      const auto idx = static_cast<std::size_t>(pc);
      const OnePointFiveWord::PairNodes nodes{
          sl_col[idx],
          ckt_.node("slb." + row + std::to_string(pc)),
          wrsl_col[idx],
          bl_of_col[2 * idx],
          bl_of_col[2 * idx + 1],
          bg[0],
          bg[1],
          vdd_rail,
          taps[idx]};
      cell_.place_pair(ckt_, nodes, row, pc, word[2 * idx],
                       word[2 * idx + 1]);
    }
  }
  finish_build(tm, 2);
}

TwoFefetArray::TwoFefetArray(Flavor flavor, FullArrayOptions opts)
    : FullArray(opts), cell_(flavor, word_) {}

void TwoFefetArray::build_search(const std::vector<arch::TernaryWord>& stored,
                                 const arch::BitWord& query,
                                 const SearchTiming& tm) {
  begin_build(stored, query);
  const int m = opts_.rows;
  const int n = opts_.cols;
  const double col_cap = cell_.column_share() * m;
  const bool dg = cell_.flavor() == Flavor::kDg;

  // DG: the FGs sit on one grounded BL during search.
  NodeId bl_idle = kGround;
  if (dg) {
    bl_idle = ckt_.node("bl.idle");
    ckt_.emplace<VoltageSource>("VBL.idle", bl_idle, kGround,
                                Waveform::dc(0.0));
    ckt_.emplace<Capacitor>("CBL.idle", bl_idle, kGround, col_cap * n * 2.0);
  }

  // Per-column search lines, shared by every row.  Table I: search '0' ->
  // SL active; search '1' -> SLbar active.
  std::vector<NodeId> sl_col(static_cast<std::size_t>(n));
  std::vector<NodeId> slb_col(static_cast<std::size_t>(n));
  const LevelPlan active{{0.0, 0.0},
                         {tm.search_start(), cell_.search_voltage()}};
  const LevelPlan idle{{0.0, 0.0}};
  for (int c = 0; c < n; ++c) {
    const auto idx = static_cast<std::size_t>(c);
    const std::string sc = std::to_string(c);
    const bool q = query[idx] != 0;
    sl_col[idx] = ckt_.node("sl." + sc);
    slb_col[idx] = ckt_.node("slb." + sc);
    ckt_.emplace<VoltageSource>("VSL." + sc, sl_col[idx], kGround,
                                levels_waveform(q ? idle : active, tm.t_edge));
    ckt_.emplace<VoltageSource>("VSLB." + sc, slb_col[idx], kGround,
                                levels_waveform(q ? active : idle, tm.t_edge));
    ckt_.emplace<Capacitor>("CSL." + sc, sl_col[idx], kGround, col_cap);
    ckt_.emplace<Capacitor>("CSLB." + sc, slb_col[idx], kGround, col_cap);
  }

  for (int r = 0; r < m; ++r) {
    const auto taps = place_row_match_line(cell_, r, n, 1, true, tm);
    const std::string row = std::to_string(r) + "_";
    for (int c = 0; c < n; ++c) {
      const auto idx = static_cast<std::size_t>(c);
      const TwoFefetWord::CellNodes nodes =
          dg ? TwoFefetWord::CellNodes{taps[idx], bl_idle, bl_idle,
                                       sl_col[idx], slb_col[idx]}
             : TwoFefetWord::CellNodes{taps[idx], sl_col[idx], slb_col[idx],
                                       kGround, kGround};
      cell_.place_cell(ckt_, nodes, row, c,
                       stored[static_cast<std::size_t>(r)][idx]);
    }
  }
  finish_build(tm, 1);
}

namespace {

/// Simulate a built array and compare each row's SA decision against the
/// golden ternary rule.
ArraySearchResult run_and_compare(FullArray& arr,
                                  const std::vector<arch::TernaryWord>& stored,
                                  const arch::BitWord& query) {
  ArraySearchResult res;
  spice::TransientOptions topts;
  topts.t_stop = arr.t_stop();
  topts.dt = arr.suggested_dt();
  const auto sim = run_transient(arr.circuit(), topts);
  if (!sim.ok) {
    res.error = sim.error;
    return res;
  }
  const double half = 0.5 * arr.word_options().vdd;
  const auto& ckt = arr.circuit();
  for (int r = 0; r < arr.rows(); ++r) {
    ArraySearchRow row;
    row.expected_match =
        arch::word_matches(stored[static_cast<std::size_t>(r)], query);
    row.measured_match = sim.trace.voltage_at_time(
                             ckt.node_name(arr.sa_out_node(r)),
                             arr.t_latch()) > half;
    row.v_ml_latched = sim.trace.voltage_at_time(
        ckt.node_name(arr.ml_sense_node(r)), arr.t_latch());
    res.rows.push_back(row);
  }
  res.energy_total =
      spice::total_source_energy(sim.trace, "", 0.0, arr.t_stop());
  res.ok = true;
  return res;
}

}  // namespace

ArraySearchResult simulate_array_search(
    Flavor flavor, const FullArrayOptions& opts,
    const std::vector<arch::TernaryWord>& stored, const arch::BitWord& query,
    const SearchTiming& timing) {
  OnePointFiveArray arr(flavor, opts);
  arr.build_search(stored, query, timing);
  return run_and_compare(arr, stored, query);
}

ArraySearchResult simulate_two_fefet_array_search(
    Flavor flavor, const FullArrayOptions& opts,
    const std::vector<arch::TernaryWord>& stored, const arch::BitWord& query,
    const SearchTiming& timing) {
  TwoFefetArray arr(flavor, opts);
  arr.build_search(stored, query, timing);
  return run_and_compare(arr, stored, query);
}

}  // namespace fetcam::tcam
