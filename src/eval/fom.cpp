#include "eval/fom.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "devices/fefet.hpp"
#include "tcam/cell_1p5t1fe.hpp"

namespace fetcam::eval {

using arch::BitWord;
using arch::TcamDesign;
using arch::Ternary;
using arch::TernaryWord;

namespace {

bool is_two_step(TcamDesign d) {
  return d == TcamDesign::k1p5SgFe || d == TcamDesign::k1p5DgFe;
}

/// Alternating half-'0'/half-'1' stored word with a fully matching query.
void base_pattern(int n, TernaryWord& stored, BitWord& query) {
  stored.clear();
  query.clear();
  for (int i = 0; i < n; ++i) {
    const bool one = (i % 2) != 0;
    stored.push_back(one ? Ternary::kOne : Ternary::kZero);
    query.push_back(one ? 1 : 0);
  }
}

/// Inject the worst-case one-cell mismatch at `pos`: stored '1', query '0'
/// (the slow TML-partially-on corner for 1.5T1Fe; the LVT-pulldown path for
/// the 2FeFET designs).
void inject_mismatch(TernaryWord& stored, BitWord& query, int pos) {
  stored[static_cast<std::size_t>(pos)] = Ternary::kOne;
  query[static_cast<std::size_t>(pos)] = 0;
}

/// Every measurement builds its harness from these options, so the word
/// length is checked here: the worst-case patterns write cell 0, and the
/// 1.5T1Fe step-2 pattern cell 1 too.
tcam::WordOptions word_options(TcamDesign design, const FomOptions& opts) {
  const int min_bits = is_two_step(design) ? 2 : 1;
  if (opts.n_bits < min_bits) {
    throw std::invalid_argument(
        "FomOptions::n_bits must be >= " + std::to_string(min_bits) +
        " for " + arch::design_name(design) + ", got " +
        std::to_string(opts.n_bits));
  }
  tcam::WordOptions w;
  w.n_bits = opts.n_bits;
  w.rows_in_array = opts.rows;
  w.vdd = opts.vdd;
  w.tuning = opts.tuning;
  return w;
}

}  // namespace

LatencyResult measure_worst_latency(TcamDesign design, const FomOptions& opts) {
  LatencyResult out;
  const tcam::WordOptions wopts = word_options(design, opts);

  tcam::SearchTiming probe = opts.timing;
  probe.t_step = opts.probe_t_step;

  // Pass 1: worst-case mismatch in the first (step-1) position.  Longer
  // words discharge slower; widen the probe window until the SA resolves.
  // Only the latency is used, so each probe stops at the SA decision.
  TernaryWord stored;
  BitWord query;
  base_pattern(opts.n_bits, stored, query);
  inject_mismatch(stored, query, 0);
  double lat1 = 0.0;
  bool found = false;
  for (int attempt = 0; attempt < 4 && !found; ++attempt) {
    tcam::SearchConfig cfg{stored, query, probe, 1};
    const auto m1 = tcam::measure_search_latency(design, wopts, cfg);
    if (!m1.ok) {
      out.error = m1.error;
      return out;
    }
    if (m1.latency.has_value()) {
      lat1 = *m1.latency;
      found = true;
    } else {
      probe.t_step *= 2.0;
    }
  }
  if (!found) {
    out.error = "no SA transition in latency probe";
    return out;
  }

  out.sized_timing = opts.timing;
  out.sized_timing.t_step = lat1 * (1.0 + opts.window_slack);

  if (!is_two_step(design)) {
    out.latency_full = lat1;
    out.ok = true;
    return out;
  }

  out.latency_1step = lat1;
  // Pass 2: mismatch in a cell2 position, full two-step search with the
  // sized step window.
  base_pattern(opts.n_bits, stored, query);
  inject_mismatch(stored, query, 1);
  tcam::SearchConfig cfg2{stored, query, out.sized_timing, 2};
  auto m2 = tcam::measure_search(design, wopts, cfg2);
  if (!m2.ok || !m2.latency.has_value()) {
    out.error = m2.ok ? "no SA transition in step-2 latency probe" : m2.error;
    return out;
  }
  out.latency_full = *m2.latency;
  out.step2 = std::move(m2);
  out.ok = true;
  return out;
}

SearchEnergyResult measure_search_energy(TcamDesign design,
                                         const FomOptions& opts,
                                         const LatencyResult& lat) {
  SearchEnergyResult out;
  const tcam::SearchTiming& timing = lat.sized_timing;
  const tcam::WordOptions wopts = word_options(design, opts);

  TernaryWord stored;
  BitWord query;
  base_pattern(opts.n_bits, stored, query);
  inject_mismatch(stored, query, 0);

  if (!is_two_step(design)) {
    tcam::SearchConfig cfg{stored, query, timing, 1};
    const auto m = tcam::measure_search(design, wopts, cfg);
    if (!m.ok) {
      out.error = m.error;
      return out;
    }
    out.e1 = out.e2 = out.avg = m.energy_per_cell;
    out.breakdown = m.energy;
    out.ok = true;
    return out;
  }

  // 1-step: early-terminated after a step-1 miss.
  tcam::SearchConfig cfg1{stored, query, timing, 1};
  const auto m1 = tcam::measure_search(design, wopts, cfg1);
  if (!m1.ok) {
    out.error = m1.error;
    return out;
  }
  // 2-step: step-2 miss, both steps run.  This is the latency pass-2
  // search (same word, mismatch and window), so reuse it when present.
  tcam::SearchMeasurement m2;
  if (lat.step2.has_value()) {
    m2 = *lat.step2;
  } else {
    base_pattern(opts.n_bits, stored, query);
    inject_mismatch(stored, query, 1);
    tcam::SearchConfig cfg2{stored, query, timing, 2};
    m2 = tcam::measure_search(design, wopts, cfg2);
  }
  if (!m2.ok) {
    out.error = m2.error;
    return out;
  }
  out.e1 = m1.energy_per_cell;
  out.e2 = m2.energy_per_cell;
  out.avg = opts.miss1_rate * out.e1 + (1.0 - opts.miss1_rate) * out.e2;
  out.breakdown = m1.energy;  // step-1 miss dominates the average
  out.ok = true;
  return out;
}

std::optional<double> measure_write_energy(TcamDesign design,
                                           const FomOptions& opts) {
  if (design == TcamDesign::kCmos16T) return std::nullopt;
  const tcam::WordOptions wopts = word_options(design, opts);
  // Half '0' / half '1' over the complementary previous data: every cell
  // switches its polarization once.
  TernaryWord data, initial;
  for (int i = 0; i < opts.n_bits; ++i) {
    const bool one = (i % 2) != 0;
    data.push_back(one ? Ternary::kOne : Ternary::kZero);
    initial.push_back(one ? Ternary::kZero : Ternary::kOne);
  }
  tcam::WriteConfig cfg{data, initial, opts.write_timing};
  const auto m = tcam::measure_write(design, wopts, cfg);
  if (!m.ok || !m.data_ok) return std::nullopt;
  return m.energy_per_cell;
}

DesignFom evaluate_fom(TcamDesign design, const FomOptions& opts) {
  DesignFom fom;
  fom.design = design;
  fom.name = arch::design_name(design);
  fom.cell_area_um2 = arch::cell_area(design).total_um2;

  // Device-level constants from the technology cards.
  switch (design) {
    case TcamDesign::kCmos16T:
      fom.write_voltage = 0.9;  // SRAM write at nominal rail [25]
      break;
    case TcamDesign::k2SgFefet:
      fom.write_voltage = dev::sg_fefet_params().vw();
      fom.t_fe_nm = dev::sg_fefet_params().fe.t_fe * 1e9;
      break;
    case TcamDesign::k2DgFefet:
      fom.write_voltage = dev::dg_fefet_params().vw();
      fom.t_fe_nm = dev::dg_fefet_params().fe.t_fe * 1e9;
      break;
    case TcamDesign::k1p5SgFe:
    case TcamDesign::k1p5DgFe: {
      const auto flavor = design == TcamDesign::k1p5SgFe ? tcam::Flavor::kSg
                                                         : tcam::Flavor::kDg;
      tcam::OnePointFiveWord probe(flavor, word_options(design, opts));
      fom.write_voltage = flavor == tcam::Flavor::kSg
                              ? dev::sg_fefet_params().vw()
                              : dev::dg_fefet_params().vw();
      fom.t_fe_nm = (flavor == tcam::Flavor::kSg
                         ? dev::sg_fefet_params()
                         : dev::dg_fefet_params())
                        .fe.t_fe *
                    1e9;
      fom.v_mvt = probe.vm();
      break;
    }
  }

  const auto lat = measure_worst_latency(design, opts);
  if (!lat.ok) {
    fom.error = "latency: " + lat.error;
    return fom;
  }
  fom.latency_1step_ps = lat.latency_1step * 1e12;
  fom.latency_ps = lat.latency_full * 1e12;

  const auto energy = measure_search_energy(design, opts, lat);
  if (!energy.ok) {
    fom.error = "search energy: " + energy.error;
    return fom;
  }
  fom.energy_1step_fj = energy.e1 * 1e15;
  fom.energy_2step_fj = energy.e2 * 1e15;
  fom.energy_avg_fj = energy.avg * 1e15;
  fom.energy_breakdown = energy.breakdown;

  if (const auto we = measure_write_energy(design, opts)) {
    fom.write_energy_fj = *we * 1e15;
  }
  fom.ok = true;
  return fom;
}

}  // namespace fetcam::eval
