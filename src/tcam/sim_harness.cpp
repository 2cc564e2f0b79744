#include "tcam/sim_harness.hpp"

#include <stdexcept>

#include "spice/measure.hpp"
#include "tcam/cell_1p5t1fe.hpp"
#include "tcam/cell_2fefet.hpp"
#include "tcam/cmos16t.hpp"

namespace fetcam::tcam {

std::unique_ptr<WordHarness> make_word_harness(arch::TcamDesign design,
                                               const WordOptions& opts) {
  switch (design) {
    case arch::TcamDesign::kCmos16T:
      return std::make_unique<Cmos16tWord>(opts);
    case arch::TcamDesign::k2SgFefet:
      return std::make_unique<TwoFefetWord>(Flavor::kSg, opts);
    case arch::TcamDesign::k2DgFefet:
      return std::make_unique<TwoFefetWord>(Flavor::kDg, opts);
    case arch::TcamDesign::k1p5SgFe:
      return std::make_unique<OnePointFiveWord>(Flavor::kSg, opts);
    case arch::TcamDesign::k1p5DgFe:
      return std::make_unique<OnePointFiveWord>(Flavor::kDg, opts);
  }
  throw std::invalid_argument("unknown design");
}

namespace {

EnergyBreakdown bucket_energy(const spice::Trace& trace, double t0,
                              double t1) {
  EnergyBreakdown e;
  e.precharge = spice::total_source_energy(trace, "VPRE", t0, t1);
  e.sense_amp = spice::total_source_energy(trace, "VSA", t0, t1);
  const double all = spice::total_source_energy(trace, "", t0, t1);
  e.signals = all - e.precharge - e.sense_amp;
  return e;
}

}  // namespace

SearchMeasurement measure_search(arch::TcamDesign design,
                                 const WordOptions& opts,
                                 const SearchConfig& cfg,
                                 spice::Trace* trace_out) {
  SearchMeasurement m;
  auto harness = make_word_harness(design, opts);
  harness->build_search(cfg);

  m.expected_match = arch::word_matches(cfg.stored, cfg.query);
  // An early-terminated (1-step) search on a 2-step design only inspects the
  // first cells of each pair.
  const int steps = cfg.steps == 0 ? harness->search_steps() : cfg.steps;
  if (steps < harness->search_steps()) {
    bool match = true;
    for (std::size_t i = 0; i < cfg.stored.size(); i += 2) {
      if (!arch::ternary_matches(cfg.stored[i], cfg.query[i] != 0)) {
        match = false;
      }
    }
    m.expected_match = match;
  }

  spice::TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  auto res = run_transient(harness->circuit(), topts);
  m.newton_iterations = res.total_newton_iterations;
  m.accepted_steps = res.accepted_steps;
  if (!res.ok) {
    m.error = res.error;
    return m;
  }

  const auto& trace = res.trace;
  const auto times = trace.times();
  const std::string ml_name =
      harness->circuit().node_name(harness->ml_sense_node());
  const std::string sa_name =
      harness->circuit().node_name(harness->sa_out_node());
  const auto v_ml = trace.voltage(ml_name);
  const auto v_sa = trace.voltage(sa_name);
  const double t_search = cfg.timing.search_start();
  const double half = 0.5 * opts.vdd;

  // The SA verdict is latched at the end of the last evaluation window
  // (clocked sensing), not at the end of the trace: ML droop beyond the
  // latch instant is architecturally irrelevant.
  const double t_latch =
      cfg.timing.stop_after(steps) - cfg.timing.t_tail;
  m.measured_match =
      spice::sample_at(times, v_sa, std::min(t_latch, times.back())) > half;
  const auto ml_cross =
      spice::cross_time(times, v_ml, half, spice::Edge::kFalling, t_search);
  const auto sa_cross =
      spice::cross_time(times, v_sa, half, spice::Edge::kFalling, t_search);
  if (ml_cross) m.ml_fall_time = *ml_cross - t_search;
  if (sa_cross) m.latency = *sa_cross - t_search;

  m.energy = bucket_energy(trace, 0.0, harness->t_stop());
  m.energy_per_cell = m.energy.total() / harness->n_bits();
  m.ok = true;
  if (trace_out != nullptr) *trace_out = trace;
  return m;
}

LatencyProbe measure_search_latency(arch::TcamDesign design,
                                    const WordOptions& opts,
                                    const SearchConfig& cfg) {
  LatencyProbe p;
  auto harness = make_word_harness(design, opts);
  harness->build_search(cfg);
  const double t_search = cfg.timing.search_start();
  const double half = 0.5 * opts.vdd;

  spice::TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  topts.stop_at_fall = {harness->sa_out_node(), half, t_search};
  const auto res = run_transient(harness->circuit(), topts);
  p.accepted_steps = res.accepted_steps;
  if (!res.ok) {
    p.error = res.error;
    return p;
  }
  const auto v_sa = res.trace.voltage(
      harness->circuit().node_name(harness->sa_out_node()));
  const auto sa_cross = spice::cross_time(res.trace.times(), v_sa, half,
                                          spice::Edge::kFalling, t_search);
  if (sa_cross) p.latency = *sa_cross - t_search;
  p.ok = true;
  return p;
}

WriteMeasurement measure_write(arch::TcamDesign design, const WordOptions& opts,
                               const WriteConfig& cfg) {
  WriteMeasurement m;
  auto harness = make_word_harness(design, opts);
  harness->build_write(cfg);

  spice::TransientOptions topts;
  topts.t_stop = harness->t_stop();
  topts.dt = harness->suggested_dt();
  const auto res = run_transient(harness->circuit(), topts);
  if (!res.ok) {
    m.error = res.error;
    return m;
  }

  m.final_state = harness->read_stored();
  m.data_ok = m.final_state == cfg.data;
  // Write energy: the write-line drivers (BL groups for DG / 1.5T1Fe, SL
  // groups for 2SG carry both names; bucket everything that is not
  // precharge/SA/idle rails).
  const auto& trace = res.trace;
  const double all = spice::total_source_energy(trace, "", 0.0, topts.t_stop);
  const double pre = spice::total_source_energy(trace, "VPRE", 0.0, topts.t_stop);
  const double sa = spice::total_source_energy(trace, "VSA", 0.0, topts.t_stop);
  m.energy = all - pre - sa;
  m.energy_per_cell = m.energy / harness->n_bits();
  m.ok = true;
  return m;
}

}  // namespace fetcam::tcam
