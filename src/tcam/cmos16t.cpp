#include "tcam/cmos16t.hpp"

#include <stdexcept>

#include "devices/tech14.hpp"

namespace fetcam::tcam {

using arch::Ternary;
using dev::Mosfet;
using spice::Capacitor;
using spice::kGround;
using spice::NodeId;
using spice::VoltageSource;
using spice::Waveform;

Cmos16tWord::Cmos16tWord(WordOptions opts) : WordHarness(opts) {}

std::string Cmos16tWord::design_name() const {
  return arch::design_name(arch::TcamDesign::kCmos16T);
}

double Cmos16tWord::cell_pitch() const {
  return arch::cell_pitch_m(arch::TcamDesign::kCmos16T);
}

void Cmos16tWord::build_search(const SearchConfig& cfg) {
  assert_unbuilt();
  const int n = opts_.n_bits;
  if (static_cast<int>(cfg.stored.size()) != n ||
      static_cast<int>(cfg.query.size()) != n) {
    throw std::invalid_argument("stored/query size must equal n_bits");
  }
  const int steps = cfg.steps == 0 ? 1 : cfg.steps;
  if (steps != 1) throw std::invalid_argument("16T search is single-step");
  stored_ = cfg.stored;
  const SearchTiming& tm = cfg.timing;
  const double vdd = opts_.vdd;

  const auto ml = build_match_line(n, 1).taps;

  // Search lines grouped by query bit (as in the FeFET harnesses).
  NodeId sl[2], slb[2];
  int count[2] = {0, 0};
  for (const auto qb : cfg.query) ++count[qb ? 1 : 0];
  for (int b = 0; b < 2; ++b) {
    sl[b] = ckt_.node("sl.q" + std::to_string(b));
    slb[b] = ckt_.node("slb.q" + std::to_string(b));
    const LevelPlan active{{0.0, 0.0}, {tm.search_start(), vdd}};
    const LevelPlan idle{{0.0, 0.0}};
    const bool sl_active = (b == 0);  // query '0' raises SL
    ckt_.emplace<VoltageSource>(
        "VSL.q" + std::to_string(b), sl[b], kGround,
        levels_waveform(sl_active ? active : idle, tm.t_edge));
    ckt_.emplace<VoltageSource>(
        "VSLB.q" + std::to_string(b), slb[b], kGround,
        levels_waveform(sl_active ? idle : active, tm.t_edge));
    if (count[b] > 0) {
      const double c_col = column_share() * count[b];
      ckt_.emplace<Capacitor>("CSL.q" + std::to_string(b), sl[b], kGround,
                              c_col);
      ckt_.emplace<Capacitor>("CSLB.q" + std::to_string(b), slb[b], kGround,
                              c_col);
    }
  }

  // SRAM state rails: qt high for stored '1', qc high for stored '0'; both
  // low for 'X'.
  NodeId q_hi = ckt_.node("q.hi");
  ckt_.emplace<VoltageSource>("VQ.hi", q_hi, kGround, Waveform::dc(vdd));

  for (int i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const int b = cfg.query[idx] ? 1 : 0;
    const Ternary d = cfg.stored[idx];
    const NodeId qt = d == Ternary::kOne ? q_hi : kGround;
    const NodeId qc = d == Ternary::kZero ? q_hi : kGround;
    const std::string si = std::to_string(i);
    // Stack 1: SL AND qt; stack 2: SLbar AND qc.
    const NodeId mid1 = ckt_.node("mid1." + si);
    const NodeId mid2 = ckt_.node("mid2." + si);
    const auto nf = dev::tech14::at_corner(
        dev::tech14::at_temperature(dev::tech14::nfet(),
                                    opts_.temperature_k),
        opts_.corner);
    ckt_.emplace<Mosfet>("M1." + si, ml[idx], sl[b], mid1, kGround, nf);
    ckt_.emplace<Mosfet>("M2." + si, mid1, qt, kGround, kGround, nf);
    ckt_.emplace<Mosfet>("M3." + si, ml[idx], slb[b], mid2, kGround, nf);
    ckt_.emplace<Mosfet>("M4." + si, mid2, qc, kGround, kGround, nf);
  }

  program_precharge(tm);
  mark_built(tm.stop_after(1), 2e-12);
}

void Cmos16tWord::build_write(const WriteConfig&) {
  throw std::logic_error(
      "16T CMOS write energy is not modeled (reported N.A. in Table IV)");
}

}  // namespace fetcam::tcam
