#include "tcam/word.hpp"

#include <stdexcept>

namespace fetcam::tcam {

MatchLine place_match_line(spice::Circuit& ckt, const WordOptions& opts,
                           double pitch, int taps, int cells_per_tap,
                           const std::string& row, const std::string& periph,
                           bool write_clamp) {
  const WireSegment seg = wire_for_pitch(opts.wire, pitch * cells_per_tap);
  MatchLine ml;
  ml.taps.reserve(static_cast<std::size_t>(taps));
  spice::NodeId prev = ckt.node("ml" + row + "0");
  ml.taps.push_back(prev);
  ckt.emplace<spice::Capacitor>("CML" + row + "0", prev, spice::kGround,
                                seg.capacitance);
  for (int k = 1; k < taps; ++k) {
    const std::string sk = row + std::to_string(k);
    const spice::NodeId n = ckt.node("ml" + sk);
    ckt.emplace<spice::Resistor>("RML" + sk, prev, n, seg.resistance);
    ckt.emplace<spice::Capacitor>("CML" + sk, n, spice::kGround,
                                  seg.capacitance);
    ml.taps.push_back(n);
    prev = n;
  }
  ml.pre = add_precharge(ckt, ml.taps.front(), periph, opts.vdd, 4.0,
                         opts.temperature_k, opts.corner);
  ml.sa = add_sense_amp(ckt, ml.taps.back(), periph, opts.vdd,
                        opts.temperature_k, opts.corner);
  if (write_clamp) {
    // Holds the ML low during writes; off (gate grounded) while searching.
    const spice::NodeId g = ckt.node("mlrst" + row + ".g");
    ml.clamp_gate = &ckt.emplace<spice::VoltageSource>(
        "VMLRST" + row, g, spice::kGround, spice::Waveform::dc(0.0));
    ckt.emplace<dev::Mosfet>(
        "MMLRST" + row, ml.taps.front(), g, spice::kGround, spice::kGround,
        dev::tech14::at_corner(
            dev::tech14::at_temperature(dev::tech14::nfet(2.0),
                                        opts.temperature_k),
            opts.corner));
  }
  return ml;
}

void program_precharge(const PrechargeHandles& pre, double vdd,
                       const SearchTiming& t) {
  pre.gate->set_waveform(levels_waveform(
      {{0.0, vdd}, {10e-12, 0.0}, {t.search_start(), vdd}}, t.t_edge));
}

MatchLine WordHarness::build_match_line(int taps, int cells_per_tap,
                                        bool write_clamp) {
  MatchLine ml = place_match_line(ckt_, opts_, cell_pitch(), taps,
                                  cells_per_tap, "", "ml", write_clamp);
  pre_ = ml.pre;
  sa_ = ml.sa;
  ml_sense_ = ml.taps.back();
  return ml;
}

void WordHarness::assert_unbuilt() const {
  if (built_) {
    throw std::logic_error(
        "WordHarness is one-shot: construct a fresh harness per operation");
  }
}

}  // namespace fetcam::tcam
