// 2FeFET TCAM word testbench (paper Fig. 3, Table I).
//
// Cell: two FeFETs with drains on the ML and grounded sources, storing the
// ternary digit in complementary V_TH states:
//   '0' -> (HVT, LVT), '1' -> (LVT, HVT), 'X' -> (HVT, HVT).
//
// SG flavour (the widely-adopted 2FeFET TCAM [13]): SL / SLbar drive the
// front gates for both write (+/-4 V, complementary, single phase) and
// search (V_DD).
//
// DG flavour (paper Sec. III-A): BL / BLbar drive the front gates (write,
// +/-2 V); SL / SLbar drive the dedicated back gates (search, V_s = 2 V).
// The BG read path's degraded subthreshold slope weakens the pulldown — the
// reason the straightforward 2DG-FeFET TCAM is slower than its SG
// counterpart (Table IV: 1147 ps vs 582 ps).
//
// During writes the ML is held low by a peripheral clamp NMOS (and by the
// ON-state FeFETs themselves), keeping the FeFET channels at ground as the
// write pulses fly — see Table I's all-zero SL rows.
#pragma once

#include "arch/area_model.hpp"
#include "devices/fefet.hpp"
#include "tcam/word.hpp"

namespace fetcam::tcam {

enum class Flavor { kSg, kDg };

class TwoFefetWord : public WordHarness {
 public:
  TwoFefetWord(Flavor flavor, WordOptions opts);

  std::string design_name() const override;
  int search_steps() const override { return 1; }
  int write_phases() const override { return 1; }
  double cell_pitch() const override;

  void build_search(const SearchConfig& cfg) override;
  void build_write(const WriteConfig& cfg) override;
  arch::TernaryWord read_stored() const override;

  Flavor flavor() const { return flavor_; }
  /// SL level during search (SG: V_DD on the FG; DG: V_s = 2 V on the BG).
  double search_voltage() const;

  /// The nets one cell's FeFET pair connects to.
  struct CellNodes {
    spice::NodeId ml_tap, gate_true, gate_comp, bg_true, bg_comp;
  };
  /// Place the FeFET pair of cell i storing `d` into `ckt` (FT<row><i>,
  /// FC<row><i>), with this harness's FeFET card.  The harness and the full
  /// array (tcam/full_array.*) place every cell here.
  std::pair<dev::FeFet*, dev::FeFet*> place_cell(spice::Circuit& ckt,
                                                 const CellNodes& nodes,
                                                 const std::string& row,
                                                 int i, arch::Ternary d) const;
  /// FeFET pair of cell i (true, complement); valid after a build_*.
  std::pair<const dev::FeFet*, const dev::FeFet*> cell(int i) const {
    return {f_true_[static_cast<std::size_t>(i)],
            f_comp_[static_cast<std::size_t>(i)]};
  }

  arch::TcamDesign area_design() const {
    return flavor_ == Flavor::kSg ? arch::TcamDesign::k2SgFefet
                                  : arch::TcamDesign::k2DgFefet;
  }

 private:
  /// Place cell i for a word build and record its FeFETs.
  void place_word_cell(int i, const CellNodes& nodes, arch::Ternary d);

  Flavor flavor_;
  dev::FeFetParams fe_params_;
  std::vector<dev::FeFet*> f_true_, f_comp_;
};

}  // namespace fetcam::tcam
