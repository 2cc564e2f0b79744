// 1.5T1Fe TCAM word testbench — the paper's proposed design (Fig. 5,
// Tables II/III).
//
// Cell: ONE FeFET storing the ternary digit in three V_TH levels
// (HVT = '0', MVT = 'X', LVT = '1').  Every two cells form a pair sharing
// three control transistors (hence "1.5T" per cell):
//
//        SL (pair) ---.----------------.
//                  [FeFET1]        [FeFET2]        FG1 <- BL1, FG2 <- BL2
//   SeL_a -> BG1      |                |           (BG row lines select)
//   SeL_b -> BG2      '----- SL_bar ---'
//                            |
//             VDD --[TP]-----+-----[TN]-- gnd      gates <- Wr/SL (pair)
//                            |
//                          [TML] gate; TML drain -> ML, source -> gnd
//
// Search is a voltage-divider comparison (paper Eq. 2/3) in two steps with
// optional early termination: step 1 raises SeL_a and evaluates all cell1s;
// only if the row still matches does step 2 raise SeL_b.  The ML is
// precharged once for both steps.  Resistance ordering required (Eq. 1):
//      R_ON < R_N < R_M < R_P << R_OFF.
//
// Write is three-phase (Sec. III-B3): erase all (BL = -Vw), program '1's
// (BL = +Vw), program 'X's (BL = Vm), with Wr/SL = VDD holding SL_bar at
// ground and SL = 0 grounding the channel.
//
// SG flavour (Sec. IV, Table III): BL and SeL merge into one FG line; no
// dedicated BGs, no V_b bias, smaller cell.
#pragma once

#include "arch/area_model.hpp"
#include "devices/fefet.hpp"
#include "devices/mosfet.hpp"
#include "tcam/cell_2fefet.hpp"  // Flavor
#include "tcam/word.hpp"

namespace fetcam::tcam {

/// Sizing and bias knobs of the 1.5T1Fe cell (defaults calibrated so Eq. 1
/// holds across all state/query corners; see tests/tcam/divider_test.cpp).
struct OnePointFiveParams {
  double tn_w = 1.0, tn_l = 32.0;    ///< TN: weak pulldown (R_N > R_ON)
  double tp_w = 1.0, tp_l = 16.0;    ///< TP: weaker pullup (R_P > R_M)
  double tml_w = 4.0, tml_l = 1.0;  ///< TML: small ML pulldown (2 cells share it)
  double tml_vth_sg = 0.30;  ///< TML VT: above the X-state SL_bar, below the mismatch level
  double tml_vth_dg = 0.35;  ///< DG TML: higher VT for X-state leak margin
  double v_b = 0.25;   ///< DG only: BL bias while searching '0' (Tab. II)
  double v_sel_dg = 2.0;  ///< DG select voltage (= V_w: shared drivers)
  double v_sel_sg = 0.8;  ///< SG select voltage (Tab. III)
  /// FG-referred V_TH target for the MVT ('X') state.
  double mvt_vth_dg = 0.605;
  double mvt_vth_sg = 0.62;
};

/// Cell parameters after a WordOptions::tuning is applied: TP/TN widths
/// scaled, the TML V_T trimmed, and the MVT ('X') targets repositioned
/// window-relatively when the FE thickness scale moves the memory window
/// (the absolute nominal target would fall outside a shrunken window).
/// Shared by the harness constructor and the DSE variability path so both
/// see exactly the same tuned cell.  `tuned_fe` must already carry the
/// thickness scale (dev::scale_fe_thickness).
OnePointFiveParams apply_tuning(Flavor flavor, OnePointFiveParams p,
                                const DeviceTuning& t,
                                const dev::FeFetParams& tuned_fe);

/// Devices of one single-cell static divider leg.
struct StaticDivider {
  dev::FeFet* fe = nullptr;
  dev::Mosfet* tn = nullptr;
  dev::Mosfet* tp = nullptr;
  spice::NodeId slb = -1;
};

/// One 1.5T1Fe divider leg at DC: the FeFET between SL and SL_bar, TN to
/// ground and TP to VDD, with SL and Wr/SL at the query's level and the FG
/// and BG at their search bias (SG: V_SeL on the merged BL/SeL; DG: V_b or
/// 0 on the BL, V_SeL on the BG).  The operating-point studies
/// (eval/calibration, eval/variability) build their divider here; the
/// caller sets the FeFET's state and solves.
StaticDivider place_static_divider(spice::Circuit& ckt, Flavor flavor,
                                   const OnePointFiveParams& p,
                                   const dev::FeFetParams& fe,
                                   const dev::MosfetParams& tn,
                                   const dev::MosfetParams& tp,
                                   bool query_one, double vdd);

class OnePointFiveWord : public WordHarness {
 public:
  OnePointFiveWord(Flavor flavor, WordOptions opts,
                   OnePointFiveParams params = {});

  /// The nets one pair's devices connect to.
  struct PairNodes {
    spice::NodeId sl, slb, wrsl, bl1, bl2, sela, selb, vdd_rail, ml_tap;
  };
  /// Place the devices of pair p (cells 2p, 2p+1) storing (d1, d2) into
  /// `ckt`: FE<row><2p>, FE<row><2p+1>, TN<row><p>, TP<row><p> and
  /// TML<row><p>, with this harness's device cards.  The harness and the
  /// full array (tcam/full_array.*) place every pair here.
  std::pair<dev::FeFet*, dev::FeFet*> place_pair(
      spice::Circuit& ckt, const PairNodes& nodes, const std::string& row,
      int p, arch::Ternary d1, arch::Ternary d2) const;

  std::string design_name() const override;
  int search_steps() const override { return 2; }
  int write_phases() const override { return 3; }
  double cell_pitch() const override;

  void build_search(const SearchConfig& cfg) override;
  void build_write(const WriteConfig& cfg) override;
  arch::TernaryWord read_stored() const override;

  Flavor flavor() const { return flavor_; }
  double select_voltage() const;
  double mvt_vth_target() const;
  /// X-state write voltage V_m (paper: 1.6 V DG / 3.2 V SG).
  double vm() const;
  const OnePointFiveParams& cell_params() const { return params_; }
  const dev::FeFet* fefet(int cell) const {
    return fefets_[static_cast<std::size_t>(cell)];
  }
  /// SL_bar node of pair p (for divider diagnostics in tests).
  spice::NodeId slb_node(int pair) const {
    return slb_of_pair_[static_cast<std::size_t>(pair)];
  }

  arch::TcamDesign area_design() const {
    return flavor_ == Flavor::kSg ? arch::TcamDesign::k1p5SgFe
                                  : arch::TcamDesign::k1p5DgFe;
  }

 private:
  /// Place pair p for a word build and record its FeFETs and SL_bar.
  void place_word_pair(int p, const PairNodes& nodes,
                       const arch::TernaryWord& stored);

  Flavor flavor_;
  OnePointFiveParams params_;
  dev::FeFetParams fe_params_;
  dev::MosfetParams tn_, tp_, tml_;  ///< at the options' temperature/corner
  std::vector<dev::FeFet*> fefets_;
  std::vector<spice::NodeId> slb_of_pair_;
};

}  // namespace fetcam::tcam
