// 16T CMOS NOR-type TCAM word testbench (the paper's baseline, [25]).
//
// Search path is simulated at circuit level: per cell, two 2-NMOS compare
// stacks pull the ML down on a mismatch.  The SRAM storage nodes are modeled
// as static rails (the cell's 12 storage transistors do not move during a
// search); the X state disables both stacks (both SRAM bits low), matching
// the classic encoding.  Write energy is not modeled — Table IV reports it
// as N.A. for the 16T design as well.
#pragma once

#include "arch/area_model.hpp"
#include "devices/mosfet.hpp"
#include "tcam/word.hpp"

namespace fetcam::tcam {

class Cmos16tWord : public WordHarness {
 public:
  explicit Cmos16tWord(WordOptions opts);

  std::string design_name() const override;
  int search_steps() const override { return 1; }
  int write_phases() const override { return 0; }
  double cell_pitch() const override;

  void build_search(const SearchConfig& cfg) override;
  void build_write(const WriteConfig& cfg) override;  // throws: not modeled
  arch::TernaryWord read_stored() const override { return stored_; }

 private:
  arch::TernaryWord stored_;
};

}  // namespace fetcam::tcam
