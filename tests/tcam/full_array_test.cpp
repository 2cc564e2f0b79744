// Full-array validation: a complete M x N 1.5T1Fe circuit (every row live,
// shared column lines) must agree row-by-row with the behavioral model —
// this is the cross-check that the word-slice harnesses do not hide
// cross-row interactions.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "spice/measure.hpp"
#include "tcam/full_array.hpp"
#include "tcam/sim_harness.hpp"

namespace fetcam::tcam {
namespace {

using arch::BitWord;
using arch::TernaryWord;

std::vector<TernaryWord> stored_words(std::initializer_list<const char*> w) {
  std::vector<TernaryWord> out;
  for (const char* s : w) out.push_back(arch::word_from_string(s));
  return out;
}

TEST(FullArray, MixedRowsResolveIndependently) {
  FullArrayOptions opts;
  opts.rows = 4;
  opts.cols = 8;
  const auto stored = stored_words(
      {"01010101",    // exact match
       "11010101",    // step-1 miss (bit 0)
       "00010101",    // step-2 miss (bit 1)
       "XXXXXXXX"});  // wildcard match
  const auto query = arch::bits_from_string("01010101");
  const auto res = simulate_array_search(Flavor::kDg, opts, stored, query);
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.rows.size(), 4u);
  EXPECT_TRUE(res.rows[0].measured_match);
  EXPECT_FALSE(res.rows[1].measured_match);
  EXPECT_FALSE(res.rows[2].measured_match);
  EXPECT_TRUE(res.rows[3].measured_match);
  EXPECT_TRUE(res.all_correct());
}

TEST(FullArray, SgFlavorAgreesToo) {
  FullArrayOptions opts;
  opts.rows = 3;
  opts.cols = 6;
  const auto stored = stored_words({"010101", "0101X1", "111111"});
  const auto query = arch::bits_from_string("010101");
  const auto res = simulate_array_search(Flavor::kSg, opts, stored, query);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.all_correct());
  EXPECT_TRUE(res.rows[0].measured_match);
  EXPECT_TRUE(res.rows[1].measured_match);
  EXPECT_FALSE(res.rows[2].measured_match);
}

TEST(FullArray, SharedColumnLinesDoNotCoupleRows) {
  // A row full of mismatches (heavy divider currents) next to a matching
  // row on the SAME column lines must not corrupt the matching row.
  FullArrayOptions opts;
  opts.rows = 3;
  opts.cols = 8;
  const auto stored = stored_words({"11111111", "01010101", "11111111"});
  const auto query = arch::bits_from_string("01010101");
  const auto res = simulate_array_search(Flavor::kDg, opts, stored, query);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.rows[0].measured_match);
  EXPECT_TRUE(res.rows[1].measured_match);
  EXPECT_FALSE(res.rows[2].measured_match);
  EXPECT_GT(res.rows[1].v_ml_latched, 0.5);
}

TEST(FullArray, RandomContentsAgreeWithGoldenRule) {
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> digit(0, 2);
  std::uniform_int_distribution<int> bit(0, 1);
  for (int trial = 0; trial < 2; ++trial) {
    FullArrayOptions opts;
    opts.rows = 4;
    opts.cols = 6;
    std::vector<TernaryWord> stored;
    for (int r = 0; r < opts.rows; ++r) {
      TernaryWord w;
      for (int c = 0; c < opts.cols; ++c) {
        w.push_back(static_cast<arch::Ternary>(digit(rng)));
      }
      stored.push_back(w);
    }
    BitWord query;
    for (int c = 0; c < opts.cols; ++c) {
      query.push_back(static_cast<std::uint8_t>(bit(rng)));
    }
    const auto res = simulate_array_search(Flavor::kDg, opts, stored, query);
    ASSERT_TRUE(res.ok) << res.error;
    for (int r = 0; r < opts.rows; ++r) {
      EXPECT_EQ(res.rows[static_cast<std::size_t>(r)].measured_match,
                res.rows[static_cast<std::size_t>(r)].expected_match)
          << "trial " << trial << " row " << r << " stored "
          << arch::to_string(stored[static_cast<std::size_t>(r)]) << " query "
          << arch::to_string(query);
    }
  }
}

TEST(FullArray, ValidatesInput) {
  FullArrayOptions opts;
  opts.cols = 5;  // odd
  EXPECT_THROW(OnePointFiveArray(Flavor::kDg, opts), std::invalid_argument);
  opts.cols = 4;
  OnePointFiveArray arr(Flavor::kDg, opts);
  EXPECT_THROW(arr.build_search({}, arch::bits_from_string("0101"), {}),
               std::invalid_argument);
}

TEST(FullArray, OneShot) {
  FullArrayOptions opts;
  opts.rows = 1;
  opts.cols = 2;
  OnePointFiveArray arr(Flavor::kDg, opts);
  const auto stored = stored_words({"01"});
  arr.build_search(stored, arch::bits_from_string("01"), {});
  EXPECT_THROW(arr.build_search(stored, arch::bits_from_string("01"), {}),
               std::logic_error);
}

TEST(FullArray, OneRowIsTheWordHarness) {
  // A 1-row array places the word harness's own cells, ML and per-row
  // column-wire share, so it must reproduce the harness to solver
  // precision: same SA decision, ML voltage at the latch and search energy.
  const auto query = arch::bits_from_string("01100101");
  const auto words = stored_words({"01100101",    // exact match
                                   "11100101",    // step-1 miss (bit 0)
                                   "00100101",    // step-2 miss (bit 1)
                                   "XXXXXXXX",    // all-X
                                   "0X10X1X1"});  // mixed match
  WordOptions wopts;
  wopts.n_bits = 8;
  for (const auto design :
       {arch::TcamDesign::k1p5SgFe, arch::TcamDesign::k1p5DgFe,
        arch::TcamDesign::k2SgFefet, arch::TcamDesign::k2DgFefet}) {
    const bool paired = design == arch::TcamDesign::k1p5SgFe ||
                        design == arch::TcamDesign::k1p5DgFe;
    const Flavor flavor = design == arch::TcamDesign::k1p5SgFe ||
                                  design == arch::TcamDesign::k2SgFefet
                              ? Flavor::kSg
                              : Flavor::kDg;
    for (const auto& word : words) {
      SCOPED_TRACE(arch::design_name(design) + " stored " +
                   arch::to_string(word));
      FullArrayOptions opts;
      opts.rows = 1;
      opts.cols = wopts.n_bits;
      const auto arr =
          paired ? simulate_array_search(flavor, opts, {word}, query)
                 : simulate_two_fefet_array_search(flavor, opts, {word}, query);
      ASSERT_TRUE(arr.ok) << arr.error;

      auto h = make_word_harness(design, wopts);
      SearchConfig cfg;
      cfg.stored = word;
      cfg.query = query;
      h->build_search(cfg);
      spice::TransientOptions topts;
      topts.t_stop = h->t_stop();
      topts.dt = h->suggested_dt();
      const auto sim = run_transient(h->circuit(), topts);
      ASSERT_TRUE(sim.ok) << sim.error;
      const double t_latch =
          cfg.timing.stop_after(h->search_steps()) - cfg.timing.t_tail;
      const auto v_at = [&](spice::NodeId node) {
        return sim.trace.voltage_at_time(h->circuit().node_name(node),
                                         t_latch);
      };
      const double energy =
          spice::total_source_energy(sim.trace, "", 0.0, h->t_stop());

      EXPECT_EQ(arr.rows[0].measured_match,
                v_at(h->sa_out_node()) > 0.5 * wopts.vdd);
      EXPECT_EQ(arr.rows[0].measured_match, arr.rows[0].expected_match);
      EXPECT_NEAR(arr.rows[0].v_ml_latched, v_at(h->ml_sense_node()), 1e-6);
      EXPECT_LE(std::abs(arr.energy_total - energy) / energy, 1e-6)
          << "array " << arr.energy_total << " J, harness " << energy
          << " J";
    }
  }
}

TEST(TwoFefetArray, MixedRowsResolveIndependently) {
  FullArrayOptions opts;
  opts.rows = 4;
  opts.cols = 8;
  const auto stored = stored_words(
      {"01010101", "11010101", "0101010X", "XXXXXXXX"});
  const auto query = arch::bits_from_string("01010101");
  for (const auto flavor : {Flavor::kSg, Flavor::kDg}) {
    const auto res =
        simulate_two_fefet_array_search(flavor, opts, stored, query);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_TRUE(res.rows[0].measured_match);
    EXPECT_FALSE(res.rows[1].measured_match);
    EXPECT_TRUE(res.rows[2].measured_match);
    EXPECT_TRUE(res.rows[3].measured_match);
    EXPECT_TRUE(res.all_correct());
  }
}

TEST(TwoFefetArray, SharedSearchLinesDoNotCoupleRows) {
  FullArrayOptions opts;
  opts.rows = 3;
  opts.cols = 8;
  const auto stored = stored_words({"11111111", "01010101", "11111111"});
  const auto query = arch::bits_from_string("01010101");
  const auto res =
      simulate_two_fefet_array_search(Flavor::kDg, opts, stored, query);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.rows[0].measured_match);
  EXPECT_TRUE(res.rows[1].measured_match);
  EXPECT_FALSE(res.rows[2].measured_match);
}

TEST(TwoFefetArray, OneShotAndValidation) {
  FullArrayOptions opts;
  opts.rows = 1;
  opts.cols = 2;
  TwoFefetArray arr(Flavor::kSg, opts);
  const auto stored = stored_words({"01"});
  arr.build_search(stored, arch::bits_from_string("01"), {});
  EXPECT_THROW(arr.build_search(stored, arch::bits_from_string("01"), {}),
               std::logic_error);
  TwoFefetArray arr2(Flavor::kSg, opts);
  EXPECT_THROW(arr2.build_search({}, arch::bits_from_string("01"), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fetcam::tcam
