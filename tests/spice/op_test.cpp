#include "spice/op.hpp"

#include <gtest/gtest.h>

#include "spice/elements.hpp"
#include "spice/netlist.hpp"

namespace fetcam::spice {
namespace {

TEST(Op, VoltageDivider) {
  Circuit ckt;
  const NodeId vin = ckt.node("vin");
  const NodeId mid = ckt.node("mid");
  ckt.emplace<VoltageSource>("V1", vin, kGround, Waveform::dc(2.0));
  ckt.emplace<Resistor>("R1", vin, mid, 1e3);
  ckt.emplace<Resistor>("R2", mid, kGround, 3e3);
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  EXPECT_NEAR(sol.v(vin), 2.0, 1e-9);
  EXPECT_NEAR(sol.v(mid), 1.5, 1e-9);
}

TEST(Op, SourceBranchCurrentSign) {
  // 1 V source driving 1 kOhm: 1 mA flows out of the + terminal into the
  // circuit, so the branch current (+ -> through source -> -) is -1 mA.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  auto& v1 = ckt.emplace<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  ckt.emplace<Resistor>("R1", a, kGround, 1e3);
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  EXPECT_NEAR(sol.branch_current(v1.branch_base()), -1e-3, 1e-9);
}

TEST(Op, CurrentSourceIntoResistor) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  // 2 mA pulled out of ground into node a (current flows + -> - inside the
  // source, so connect + to ground, - to a to push current INTO a).
  ckt.emplace<CurrentSource>("I1", kGround, a, Waveform::dc(2e-3));
  ckt.emplace<Resistor>("R1", a, kGround, 500.0);
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  EXPECT_NEAR(sol.v(a), 1.0, 1e-9);
}

TEST(Op, VcvsAmplifies) {
  Circuit ckt;
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.emplace<VoltageSource>("V1", in, kGround, Waveform::dc(0.25));
  ckt.emplace<Vcvs>("E1", out, kGround, in, kGround, 4.0);
  ckt.emplace<Resistor>("RL", out, kGround, 1e4);
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  EXPECT_NEAR(sol.v(out), 1.0, 1e-9);
}

TEST(Op, CapacitorIsOpenAtDc) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.emplace<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  ckt.emplace<Resistor>("R1", a, b, 1e3);
  ckt.emplace<Capacitor>("C1", b, kGround, 1e-12);
  ckt.emplace<Resistor>("R2", b, kGround, 1e6);
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  // No DC current into the cap: divider is R1/R2.
  EXPECT_NEAR(sol.v(b), 1.0 * 1e6 / (1e6 + 1e3), 1e-9);
}

TEST(Op, SeriesResistorChain) {
  Circuit ckt;
  const NodeId top = ckt.node("n0");
  ckt.emplace<VoltageSource>("V1", top, kGround, Waveform::dc(10.0));
  NodeId prev = top;
  for (int i = 1; i <= 10; ++i) {
    const NodeId next =
        i == 10 ? kGround : ckt.node("n" + std::to_string(i));
    ckt.emplace<Resistor>("R" + std::to_string(i), prev, next, 100.0);
    prev = next;
  }
  const auto op = solve_op(ckt);
  ASSERT_TRUE(op.converged);
  const Solution sol(ckt, op.x);
  EXPECT_NEAR(sol.v(*ckt.find_node("n5")), 5.0, 1e-9);
}

TEST(Op, NoSourceStepsFailsClosed) {
  // The direct solve gets no iterations and gmin stepping is off, so only
  // source stepping could succeed; with fewer than one step it solves
  // nothing and must not report the all-zero start as a solution.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.emplace<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  ckt.emplace<Resistor>("R1", a, b, 1e3);
  ckt.emplace<Resistor>("R2", b, kGround, 1e3);
  OpOptions opts;
  opts.newton.max_iterations = 0;
  opts.allow_gmin_stepping = false;
  for (const int steps : {0, -1}) {
    opts.source_steps = steps;
    const auto op = solve_op(ckt, opts);
    EXPECT_FALSE(op.converged) << "source_steps " << steps;
    EXPECT_EQ(op.strategy, OpStrategy::kFailed) << "source_steps " << steps;
  }
  // One step is a plain solve at full source strength.
  opts.newton.max_iterations = 200;
  opts.source_steps = 1;
  const auto op = solve_op(ckt, opts);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(Solution(ckt, op.x).v(b), 0.5, 1e-9);
}

TEST(Netlist, DumpAndFloatingNodeLint) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId dangling = ckt.node("dangling");
  ckt.emplace<VoltageSource>("V1", a, kGround, Waveform::dc(1.0));
  ckt.emplace<Resistor>("R1", a, kGround, 1e3);
  ckt.emplace<Resistor>("R2", a, dangling, 1e3);
  const std::string dump = dump_netlist(ckt);
  EXPECT_NE(dump.find("resistor R1"), std::string::npos);
  const auto floating = find_floating_nodes(ckt);
  ASSERT_EQ(floating.size(), 1u);
  EXPECT_EQ(floating[0], "dangling");
}

TEST(Circuit, RejectsDuplicateDeviceNames) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.emplace<Resistor>("R1", a, kGround, 1e3);
  EXPECT_THROW(ckt.emplace<Resistor>("R1", a, kGround, 2e3),
               std::invalid_argument);
}

TEST(Circuit, GroundAliases) {
  Circuit ckt;
  EXPECT_EQ(ckt.node("gnd"), kGround);
  EXPECT_EQ(ckt.node("0"), kGround);
  EXPECT_EQ(ckt.node("GND"), kGround);
}

}  // namespace
}  // namespace fetcam::spice
