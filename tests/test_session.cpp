// Tests for spice::SimSession: golden equivalence against the legacy
// free-function path, warm-start continuation, topology-change guard, and
// the zero-allocation guarantee of the Newton inner loop (this binary
// links the icvbe_alloc_hook counting operator new/delete).

#include <gtest/gtest.h>

#include <cmath>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/analysis.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/dc_solver.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

namespace icvbe::spice {
namespace {

void build_diode_rig(Circuit& c) {
  DiodeModel dm;
  dm.is = 1e-14;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  c.add_vsource("V1", in, kGround, 0.0);
  c.add_resistor("R1", in, a, 1e3);
  c.add_diode("D1", a, kGround, dm);
}

bandgap::TestCellParams nominal_cell_params() {
  const lab::SiliconLot lot;
  bandgap::TestCellParams p;
  p.qa_model = lot.truth().pnp;
  p.qb_model = lot.truth().pnp;
  return p;
}

TEST(SimSessionTest, SolveMatchesLegacySolver) {
  Circuit legacy;
  build_diode_rig(legacy);
  const Unknowns x_legacy = solve_dc_or_throw(legacy);

  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  const Unknowns& x_session = session.solve_or_throw();

  ASSERT_EQ(x_legacy.size(), x_session.size());
  for (std::size_t i = 0; i < x_legacy.size(); ++i) {
    EXPECT_NEAR(x_legacy.raw()[i], x_session.raw()[i], 1e-12) << "i=" << i;
  }
}

TEST(SimSessionTest, GoldenSweepMatchesLegacyVsourceSweep) {
  const auto values = linspace(0.0, 2.0, 41);

  Circuit legacy;
  build_diode_rig(legacy);
  const Series golden = dc_sweep_vsource(legacy, "V1", values,
                                         probe_node_voltage(legacy, "a"));

  Circuit c;
  build_diode_rig(c);
  auto& v1 = c.get<VoltageSource>("V1");
  SimSession session(c);
  const Series got =
      session.sweep(values, [&](double v) { v1.set_voltage(v); },
                    probe_node_voltage(c, "a"));

  ASSERT_EQ(golden.size(), got.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_NEAR(golden.y(i), got.y(i), 1e-12) << "point " << i;
  }
}

TEST(SimSessionTest, GoldenTemperatureSweepOnTestCell) {
  // The full bandgap test cell over temperature: the session path must
  // reproduce the legacy per-point path to <= 1e-12.
  const auto params = nominal_cell_params();
  const auto temps = linspace(to_kelvin(-40.0), to_kelvin(120.0), 9);

  // Legacy: fresh circuit + solve_cell_at(circuit, ...) per point.
  std::vector<double> golden;
  for (double t : temps) {
    Circuit c;
    const auto h = bandgap::build_test_cell(c, params);
    golden.push_back(bandgap::solve_cell_at(c, h, t).vref);
  }

  // Session with the legacy start policy (analytic guess at every point):
  // the reused workspace must reproduce the per-point path to <= 1e-12.
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    session.invalidate_warm_start();  // same start point as the legacy path
    const auto obs = bandgap::solve_cell_at(session, h, temps[i]);
    EXPECT_NEAR(obs.vref, golden[i], 1e-12) << "T=" << temps[i];
  }

  // Warm-start continuation lands on the same operating point within the
  // Newton tolerance (different iterates, same solution).
  Circuit cw;
  const auto hw = bandgap::build_test_cell(cw, params);
  SimSession warm(cw);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    const auto obs = bandgap::solve_cell_at(warm, hw, temps[i]);
    EXPECT_NEAR(obs.vref, golden[i], 1e-8) << "T=" << temps[i];
  }
}

TEST(SimSessionTest, WarmStartReducesIterations) {
  const auto params = nominal_cell_params();
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);

  (void)bandgap::solve_cell_at(session, h, 300.0);
  c.set_temperature(300.5);
  const int cold_like = session.solve().iterations;  // warm from 300.0
  EXPECT_TRUE(session.solve().converged);

  // A fresh cold session needs strictly more iterations than the warm
  // continuation half a kelvin away.
  Circuit c2;
  const auto h2 = bandgap::build_test_cell(c2, params);
  SimSession s2(c2);
  c2.set_temperature(300.5);
  const auto guess = bandgap::cell_initial_guess(c2, h2, 300.5);
  s2.seed_warm_start(guess);
  const int from_guess = s2.solve().iterations;
  EXPECT_LE(cold_like, from_guess);
}

TEST(SimSessionTest, TopologyChangeIsDetected) {
  Circuit c;
  build_diode_rig(c);
  SimSession session(c);
  EXPECT_TRUE(session.solve().converged);

  c.add_resistor("R2", c.node("a"), kGround, 1e6);
  EXPECT_THROW((void)session.solve(), CircuitError);
  session.rebind();
  EXPECT_TRUE(session.solve().converged);
}

TEST(SimSessionTest, SweepFailureThrowsWithContext) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_vsource("V2", a, kGround, 2.0);  // conflicting ideal sources
  auto& v1 = c.get<VoltageSource>("V1");
  SimSession session(c);
  EXPECT_THROW((void)session.sweep({1.0}, [&](double v) { v1.set_voltage(v); },
                                   [](const Circuit&, const Unknowns&) {
                                     return 0.0;
                                   }),
               NumericalError);
}

TEST(SimSessionTest, ConstCircuitAccessInProbes) {
  Circuit c;
  build_diode_rig(c);
  c.get<VoltageSource>("V1").set_voltage(1.0);
  SimSession session(c);
  const Unknowns& x = session.solve_or_throw();

  const Circuit& cc = c;
  EXPECT_NE(cc.find("R1"), nullptr);
  EXPECT_EQ(cc.find("nope"), nullptr);
  const auto& r1 = cc.get<Resistor>("R1");
  EXPECT_GT(std::abs(r1.current(x)), 0.0);
  EXPECT_THROW((void)cc.get<VoltageSource>("R1"), CircuitError);
}

TEST(SimSessionTest, NewtonLoopIsAllocationFreeAfterSetup) {
  const auto params = nominal_cell_params();
  Circuit c;
  const auto h = bandgap::build_test_cell(c, params);
  SimSession session(c);

  // Warm-up: first solves populate every lazily-sized buffer (the analytic
  // startup guess keeps Newton out of the all-off basin).
  c.set_temperature(to_kelvin(25.0));
  session.seed_warm_start(bandgap::cell_initial_guess(c, h, to_kelvin(25.0)));
  ASSERT_TRUE(session.solve().converged);
  c.set_temperature(to_kelvin(26.0));
  ASSERT_TRUE(session.solve().converged);

  // Steady state: temperature steps + solves must not touch the heap.
  const std::uint64_t before = icvbe::testing::allocation_count();
  bool all_converged = true;
  double vref_sum = 0.0;
  for (int i = 0; i < 50; ++i) {
    c.set_temperature(to_kelvin(25.0 + 0.5 * i));
    const DcResult& r = session.solve();
    all_converged = all_converged && r.converged;
    vref_sum += r.solution.node_voltage(1);
  }
  const std::uint64_t after = icvbe::testing::allocation_count();

  EXPECT_TRUE(all_converged);
  EXPECT_GT(std::abs(vref_sum), 0.0);
  EXPECT_EQ(after - before, 0u)
      << "SimSession::solve() allocated on the steady-state path";
}

// The sparse engine's steady state on a linear deck: stepping the source
// leaves the matrix unchanged, so refactor() returns early; re-programming
// a resistor changes it, so refactor() factors and keeps a copy of the new
// values. Neither path may touch the heap.
TEST(SimSessionTest, SparseNewtonLoopIsAllocationFreeAfterSetup) {
  SyntheticNetlistSpec spec;
  spec.topology = SyntheticTopology::kResistorLadder;
  spec.nodes = 120;
  ParsedNetlist parsed = parse_netlist(generate_netlist(spec));
  Circuit& c = *parsed.circuit;
  SimSession session(c);
  auto& v1 = c.get<VoltageSource>("V1");
  auto& rs1 = c.get<Resistor>("RS1");
  const double rs1_ohms = rs1.nominal_resistance();

  ASSERT_TRUE(session.solve().converged);  // warm-up: analysis + buffers
  v1.set_voltage(4.0);
  ASSERT_TRUE(session.solve().converged);

  const std::uint64_t before = icvbe::testing::allocation_count();
  bool all_converged = true;
  double v_sum = 0.0;
  for (int i = 0; i < 40; ++i) {
    v1.set_voltage(3.0 + 0.05 * i);
    if (i % 4 == 3) rs1.set_nominal_resistance(rs1_ohms * (1.0 + 0.01 * i));
    const DcResult& r = session.solve();
    all_converged = all_converged && r.converged;
    v_sum += r.solution.node_voltage(2);
  }
  const std::uint64_t after = icvbe::testing::allocation_count();

  EXPECT_TRUE(all_converged);
  EXPECT_GT(std::abs(v_sum), 0.0);
  EXPECT_EQ(after - before, 0u)
      << "sparse SimSession::solve() allocated on the steady-state path";
}

}  // namespace
}  // namespace icvbe::spice
