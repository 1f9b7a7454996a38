// Tests for icvbe/spice: MNA stamps, linear solves, diode/BJT Newton
// convergence, temperature behaviour, and the sweep analyses.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/spice/analysis.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/dc_solver.hpp"
#include "icvbe/spice/junction.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::spice {
namespace {

TEST(Junction, SafeExpLinearisesAboveCap) {
  EXPECT_DOUBLE_EQ(safe_exp(1.0), std::exp(1.0));
  const double at_cap = safe_exp(200.0);
  EXPECT_DOUBLE_EQ(safe_exp(201.0), at_cap * 2.0);
  EXPECT_TRUE(std::isfinite(safe_exp(1e6)));
}

TEST(Junction, PnjlimLimitsLargeSteps) {
  const double vt = 0.026;
  const double vcrit = 0.7;
  // Small steps pass through unchanged.
  EXPECT_DOUBLE_EQ(pnjlim(0.65, 0.64, vt, vcrit), 0.65);
  // A jump from 0.6 to 5 V gets logarithmically limited.
  const double limited = pnjlim(5.0, 0.6, vt, vcrit);
  EXPECT_LT(limited, 1.0);
  EXPECT_GT(limited, 0.6);
}

TEST(CircuitTest, NodeNamesAndGroundAliases) {
  Circuit c;
  EXPECT_EQ(c.node("0"), kGround);
  EXPECT_EQ(c.node("gnd"), kGround);
  const NodeId a = c.node("a");
  EXPECT_EQ(c.node("a"), a);
  EXPECT_NE(c.node("b"), a);
  EXPECT_EQ(c.node_name(a), "a");
}

TEST(CircuitTest, DuplicateDeviceNameRejected) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_THROW(c.add_resistor("R1", a, kGround, 2e3), CircuitError);
}

TEST(CircuitTest, GetByNameTypeChecked) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_resistor("R1", a, kGround, 1e3);
  EXPECT_NO_THROW((void)c.get<Resistor>("R1"));
  EXPECT_THROW((void)c.get<VoltageSource>("R1"), CircuitError);
  EXPECT_THROW((void)c.get<Resistor>("nope"), CircuitError);
}

TEST(DcSolver, ResistorDivider) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add_vsource("V1", in, kGround, 10.0);
  c.add_resistor("R1", in, mid, 1e3);
  c.add_resistor("R2", mid, kGround, 3e3);
  const Unknowns x = solve_dc_or_throw(c);
  // gmin (1e-12 S to ground) leaks a few nA, so tolerances are ~1e-7.
  EXPECT_NEAR(x.node_voltage(mid), 7.5, 1e-7);
  // Source current: 10 V across 4k -> 2.5 mA drawn from the + terminal.
  EXPECT_NEAR(c.get<VoltageSource>("V1").current(x), -2.5e-3, 1e-8);
}

TEST(DcSolver, CurrentSourceIntoResistor) {
  Circuit c;
  const NodeId n = c.node("n");
  // 1 mA from ground into n through the source, 2k to ground.
  c.add_isource("I1", kGround, n, 1e-3);
  c.add_resistor("R1", n, kGround, 2e3);
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(x.node_voltage(n), 2.0, 1e-7);
}

TEST(DcSolver, VcvsAmplifies) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround, 0.1);
  c.add_vcvs("E1", out, kGround, in, kGround, 20.0);
  c.add_resistor("RL", out, kGround, 1e4);
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(x.node_voltage(out), 2.0, 1e-9);
}

TEST(DcSolver, OpAmpFollowerWithOffset) {
  // Unity follower: out = in + offset (offset adds at the + input).
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("V1", in, kGround, 1.0);
  c.add_opamp("U1", out, in, out, 1e7, 2e-3);
  c.add_resistor("RL", out, kGround, 1e5);
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(x.node_voltage(out), 1.002, 1e-6);
}

TEST(DcSolver, ResistorTemperatureCoefficients) {
  Circuit c;
  const NodeId n = c.node("n");
  c.add_isource("I1", kGround, n, 1e-3);
  auto& r = c.add_resistor("R1", n, kGround, 1e3, 2e-3, 0.0);
  c.set_temperature(to_kelvin(127.0));  // +100 K over tnom
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(r.resistance(), 1e3 * (1.0 + 2e-3 * 100.0), 1e-6);
  EXPECT_NEAR(x.node_voltage(n), 1.2, 1e-6);
}

TEST(DcSolver, DiodeForwardDrop) {
  Circuit c;
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_isource("I1", kGround, a, 1e-3);
  c.add_diode("D1", a, kGround, dm);
  const Unknowns x = solve_dc_or_throw(c);
  // v = VT ln(I/IS): ~0.65 V at 1 mA for IS = 1e-14 at 300.15 K.
  const double expected =
      thermal_voltage(300.15) * std::log(1e-3 / 1e-14);
  EXPECT_NEAR(x.node_voltage(a), expected, 1e-6);
}

TEST(DcSolver, DiodeReverseLeakage) {
  Circuit c;
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_vsource("V1", a, kGround, -5.0);
  auto& d = c.add_diode("D1", a, kGround, dm);
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(d.current(x), -1e-14, 1e-16);
}

TEST(DcSolver, DiodeSeriesResistorAnalytic) {
  // I source through diode: exact; with the voltage source and resistor the
  // solution must satisfy both device equations simultaneously.
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  DiodeModel dm;
  dm.is = 1e-14;
  c.add_vsource("V1", in, kGround, 3.0);
  c.add_resistor("R1", in, a, 1e3);
  auto& d = c.add_diode("D1", a, kGround, dm);
  const Unknowns x = solve_dc_or_throw(c);
  const double id = d.current(x);
  const double va = x.node_voltage(a);
  EXPECT_NEAR((3.0 - va) / 1e3, id, 1e-9);
  EXPECT_NEAR(va, thermal_voltage(300.15) * std::log(id / 1e-14), 1e-6);
}

BjtModel npn_default() {
  BjtModel m;
  m.type = BjtModel::Type::kNpn;
  m.is = 1e-16;
  m.bf = 150.0;
  m.br = 2.0;
  return m;
}

BjtModel pnp_default() {
  BjtModel m = npn_default();
  m.type = BjtModel::Type::kPnp;
  m.bf = 60.0;
  return m;
}

TEST(BjtTest, ForwardActiveCollectorCurrent) {
  // NPN with VBE forced to 0.65 V, collector at 3 V: IC = IS e^{VBE/VT}.
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  c.add_vsource("VC", col, kGround, 3.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, npn_default());
  const Unknowns x = solve_dc_or_throw(c);
  const auto tc = q.currents(x);
  const double expected =
      1e-16 * (std::exp(0.65 / thermal_voltage(300.15)) - 1.0);
  EXPECT_NEAR(tc.ic / expected, 1.0, 1e-6);
  EXPECT_NEAR(tc.ib, tc.ic / 150.0, tc.ic / 150.0 * 1.01);
  EXPECT_NEAR(tc.ic + tc.ib + tc.ie + tc.isub, 0.0, 1e-12);
}

TEST(BjtTest, AreaScalesCollectorCurrent) {
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId c1 = c.node("c1");
  const NodeId c2 = c.node("c2");
  c.add_vsource("VB", b, kGround, 0.6);
  c.add_vsource("VC1", c1, kGround, 2.0);
  c.add_vsource("VC2", c2, kGround, 2.0);
  auto& qa = c.add_bjt("QA", c1, b, kGround, npn_default(), 1.0);
  auto& qb = c.add_bjt("QB", c2, b, kGround, npn_default(), 8.0);
  const Unknowns x = solve_dc_or_throw(c);
  EXPECT_NEAR(qb.currents(x).ic / qa.currents(x).ic, 8.0, 1e-6);
}

TEST(BjtTest, DeltaVbeOfMatchedPairIsPtat) {
  // Two diode-connected NPNs at the same forced current, area 1 vs 8:
  // dVBE = (kT/q) ln 8 -- the Fig. 2 principle, here from the full solver.
  for (double t_c : {-25.0, 25.0, 75.0}) {
    Circuit c;
    const NodeId a1 = c.node("a1");
    const NodeId a2 = c.node("a2");
    c.add_isource("I1", kGround, a1, 1e-5);
    c.add_isource("I2", kGround, a2, 1e-5);
    c.add_bjt("QA", a1, a1, kGround, npn_default(), 1.0);
    c.add_bjt("QB", a2, a2, kGround, npn_default(), 8.0);
    c.set_temperature(to_kelvin(t_c));
    const Unknowns x = solve_dc_or_throw(c);
    const double dvbe = x.node_voltage(a1) - x.node_voltage(a2);
    EXPECT_NEAR(dvbe, thermal_voltage(to_kelvin(t_c)) * std::log(8.0), 1e-7)
        << "at " << t_c << " C";
  }
}

TEST(BjtTest, PnpForwardActive) {
  // PNP: emitter at 1 V, base at 0.35 V (VEB = 0.65), collector grounded.
  Circuit c;
  const NodeId e = c.node("e");
  const NodeId b = c.node("b");
  c.add_vsource("VE", e, kGround, 1.0);
  c.add_vsource("VB", b, kGround, 0.35);
  auto& q = c.add_bjt("Q1", kGround, b, e, pnp_default());
  const Unknowns x = solve_dc_or_throw(c);
  const auto tc = q.currents(x);
  // PNP: conventional current flows out of the collector terminal.
  EXPECT_LT(tc.ic, 0.0);
  const double expected =
      -1e-16 * (std::exp(0.65 / thermal_voltage(300.15)) - 1.0);
  EXPECT_NEAR(tc.ic / expected, 1.0, 1e-5);
}

TEST(BjtTest, EarlyEffectIncreasesIc) {
  BjtModel m = npn_default();
  m.vaf = 50.0;
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.6);
  auto& vc = c.add_vsource("VC", col, kGround, 1.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, m);
  const Unknowns x1 = solve_dc_or_throw(c);
  const double ic1 = q.currents(x1).ic;
  vc.set_voltage(10.0);
  const Unknowns x2 = solve_dc_or_throw(c);
  const double ic2 = q.currents(x2).ic;
  // VBC goes from -0.4 to -9.4: (1 - vbc/VAF) ratio ~ (1+9.4/50)/(1+0.4/50).
  EXPECT_NEAR(ic2 / ic1, (1.0 + 9.4 / 50.0) / (1.0 + 0.4 / 50.0), 2e-3);
}

TEST(BjtTest, VbeDecreasesWithTemperatureAtConstantCurrent) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_isource("I1", kGround, a, 1e-5);
  c.add_bjt("Q1", a, a, kGround, npn_default());
  auto series = temperature_sweep(
      c, {to_kelvin(-50.0), to_kelvin(0.0), to_kelvin(50.0), to_kelvin(100.0)},
      probe_node_voltage(c, "a"));
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LT(series.y(i), series.y(i - 1));
  }
  // Slope ~ -1.5 to -2.2 mV/K for these parameters.
  const double slope = (series.y(3) - series.y(0)) / (series.x(3) - series.x(0));
  EXPECT_GT(slope, -2.4e-3);
  EXPECT_LT(slope, -1.2e-3);
}

TEST(BjtTest, SubstrateParasiticStealsCurrentInSaturation) {
  BjtModel m = npn_default();
  m.iss = 1e-15;  // parasitic 10x the main IS
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  auto& vc = c.add_vsource("VC", col, kGround, 2.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, m);
  // Forward active: substrate current negligible.
  Unknowns x = solve_dc_or_throw(c);
  EXPECT_LT(std::abs(q.currents(x).isub), 1e-12);
  // Saturation (VC = 0.05 -> VBC = +0.6): parasitic turns on.
  vc.set_voltage(0.05);
  x = solve_dc_or_throw(c);
  EXPECT_GT(std::abs(q.currents(x).isub), 1e-9);
}

TEST(BjtTest, PowerIsPositiveAndPlausible) {
  Circuit c;
  const NodeId b = c.node("b");
  const NodeId col = c.node("c");
  c.add_vsource("VB", b, kGround, 0.65);
  c.add_vsource("VC", col, kGround, 3.0);
  auto& q = c.add_bjt("Q1", col, b, kGround, npn_default());
  const Unknowns x = solve_dc_or_throw(c);
  const double ic = q.currents(x).ic;
  EXPECT_NEAR(q.power(x), 3.0 * ic + 0.65 * q.currents(x).ib, 0.05 * 3 * ic);
}

TEST(Analysis, DcSweepVsourceWarmStarts) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId a = c.node("a");
  DiodeModel dm;
  c.add_vsource("V1", in, kGround, 0.0);
  c.add_resistor("R1", in, a, 1e3);
  c.add_diode("D1", a, kGround, dm);
  auto vals = linspace(0.0, 2.0, 21);
  auto series =
      dc_sweep_vsource(c, "V1", vals, probe_node_voltage(c, "a"));
  EXPECT_EQ(series.size(), 21u);
  EXPECT_TRUE(series.x_strictly_increasing());
  // Diode clamps near 0.7 V at the top of the sweep.
  EXPECT_LT(series.max_y(), 0.85);
}

TEST(Analysis, LinspaceAndLogspace) {
  auto l = linspace(0.0, 1.0, 5);
  ASSERT_EQ(l.size(), 5u);
  EXPECT_DOUBLE_EQ(l[1], 0.25);
  auto g = logspace_decades(1e-8, 1e-5, 3);
  EXPECT_NEAR(g.front(), 1e-8, 1e-20);
  EXPECT_NEAR(g.back(), 1e-5, 1e-12);
  for (std::size_t i = 1; i < g.size(); ++i) EXPECT_GT(g[i], g[i - 1]);
}

TEST(Analysis, ProbeVsourceCurrent) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add_vsource("V1", in, kGround, 1.0);
  c.add_resistor("R1", in, kGround, 1e3);
  auto series = dc_sweep_vsource(c, "V1", {1.0, 2.0},
                                 probe_vsource_current("V1"));
  EXPECT_NEAR(series.y(0), -1e-3, 1e-9);
  EXPECT_NEAR(series.y(1), -2e-3, 1e-9);
}

TEST(DcSolver, FailsGracefullyOnSingularCircuit) {
  // Two ideal voltage sources in parallel with conflicting values cannot be
  // satisfied; expect converged == false or a NumericalError, never a hang.
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_vsource("V2", a, kGround, 2.0);
  const DcResult r = solve_dc(c);
  EXPECT_FALSE(r.converged);
}

TEST(DcSolver, StrategyReportedOnEasyCircuit) {
  Circuit c;
  const NodeId a = c.node("a");
  c.add_vsource("V1", a, kGround, 1.0);
  c.add_resistor("R1", a, kGround, 1.0e3);
  const DcResult r = solve_dc(c);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.strategy, "newton");
}

// The is_nonlinear() contract a linear-circuit session relies on: a device
// that answers false stamps the same matrix and RHS whatever the iterate,
// so one solve of its system is the operating point (see
// newton_update.hpp). One circuit holds every device kind; each device is
// stamped alone at two different iterates and the two stamps compared
// bit for bit.
TEST(DeviceContract, LinearDevicesStampTheSameSystemAtEveryIterate) {
  Circuit c;
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId o = c.node("o");
  c.add_resistor("R1", a, b, 1.0e3, 1e-3, 1e-6);
  c.add_vsource("V1", a, kGround, 1.2);
  c.add_isource("I1", b, kGround, 1e-4);
  c.add_vcvs("E1", o, kGround, a, b, 3.0);
  c.add_opamp("X1", o, a, b, 1.0e5, 1e-3);
  auto& cap = c.add_capacitor("C1", a, b, 1e-9);
  auto& ind = c.add_inductor("L1", b, o, 1e-6);
  c.add_diode("D1", a, b, DiodeModel{});
  c.add_bjt("Q1", o, a, b, BjtModel{});
  c.add_mosfet("M1", o, a, b, MosfetModel{});
  c.set_temperature(to_kelvin(27.0));
  const auto n = static_cast<std::size_t>(c.assign_unknowns());
  const int nodes = c.node_count() - 1;

  Unknowns x1(n);
  Unknowns x2(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1.raw()[i] = 0.1 * static_cast<double>(i);
    x2.raw()[i] = 0.7 - 0.2 * static_cast<double>(i);
  }

  struct Stamp {
    std::vector<int> row_ptr;
    std::vector<int> col_index;
    std::vector<double> values;
    std::vector<double> rhs;
  };
  const auto stamp_alone = [&](Device& dev, const Unknowns& x) {
    linalg::SparseMatrix m(n, n);
    linalg::Vector rhs(n, 0.0);
    Stamper st(m, rhs, nodes);
    dev.stamp(st, x);
    m.freeze_pattern();
    return Stamp{m.row_ptr(), m.col_index(), m.values(), rhs};
  };
  const auto bitwise_equal = [](const std::vector<double>& p,
                                const std::vector<double>& q) {
    return p.size() == q.size() &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0;
  };
  const auto same_stamp = [&](Device& dev) {
    dev.reset_state();
    const Stamp s1 = stamp_alone(dev, x1);
    dev.reset_state();
    const Stamp s2 = stamp_alone(dev, x2);
    return s1.row_ptr == s2.row_ptr && s1.col_index == s2.col_index &&
           bitwise_equal(s1.values, s2.values) && bitwise_equal(s1.rhs, s2.rhs);
  };

  const auto check_all = [&](const char* mode) {
    for (const auto& dev : c.devices()) {
      SCOPED_TRACE(dev->name() + " in " + mode + " mode");
      if (!dev->is_nonlinear()) {
        EXPECT_TRUE(same_stamp(*dev))
            << "answers is_nonlinear() == false, yet its stamp moved";
      }
    }
  };
  check_all("DC");
  for (const char* name : {"D1", "Q1", "M1"}) {
    Device* dev = c.find(name);
    ASSERT_NE(dev, nullptr);
    EXPECT_TRUE(dev->is_nonlinear()) << name;
    // The two iterates are far enough apart to move a junction's stamp.
    EXPECT_FALSE(same_stamp(*dev)) << name;
  }

  // Transient companions depend on committed state and the step, never on
  // the iterate.
  cap.init_state(x1);
  ind.init_state(x1);
  cap.begin_step(IntegrationMethod::kTrapezoidal, 1e-7);
  ind.begin_step(IntegrationMethod::kBackwardEuler, 1e-7);
  check_all("transient");
  cap.set_dc_mode();
  ind.set_dc_mode();
}

}  // namespace
}  // namespace icvbe::spice
