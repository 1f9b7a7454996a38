// Dense-vs-sparse equivalence and stress harness over generated synthetic
// netlists (spice/netlist_gen.hpp): the sparse engine's solutions must sit
// within 1e-10 of the dense LU oracle (dense_oracle.hpp) across DC solves
// and full analysis plans, stay allocation-free per point (this binary
// links icvbe_alloc_hook), and keep the plan contract's bit-identical
// parallel fanout.
//
// Default sizes keep the suite inside the ordinary ctest budget; set
// ICVBE_SPARSE_STRESS=1 (the Release CI job does) to add the large
// configurations.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"
#include "dense_oracle.hpp"

namespace icvbe::spice {
namespace {

constexpr double kAgreeTol = 1e-10;

bool stress_enabled() {
  const char* env = std::getenv("ICVBE_SPARSE_STRESS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Newton tolerances tight enough that the session converges to within
/// ~1e-12 of the true operating point: at the default reltol=1e-6 it would
/// legitimately stop microvolts from the root (and from the oracle's
/// step), drowning the 1e-10 comparison in solver slack. The absolute
/// floors stay above the ~3e-12 iterate noise of a 500-unknown solve, or
/// convergence would be unreachable.
NewtonOptions tight_options() {
  NewtonOptions opt;
  opt.v_abstol = 1e-11;
  opt.i_abstol = 1e-14;
  opt.reltol = 1e-12;
  return opt;
}

/// Every unknown of the sparse solution `xs` against the dense oracle's
/// Newton step from it.
void expect_matches_dense(Circuit& circuit, const Unknowns& xs,
                          double gmin) {
  const Unknowns xd = dense_newton_image(circuit, xs, gmin);
  ASSERT_EQ(xd.size(), xs.size());
  for (std::size_t i = 0; i < xd.size(); ++i) {
    EXPECT_NEAR(xd.raw()[i], xs.raw()[i], kAgreeTol)
        << "unknown " << i << " of " << xd.size();
  }
}

struct EquivalenceCase {
  SyntheticTopology topology;
  int nodes;
};

std::vector<EquivalenceCase> equivalence_cases() {
  std::vector<EquivalenceCase> cases = {
      {SyntheticTopology::kResistorLadder, 50},
      {SyntheticTopology::kResistorLadder, 500},
      {SyntheticTopology::kDiodeLadder, 50},
      {SyntheticTopology::kDiodeLadder, 200},
      {SyntheticTopology::kBjtLadder, 50},
      {SyntheticTopology::kBjtLadder, 200},
      {SyntheticTopology::kMesh, 100},
      {SyntheticTopology::kMesh, 500},
      {SyntheticTopology::kGrid, 400},
      {SyntheticTopology::kClockTree, 300},
  };
  if (stress_enabled()) {
    cases.push_back({SyntheticTopology::kResistorLadder, 2000});
    cases.push_back({SyntheticTopology::kDiodeLadder, 1000});
    cases.push_back({SyntheticTopology::kMesh, 1000});
    cases.push_back({SyntheticTopology::kGrid, 2500});
    cases.push_back({SyntheticTopology::kClockTree, 4000});
  }
  return cases;
}

std::string case_name(const EquivalenceCase& c) {
  return std::string(topology_name(c.topology)) + "/" +
         std::to_string(c.nodes);
}

ParsedNetlist parse_case(const EquivalenceCase& c, std::uint64_t seed = 42) {
  SyntheticNetlistSpec spec;
  spec.topology = c.topology;
  spec.nodes = c.nodes;
  spec.seed = seed;
  return parse_netlist(generate_netlist(spec));
}

TEST(SparseEquivalence, DcOperatingPointMatchesDense) {
  for (const EquivalenceCase& c : equivalence_cases()) {
    SCOPED_TRACE(case_name(c));
    auto deck = parse_case(c);
    SimSession sparse(*deck.circuit, tight_options());
    const Unknowns& xs = sparse.solve_or_throw();
    expect_matches_dense(*deck.circuit, xs, sparse.options().gmin_floor);
  }
}

TEST(SparseEquivalence, DeckPlanColumnsMatchDense) {
  for (const EquivalenceCase& c : equivalence_cases()) {
    SCOPED_TRACE(case_name(c));
    auto deck = parse_case(c);
    ASSERT_TRUE(deck.plan.has_value());
    ASSERT_EQ(deck.plan->axes.size(), 1u);

    AnalysisPlan plan = *deck.plan;
    plan.options = tight_options();
    SimSession sparse(*deck.circuit, plan.options);
    const SweepResult rs = sparse.run(plan);

    // Replay the sweep point by point and judge every recorded column
    // against the probes of the dense oracle's step from that point.
    Circuit& circuit = *deck.circuit;
    const CompiledProbeSet probes(plan.probes, circuit);
    std::size_t row = 0;
    (void)sparse.sweep(plan.axes.front(), [&](const Circuit&,
                                              const Unknowns& x) {
      const Unknowns xd =
          dense_newton_image(circuit, x, plan.options.gmin_floor);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        EXPECT_NEAR(rs.value(p, row), probes.eval(p, xd), kAgreeTol)
            << "probe " << p << " row " << row;
      }
      ++row;
      return 0.0;
    });
    EXPECT_EQ(row, rs.rows());
  }
}

/// Every result bit-equal to the first.
void expect_bit_identical(const std::vector<SweepResult>& results) {
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[0].rows(), results[v].rows());
    for (std::size_t p = 0; p < results[0].probe_count(); ++p) {
      for (std::size_t r = 0; r < results[0].rows(); ++r) {
        EXPECT_EQ(results[0].value(p, r), results[v].value(p, r))
            << "variant " << v << " probe " << p << " row " << r;
      }
    }
  }
}

TEST(SparseEquivalence, TwoAxisPlanBitIdenticalAcrossThreadCounts) {
  // The plan contract (test_plan) on the sparse path: outer rows fanned
  // across per-thread clones must produce bit-identical columns for any
  // thread count -- every worker primes its pivots at the un-swept clone.
  const EquivalenceCase c{SyntheticTopology::kDiodeLadder, 200};
  AnalysisPlan plan;
  plan.name = "sparse-fanout";
  plan.axes.push_back(
      SweepAxis::temperature_celsius(SweepGrid::list({0.0, 27.0, 75.0})));
  plan.axes.push_back(
      SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 11)));
  plan.probes.push_back(parse_probe("V(n200)"));
  plan.probes.push_back(parse_probe("I(V1)"));

  std::vector<SweepResult> results;
  for (unsigned threads : {1u, 2u, 4u}) {
    auto deck = parse_case(c);
    deck.circuit->set_temperature(300.15);
    plan.threads = threads;
    SimSession session(*deck.circuit, tight_options());
    results.push_back(session.run(plan));
  }
  expect_bit_identical(results);

  // The Banba bandgap stepped across temperature: the outer rows start
  // up to 125 K apart, where threshold pivoting at a row's first point
  // picks other pivots than at the un-swept circuit. Neither the thread count nor the lane width may change a
  // bit, whichever row an executor draws first.
  const std::string text = R"(
VDD vdd 0 1
.MODEL PMOSLV PMOS (VTO=0.45 KP=25u LAMBDA=0.04 TNOM=298.15)
.MODEL PNPCELL PNP (IS=2e-16 BF=45 NF=1.0 EG=1.17 XTI=3.5 TNOM=298.15)
M1 n1 gate vdd PMOSLV WL=120
M2 n2 gate vdd PMOSLV WL=120
M3 vref gate vdd PMOSLV WL=120
R1A n1 0 26.1k
Q1 0 0 n1 PNPCELL
R1B n2 0 26.1k
R0 n2 n2e 2.44k
Q2 0 0 n2e PNPCELL AREA=8
R2 vref 0 13k
U1 gate n2 n1 GAIN=1e6
.NODESET V(n1)=0.62 V(n2)=0.62 V(n2e)=0.566 V(vref)=0.6 V(gate)=0.375 V(vdd)=1
.STEP TEMP LIST 125 0 60 25
.DC VDD 0.9 1.5 0.3
.PROBE V(vref) I(VDD)
)";
  std::vector<SweepResult> stepped;
  for (unsigned threads : {1u, 3u}) {
    for (unsigned lanes : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " lanes=" << lanes);
      auto deck = parse_netlist(text);
      ASSERT_TRUE(deck.plan.has_value());
      ASSERT_EQ(deck.plan->axes.size(), 2u);
      Circuit& circuit = *deck.circuit;
      circuit.set_temperature(300.15);
      Unknowns guess(static_cast<std::size_t>(circuit.assign_unknowns()));
      for (const auto& [node, value] : deck.nodesets) {
        guess.raw()[static_cast<std::size_t>(circuit.node(node) - 1)] = value;
      }
      AnalysisPlan stepped_plan = *deck.plan;
      stepped_plan.threads = threads;
      stepped_plan.lanes = lanes;
      SimSession session(circuit);
      session.seed_warm_start(guess);
      stepped.push_back(session.run(stepped_plan));
    }
  }
  expect_bit_identical(stepped);
}

TEST(SparseEquivalence, OrderingSweepMatchesDenseAndLegacy) {
  // The ordering dimension of the equivalence matrix: the legacy exact
  // minimum-degree path (pre-AMD default, kept behind SparseOptions), the
  // new AMD+BTF default, and a forced-supernode AMD variant must all land
  // on the dense oracle's answer on every deck shape.
  struct Variant {
    const char* name;
    linalg::SparseOptions options;
  };
  linalg::SparseOptions forced_sn;
  forced_sn.supernode_min = 8;
  forced_sn.supernode_density = 0.3;
  const std::vector<Variant> variants = {
      {"legacy-md", linalg::SparseOptions::legacy()},
      {"amd-btf-default", linalg::SparseOptions{}},
      {"amd-forced-supernode", forced_sn},
  };
  for (const EquivalenceCase& c : equivalence_cases()) {
    SCOPED_TRACE(case_name(c));
    for (const Variant& v : variants) {
      SCOPED_TRACE(v.name);
      auto deck = parse_case(c);
      NewtonOptions opt = tight_options();
      opt.sparse_options = v.options;
      SimSession sparse(*deck.circuit, opt);
      const Unknowns& xs = sparse.solve_or_throw();
      expect_matches_dense(*deck.circuit, xs, opt.gmin_floor);
    }
  }
}

TEST(SparseEquivalence, SparseSolveIsAllocationFreeAfterSetup) {
  auto deck = parse_case({SyntheticTopology::kMesh, 500});
  SimSession session(*deck.circuit, tight_options());

  // First solve performs the one-time symbolic analysis.
  (void)session.solve_or_throw();
  // Steady-state warm solves must not touch the heap at all.
  auto& v1 = deck.circuit->get<VoltageSource>("V1");
  const std::uint64_t a0 = testing::allocation_count();
  for (int i = 0; i < 5; ++i) {
    v1.set_voltage(5.0 + 0.05 * i);
    (void)session.solve_or_throw();
  }
  const std::uint64_t a1 = testing::allocation_count();
  EXPECT_EQ(a1 - a0, 0u)
      << "sparse Newton steady state allocated on the heap";
}

TEST(SparseEquivalence, SparsePlanAllocationsIndependentOfPointCount) {
  // The test_plan discipline on the sparse path: a run over 10x the
  // points must allocate exactly as much as the small run (per-run setup
  // only, nothing per point).
  auto deck = parse_case({SyntheticTopology::kMesh, 200});
  SimSession session(*deck.circuit, tight_options());

  AnalysisPlan small;
  small.name = "alloc-small";
  small.axes.push_back(
      SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 10)));
  small.probes.push_back(parse_probe("V(" +
                                     generated_probe_node(
                                         {SyntheticTopology::kMesh, 200, 42,
                                          true}) +
                                     ")"));
  AnalysisPlan large = small;
  large.name = "alloc-large";
  large.axes[0] = SweepAxis::vsource("V1", SweepGrid::linear(3.0, 6.0, 100));

  // Warm-up run: symbolic analysis plus any lazy result-shape setup.
  (void)session.run(small);

  const std::uint64_t a0 = testing::allocation_count();
  const SweepResult rs = session.run(small);
  const std::uint64_t a1 = testing::allocation_count();
  const SweepResult rl = session.run(large);
  const std::uint64_t a2 = testing::allocation_count();
  EXPECT_EQ(rs.rows(), 10u);
  EXPECT_EQ(rl.rows(), 100u);
  EXPECT_EQ(a1 - a0, a2 - a1)
      << "sparse run() allocation count scales with point count";
}

TEST(SparseEquivalence, SymbolicAnalysisSurvivesAWholePlanRun) {
  // Engine-level counterpart of the zero-alloc assertion: the whole sweep
  // must reuse one symbolic analysis (pattern and pivot order are
  // operating-point independent).
  auto deck = parse_case({SyntheticTopology::kDiodeLadder, 200});
  SimSession session(*deck.circuit, tight_options());
  ASSERT_TRUE(deck.plan.has_value());
  AnalysisPlan plan = *deck.plan;
  plan.options = tight_options();
  const SweepResult r = session.run(plan);
  EXPECT_GT(r.rows(), 0u);
}

}  // namespace
}  // namespace icvbe::spice
