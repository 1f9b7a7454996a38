// Unit tests for icvbe/linalg/sparse: the CSR SparseMatrix lifecycle and
// the SparseLuFactorization symbolic-reuse engine, checked against the
// dense LU on the same systems.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <random>
#include <tuple>
#include <type_traits>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::linalg {
namespace {

TEST(SparseMatrixTest, BuildFreezeAccess) {
  SparseMatrix m(3, 3);
  EXPECT_FALSE(m.frozen());
  m.add(0, 0, 2.0);
  m.add(0, 2, 1.0);
  m.add(1, 1, 3.0);
  m.add(2, 0, -1.0);
  m.add(2, 2, 4.0);
  m.add(0, 0, 0.5);  // duplicate registration merges at freeze
  m.freeze_pattern();
  EXPECT_TRUE(m.frozen());
  EXPECT_EQ(m.nonzeros(), 5u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);  // outside pattern reads as zero
  EXPECT_DOUBLE_EQ(m.at(2, 0), -1.0);
}

TEST(SparseMatrixTest, ShuffledRegistrationsFreezeToTheSortedCsr) {
  // Random (row, col) registrations with many repeats, in random order,
  // against a reference built from the sorted distinct coordinates. Each
  // slot's value must be the left fold of its registrations in
  // registration order.
  constexpr std::size_t kN = 60;
  std::mt19937_64 rng(7);
  std::vector<std::tuple<int, int, double>> regs;
  for (int k = 0; k < 3000; ++k) {
    const int r = static_cast<int>(rng() % kN);
    // Row 0 is long (past the insertion-sort cut-off); others are short.
    const int c = r == 0 ? static_cast<int>(rng() % kN)
                         : static_cast<int>((r + rng() % 5) % kN);
    regs.emplace_back(r, c, std::ldexp(static_cast<double>(rng() % 1000),
                                       static_cast<int>(rng() % 80) - 40));
  }
  SparseMatrix m(kN, kN);
  std::map<std::pair<int, int>, double> folded;
  for (const auto& [r, c, v] : regs) {
    m.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c), v);
    auto [it, fresh] = folded.try_emplace({r, c}, v);
    if (!fresh) it->second += v;
  }
  m.freeze_pattern();
  std::vector<int> row_ptr(kN + 1, 0);
  std::vector<int> cols;
  std::vector<double> values;
  for (const auto& [rc, v] : folded) {
    ++row_ptr[static_cast<std::size_t>(rc.first) + 1];
    cols.push_back(rc.second);
    values.push_back(v);
  }
  for (std::size_t r = 0; r < kN; ++r) row_ptr[r + 1] += row_ptr[r];
  EXPECT_EQ(m.row_ptr(), row_ptr);
  EXPECT_EQ(m.col_index(), cols);
  ASSERT_EQ(m.values().size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(m.values()[i], values[i]) << "slot " << i;  // bitwise
  }
}

TEST(SparseMatrixTest, DuplicatesSumInRegistrationOrder) {
  // 1e16 + 1 rounds back to 1e16, so the fold order shows in the result.
  SparseMatrix a(2, 2);
  a.add(1, 1, 1e16);
  a.add(0, 0, 5.0);
  a.add(1, 1, 1.0);
  a.add(1, 1, -1e16);
  a.freeze_pattern();
  EXPECT_EQ(a.at(1, 1), (1e16 + 1.0) - 1e16);  // 0
  SparseMatrix b(2, 2);
  b.add(1, 1, 1e16);
  b.add(1, 1, -1e16);
  b.add(0, 0, 5.0);
  b.add(1, 1, 1.0);
  b.freeze_pattern();
  EXPECT_EQ(b.at(1, 1), (1e16 - 1e16) + 1.0);  // 1
  EXPECT_EQ(a.col_index(), b.col_index());
}

TEST(SparseMatrixTest, FrozenAddAccumulatesAndRejectsOutsidePattern) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  m.add(0, 0, 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_THROW(m.add(0, 1, 1.0), Error);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  m.add(0, 0, 7.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
}

TEST(SparseMatrixTest, ZeroValueRegistersPatternEntry) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 0.0);  // structural registration, value happens to be zero
  m.add(0, 1, 0.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  EXPECT_EQ(m.nonzeros(), 4u);
  m.add(0, 1, 5.0);  // must be inside the pattern
  EXPECT_DOUBLE_EQ(m.at(0, 1), 5.0);
}

TEST(SparseMatrixTest, UnfreezeReopensPattern) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(1, 1, 2.0);
  m.freeze_pattern();
  const auto stamp = m.pattern_stamp();
  m.unfreeze();
  m.add(0, 1, 3.0);
  m.freeze_pattern();
  EXPECT_EQ(m.nonzeros(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 3.0);
  EXPECT_NE(m.pattern_stamp(), stamp);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  SparseMatrix m(3, 3);
  m.add(0, 0, 2.0);
  m.add(0, 1, -1.0);
  m.add(1, 0, -1.0);
  m.add(1, 1, 2.0);
  m.add(1, 2, -1.0);
  m.add(2, 1, -1.0);
  m.add(2, 2, 2.0);
  m.freeze_pattern();
  const Vector x{1.0, 2.0, 3.0};
  const Vector y = m.multiply(x);
  const Vector yd = m.to_dense().multiply(x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], yd[i]);
}

TEST(SparseLuTest, SolvesTridiagonalSystem) {
  const std::size_t n = 50;
  SparseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 4.0);
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      m.add(i + 1, i, -1.0);
    }
  }
  m.freeze_pattern();
  Vector b(n, 1.0);
  SparseLuFactorization lu;
  lu.refactor(m);
  const Vector x = lu.solve(b);
  const Vector ax = m.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-12);
}

TEST(SparseLuTest, HandlesZeroDiagonalMnaShape) {
  // Voltage-source-style MNA block: node conductances plus an aux row/col
  // pair with a structurally zero diagonal -- no-pivoting LU dies here.
  //   [ g  0  1 ] [v1]   [0]
  //   [ 0  g -1 ] [v2] = [0]
  //   [ 1 -1  0 ] [i ]   [E]
  SparseMatrix m(3, 3);
  m.add(0, 0, 1e-3);
  m.add(0, 2, 1.0);
  m.add(1, 1, 1e-3);
  m.add(1, 2, -1.0);
  m.add(2, 0, 1.0);
  m.add(2, 1, -1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  Vector b{0.0, 0.0, 5.0};
  lu.solve_in_place(b);
  const Vector ax = m.multiply(b);
  EXPECT_NEAR(ax[0], 0.0, 1e-12);
  EXPECT_NEAR(ax[1], 0.0, 1e-12);
  EXPECT_NEAR(ax[2], 5.0, 1e-12);
}

TEST(SparseLuTest, SingularMatrixThrows) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(0, 1, 2.0);
  m.add(1, 0, 2.0);
  m.add(1, 1, 4.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, ZeroMatrixIsANumericalError) {
  // Same contract as the dense engine: a numerically zero matrix stays
  // inside the Newton fallback machinery (NumericalError), it does not
  // abort as API misuse.
  SparseMatrix m(2, 2);
  m.add(0, 0, 0.0);
  m.add(1, 1, 0.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, StructurallySingularThrows) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);  // row 1 has no entries at all
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, NonFiniteEntriesThrowAtRefactor) {
  SparseMatrix m(2, 2);
  m.add(0, 0, std::nan(""));
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  EXPECT_THROW(lu.refactor(m), NumericalError);
}

TEST(SparseLuTest, SymbolicAnalysisIsReused) {
  const std::size_t n = 30;
  SparseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m.add(i, i, 3.0);
    if (i + 1 < n) {
      m.add(i, i + 1, -1.0);
      m.add(i + 1, i, -1.0);
    }
  }
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  EXPECT_EQ(lu.analysis_count(), 1);
  for (int pass = 0; pass < 5; ++pass) {
    m.fill(0.0);
    for (std::size_t i = 0; i < n; ++i) {
      m.add(i, i, 3.0 + 0.1 * pass);
      if (i + 1 < n) {
        m.add(i, i + 1, -1.0);
        m.add(i + 1, i, -1.0);
      }
    }
    lu.refactor(m);
    Vector b(n, 1.0);
    lu.solve_in_place(b);
    const Vector ax = m.multiply(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-12);
  }
  EXPECT_EQ(lu.analysis_count(), 1) << "numeric refactor re-ran the analysis";
}

TEST(SparseLuTest, ReanalyzesOnPivotCollapse) {
  // First factor with a dominant (0,0); then shrink it to ~0 so the frozen
  // pivot collapses and the engine must re-pivot instead of failing.
  SparseMatrix m(2, 2);
  m.add(0, 0, 10.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1e-12);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  const int analyses_before = lu.analysis_count();

  m.fill(0.0);
  m.add(0, 0, 0.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0);
  lu.refactor(m);
  EXPECT_GT(lu.analysis_count(), analyses_before);
  Vector b{1.0, 3.0};
  lu.solve_in_place(b);
  // x solves [0 1; 1 1] x = [1, 3] -> x = (2, 1).
  EXPECT_NEAR(b[0], 2.0, 1e-12);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
}

// Property sweep: random sparse diagonally-dominant systems agree with the
// dense LU to near machine precision, across repeated refactors.
class RandomSparseTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSparseTest, AgreesWithDenseLu) {
  const std::size_t n = 60;
  std::mt19937 gen(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);

  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  auto put = [&](std::size_t r, std::size_t c, double v) {
    s.add(r, c, v);
    d(r, c) += v;
  };
  for (std::size_t i = 0; i < n; ++i) put(i, i, 5.0 + dist(gen));
  for (int e = 0; e < 240; ++e) {
    const std::size_t r = pick(gen);
    const std::size_t c = pick(gen);
    if (r != c) put(r, c, dist(gen));
  }
  s.freeze_pattern();

  SparseLuFactorization slu;
  slu.refactor(s);
  LuFactorization dlu(d);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = dist(gen);
  const Vector xs = slu.solve(b);
  const Vector xd = dlu.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSparseTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ROADMAP sparse follow-up (c): the dense engine's condition_estimate()
// now has a sparse counterpart using the same +/-1 probe, so the two must
// report comparable numbers on identical systems.
TEST(SparseLuTest, ConditionEstimateMatchesDenseWithin10x) {
  for (const unsigned seed : {11u, 22u, 33u, 44u}) {
    const std::size_t n = 24;
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    SparseMatrix s(n, n);
    Matrix d(n, n, 0.0);
    auto put = [&](std::size_t r, std::size_t c, double v) {
      s.add(r, c, v);
      d(r, c) += v;
    };
    for (std::size_t i = 0; i < n; ++i) put(i, i, 4.0 + dist(gen));
    for (int e = 0; e < 80; ++e) {
      const std::size_t r = pick(gen);
      const std::size_t c = pick(gen);
      if (r != c) put(r, c, dist(gen));
    }
    s.freeze_pattern();
    SparseLuFactorization slu;
    slu.refactor(s);
    const LuFactorization dlu(d);
    const double cs = slu.condition_estimate();
    const double cd = dlu.condition_estimate();
    ASSERT_GT(cd, 0.0);
    EXPECT_GT(cs, cd / 10.0) << "seed " << seed;
    EXPECT_LT(cs, cd * 10.0) << "seed " << seed;
    // Both see a well-conditioned system as such.
    EXPECT_LT(cs, 1e4);
  }
}

// The fill-heavy counterpart: a 2-D conductance mesh is where the AMD
// ordering leaves a dense trailing region and the supernode kernel takes
// over the tail of the factor. The condition probe walks that mixed
// sparse/supernodal factor, so pin it to the dense engine's number on the
// same system -- a divergence here means the supernodal triangular solves
// drifted from the reference factorisation.
TEST(SparseLuTest, ConditionEstimateMatchesDenseOnFillHeavyMesh) {
  const int g = 14;  // 196 unknowns, enough elimination fill to supernode
  const std::size_t n = static_cast<std::size_t>(g) * g;
  std::mt19937 gen(7u);
  std::uniform_real_distribution<double> dist(0.5, 2.0);
  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  std::vector<double> diag(n, 1e-3);
  auto idx = [g](int x, int y) { return static_cast<std::size_t>(x * g + y); };
  auto couple = [&](std::size_t a, std::size_t b) {
    const double c = dist(gen);
    s.add(a, b, -c);
    s.add(b, a, -c);
    d(a, b) -= c;
    d(b, a) -= c;
    diag[a] += c;
    diag[b] += c;
  };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      if (x + 1 < g) couple(idx(x, y), idx(x + 1, y));
      if (y + 1 < g) couple(idx(x, y), idx(x, y + 1));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    s.add(i, i, diag[i]);
    d(i, i) += diag[i];
  }
  s.freeze_pattern();

  SparseLuFactorization slu;
  SparseOptions opts;  // force the supernode at this size (the production
  opts.supernode_min = 8;       // 0.8-density cut keeps 196 unknowns fully
  opts.supernode_density = 0.3;  // sparse -- here we want the mixed walk)
  slu.set_options(opts);
  slu.refactor(s);
  ASSERT_GT(slu.supernode_size(), 0u)
      << "mesh did not engage the supernode kernel; the case would not "
         "cover the mixed factor walk";
  const LuFactorization dlu(d);
  const double cs = slu.condition_estimate();
  const double cd = dlu.condition_estimate();
  ASSERT_GT(cd, 0.0);
  EXPECT_GT(cs, cd / 10.0);
  EXPECT_LT(cs, cd * 10.0);
}

// The complex lane through the dense supernode, on an AC-shaped system: a
// conductance mesh with every node loaded by j*omega*C to ground, driven
// through a voltage-source branch whose diagonal is structurally zero. One
// analysis at the first frequency must carry the whole sweep, and every
// point must agree with the dense complex LU.
TEST(SparseLuTest, ComplexSupernodeMatchesDenseAcrossFrequencySweep) {
  const int g = 14;
  const std::size_t nodes = static_cast<std::size_t>(g) * g;
  const std::size_t n = nodes + 1;  // + the source's branch current
  auto idx = [g](int x, int y) { return static_cast<std::size_t>(x * g + y); };
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      if (x + 1 < g) edges.emplace_back(idx(x, y), idx(x + 1, y));
      if (y + 1 < g) edges.emplace_back(idx(x, y), idx(x, y + 1));
    }
  }
  std::mt19937 gen(11u);
  std::uniform_real_distribution<double> dist(0.5e-3, 2e-3);
  std::vector<double> conductance;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    conductance.push_back(dist(gen));
  }
  auto stamp = [&](double omega, auto&& add) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const auto [a, b] = edges[e];
      const Complex y(conductance[e], 0.0);
      add(a, a, y);
      add(b, b, y);
      add(a, b, -y);
      add(b, a, -y);
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      add(i, i, Complex(1e-9, omega * 1e-12));  // gmin + j*omega*C
    }
    add(0, nodes, Complex(1.0));
    add(nodes, 0, Complex(1.0));
    add(nodes, nodes, Complex(0.0));
  };

  ComplexSparseMatrix s(n, n);
  stamp(0.0, [&s](std::size_t r, std::size_t c, Complex v) { s.add(r, c, v); });
  s.freeze_pattern();
  ComplexSparseLuFactorization slu;
  SparseOptions opts;  // force the supernode at this size, as above
  opts.supernode_min = 8;
  opts.supernode_density = 0.3;
  slu.set_options(opts);

  for (double f = 1e3; f <= 1e9; f *= 10.0) {
    SCOPED_TRACE("f = " + std::to_string(f));
    const double omega = 2.0 * std::numbers::pi * f;
    s.fill(Complex{});
    ComplexMatrix d(n, n, Complex{});
    stamp(omega, [&](std::size_t r, std::size_t c, Complex v) {
      s.add(r, c, v);
      d(r, c) += v;
    });
    slu.refactor(s);
    ASSERT_GT(slu.supernode_size(), 0u)
        << "mesh did not engage the supernode kernel";

    ComplexVector x(n, Complex{});
    x[nodes] = Complex(1.0);  // 1 V AC drive
    const ComplexVector xd = ComplexLuFactorization(d).solve(x);
    slu.solve_in_place(x);
    double scale = 0.0;
    for (const Complex& v : xd) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(x[i] - xd[i]), 1e-10 * scale) << "unknown " << i;
    }
  }
  EXPECT_EQ(slu.analysis_count(), 1)
      << "the sweep re-analysed instead of refactoring on the frozen pivots";
}

TEST(SparseLuTest, ConditionEstimateGrowsOnIllConditionedSystem) {
  const std::size_t n = 8;
  SparseMatrix s(n, n);
  Matrix d(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = i + 1 == n ? 1e-9 : 2.0;  // one nearly-dependent row
    s.add(i, i, v);
    d(i, i) = v;
  }
  s.freeze_pattern();
  SparseLuFactorization slu;
  slu.refactor(s);
  const LuFactorization dlu(d);
  EXPECT_GT(slu.condition_estimate(), 1e8);
  EXPECT_GT(slu.condition_estimate(), dlu.condition_estimate() / 10.0);
  EXPECT_LT(slu.condition_estimate(), dlu.condition_estimate() * 10.0);
}

// The transient engine restamps the same pattern with wildly different
// values (companion conductances scale with 1/h): if the frozen pivot
// order becomes numerically unstable for the new values, refactor() must
// re-analyse instead of returning a garbage factorisation.
TEST(SparseLuTest, ReanalyzesOnFrozenPivotGrowthBlowup) {
  // Analysis values make (0,0) an attractive pivot; the restamp shrinks it
  // to 1e-6 (still far above the singularity tolerance) while raising the
  // couplings through it to 1e4, so the frozen elimination multiplier is
  // 1e10 and the fill-in reaches ~1e14 -- past the 1e8 * max|A| growth cap.
  SparseMatrix m(3, 3);
  m.add(0, 0, 1.0);
  m.add(0, 1, 1.0);
  m.add(1, 0, 1.0);
  m.add(1, 1, 1.0 + 1e-3);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 1.0);
  m.freeze_pattern();
  SparseLuFactorization lu;
  lu.refactor(m);
  const int analyses_before = lu.analysis_count();

  m.fill(0.0);
  m.add(0, 0, 1e-6);
  m.add(0, 1, 1e4);
  m.add(1, 0, 1e4);
  m.add(1, 1, 1.0);
  m.add(1, 2, 1.0);
  m.add(2, 1, 1.0);
  m.add(2, 2, 1.0);
  lu.refactor(m);
  EXPECT_GT(lu.analysis_count(), analyses_before)
      << "growth guard did not trigger a re-analysis";
  Vector b{1.0, 2.0, 3.0};
  lu.solve_in_place(b);
  const Vector ax = m.multiply(b);
  EXPECT_NEAR(ax[0], 1.0, 1e-2);  // residual scale ~ max|A| * eps-ish
  EXPECT_NEAR(ax[1], 2.0, 1e-2);
  EXPECT_NEAR(ax[2], 3.0, 1e-2);
}

// ---------------------------------------------------------------------------
// refactor() returns early when the values match its last successful call.
// Every case runs for the real and the complex instantiation; the counters
// tell a skip (numeric_refactor_count() unchanged) from a real pass.

template <typename Scalar>
class SparseRefactorSkipTest : public ::testing::Test {
 protected:
  using Matrix = SparseMatrixT<Scalar>;
  using Lu = SparseLuFactorizationT<Scalar>;
  using Vec = VectorT<Scalar>;

  static Scalar value(double re, double im) {
    if constexpr (std::is_same_v<Scalar, double>) {
      (void)im;
      return re;
    } else {
      return Scalar(re, im);
    }
  }

  // A 5x5 conductance mesh plus one voltage-source branch: the aux row's
  // diagonal is a structural +0.0 that the restamp never adds to.
  SparseRefactorSkipTest() {
    const std::size_t g = 5;
    const std::size_t nodes = g * g;
    std::mt19937 gen(5u);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    auto couple = [&](std::size_t a, std::size_t b) {
      const Scalar y = value(dist(gen), 0.1 * dist(gen));
      entries_.emplace_back(a, b, -y);
      entries_.emplace_back(b, a, -y);
      entries_.emplace_back(a, a, y);
      entries_.emplace_back(b, b, y);
    };
    for (std::size_t x = 0; x < g; ++x) {
      for (std::size_t y = 0; y < g; ++y) {
        if (x + 1 < g) couple(x * g + y, (x + 1) * g + y);
        if (y + 1 < g) couple(x * g + y, x * g + y + 1);
      }
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      entries_.emplace_back(i, i, value(1e-3, 1e-4));
    }
    branch_entry_ = entries_.size();  // the branch column's only non-zero
    entries_.emplace_back(0, nodes, value(1.0, 0.0));
    entries_.emplace_back(nodes, 0, value(1.0, 0.0));
    n_ = nodes + 1;
    m_.resize(n_, n_);
    for (const auto& [r, c, v] : entries_) m_.add(r, c, v);
    m_.add(nodes, nodes, Scalar{});  // the structural zero
    m_.freeze_pattern();
    rhs_.assign(n_, Scalar{});
    for (std::size_t i = 0; i < n_; ++i) rhs_[i] = value(1.0 + 0.1 * i, -0.5);
  }

  /// Restamp the entries onto `base` (every stored slot starts there),
  /// leaving out entry `drop` if given.
  void restamp(Scalar base = Scalar{}, std::size_t drop = kKeepAll) {
    m_.fill(base);
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      if (e == drop) continue;
      const auto& [r, c, v] = entries_[e];
      m_.add(r, c, v);
    }
  }

  /// Solution of m_ x = rhs_ through `lu`'s current factors.
  Vec solve_with(const Lu& lu) const {
    Vec x = rhs_;
    lu.solve_in_place(x);
    return x;
  }

  /// Solution through a freshly constructed factorisation of m_ (same
  /// options as `like`).
  Vec fresh_solution(const Lu& like, double pivot_tol = 1e-14) const {
    Lu fresh;
    fresh.set_options(like.options());
    fresh.refactor(m_, pivot_tol);
    return solve_with(fresh);
  }

  static bool bit_equal(const Vec& a, const Vec& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0;
  }

  /// Move the value at CSR slot `slot` up by one ULP (real part).
  void bump_slot_one_ulp(std::size_t slot) {
    const std::vector<int>& row_ptr = m_.row_ptr();
    const auto row = static_cast<std::size_t>(
        std::upper_bound(row_ptr.begin(), row_ptr.end(),
                         static_cast<int>(slot)) -
        row_ptr.begin() - 1);
    const auto col = static_cast<std::size_t>(m_.col_index()[slot]);
    const double re = std::real(m_.values()[slot]);
    const double up =
        std::nextafter(re, std::numeric_limits<double>::infinity()) - re;
    m_.add(row, col, value(up, 0.0));  // exact: adjacent doubles
    ASSERT_EQ(std::real(m_.values()[slot]),
              std::nextafter(re, std::numeric_limits<double>::infinity()));
  }

  static constexpr std::size_t kKeepAll = static_cast<std::size_t>(-1);
  std::size_t n_ = 0;
  std::size_t branch_entry_ = 0;
  std::vector<std::tuple<std::size_t, std::size_t, Scalar>> entries_;
  Matrix m_;
  Vec rhs_;
};

using SkipScalars = ::testing::Types<double, Complex>;
TYPED_TEST_SUITE(SparseRefactorSkipTest, SkipScalars);

TYPED_TEST(SparseRefactorSkipTest, UnchangedValuesFactorOnce) {
  typename TestFixture::Lu lu;
  for (int pass = 0; pass < 6; ++pass) {
    this->restamp();
    lu.refactor(this->m_);
  }
  EXPECT_EQ(lu.numeric_refactor_count(), 1);
  EXPECT_EQ(lu.analysis_count(), 1);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, OneUlpInAnySlotRefactors) {
  const std::size_t nnz = this->m_.values().size();
  for (const std::size_t slot : {std::size_t{0}, nnz / 2, nnz - 1}) {
    SCOPED_TRACE("CSR slot " + std::to_string(slot));
    typename TestFixture::Lu lu;
    this->restamp();
    lu.refactor(this->m_);
    this->bump_slot_one_ulp(slot);
    lu.refactor(this->m_);
    EXPECT_EQ(lu.numeric_refactor_count(), 2);
    EXPECT_EQ(lu.analysis_count(), 1);
    EXPECT_TRUE(
        this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
    lu.refactor(this->m_);  // and the changed values are skipped in turn
    EXPECT_EQ(lu.numeric_refactor_count(), 2);
  }
}

TYPED_TEST(SparseRefactorSkipTest, SignOfZeroFlipRefactors) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  const std::size_t zero_slot = this->m_.slot(this->n_ - 1, this->n_ - 1);
  this->restamp(TypeParam(-0.0));  // -0.0 + v == v; the zero slot stays -0.0
  ASSERT_TRUE(std::signbit(std::real(this->m_.values()[zero_slot])));
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, PivotTolChangeRefactors) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  lu.refactor(this->m_, 1e-13);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  lu.refactor(this->m_, 1e-13);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_TRUE(
      this->bit_equal(this->solve_with(lu), this->fresh_solution(lu, 1e-13)));
}

TYPED_TEST(SparseRefactorSkipTest, InvalidateAnalysisRefactors) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  lu.invalidate_analysis();
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_EQ(lu.analysis_count(), 2);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, OptionsChangeRefactors) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  lu.set_options(lu.options());  // same value: the analysis stands
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 1);
  SparseOptions opts = lu.options();
  opts.btf = !opts.btf;
  lu.set_options(opts);
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_EQ(lu.analysis_count(), 2);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, RefrozenPatternRefactors) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  const std::uint64_t stamp = this->m_.pattern_stamp();
  this->m_.unfreeze();
  this->m_.freeze_pattern();
  ASSERT_NE(this->m_.pattern_stamp(), stamp);
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_EQ(lu.analysis_count(), 2);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, SingularValuesThrowEveryTime) {
  // A singular restamp after a good factorisation throws, and keeps
  // throwing on the same values instead of returning the old factors.
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  this->restamp(TypeParam{}, this->branch_entry_);  // branch column all zero
  EXPECT_THROW(lu.refactor(this->m_), NumericalError);
  EXPECT_THROW(lu.refactor(this->m_), NumericalError);
  this->restamp();  // the good values factor again
  lu.refactor(this->m_);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

TYPED_TEST(SparseRefactorSkipTest, NonFiniteValuesThrowEveryTime) {
  typename TestFixture::Lu lu;
  this->restamp();
  lu.refactor(this->m_);
  this->m_.add(0, 0, TestFixture::value(std::nan(""), 0.0));
  EXPECT_THROW(lu.refactor(this->m_), NumericalError);
  EXPECT_THROW(lu.refactor(this->m_), NumericalError);
  EXPECT_EQ(lu.numeric_refactor_count(), 1);  // the screen stopped both
  this->restamp();  // the good values factor again
  lu.refactor(this->m_);
  EXPECT_EQ(lu.numeric_refactor_count(), 2);
  EXPECT_TRUE(this->bit_equal(this->solve_with(lu), this->fresh_solution(lu)));
}

// The counter on whole circuits, stamped the way a Newton iteration stamps
// them: a linear grid's Jacobian does not depend on the iterate, so its
// restamps factor once; a diode ladder's changes every iteration.
struct StampedDeck {
  explicit StampedDeck(spice::SyntheticTopology topology, int nodes) {
    spice::SyntheticNetlistSpec spec;
    spec.topology = topology;
    spec.nodes = nodes;
    circuit = std::move(spice::parse_netlist(spice::generate_netlist(spec))
                            .circuit);
    const auto n = static_cast<std::size_t>(circuit->assign_unknowns());
    a.resize(n, n);
    b.assign(n, 0.0);
    x = spice::Unknowns(n);
    stamp();
    a.freeze_pattern();
  }

  /// fill(0) + one stamp pass of every device at the iterate x.
  void stamp() {
    if (a.frozen()) a.fill(0.0);
    std::fill(b.begin(), b.end(), 0.0);
    const int node_unknowns = circuit->node_count() - 1;
    spice::Stamper st(a, b, node_unknowns);
    for (const auto& dev : circuit->devices()) dev->stamp(st, x);
    for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, 1e-12);
  }

  std::unique_ptr<spice::Circuit> circuit;
  SparseMatrix a;
  Vector b;
  spice::Unknowns x;
};

TEST(SparseLuTest, LinearGridRestampsFactorOnce) {
  StampedDeck deck(spice::SyntheticTopology::kGrid, 100);
  SparseLuFactorization lu;
  Vector first;
  for (int round = 0; round < 15; ++round) {
    deck.stamp();
    lu.refactor(deck.a);
    Vector sol = deck.b;
    lu.solve_in_place(sol);
    deck.x.raw() = sol;
    if (round == 0) first = sol;
    EXPECT_EQ(std::memcmp(sol.data(), first.data(),
                          sol.size() * sizeof(double)),
              0)
        << "round " << round;
  }
  EXPECT_EQ(lu.numeric_refactor_count(), 1);
  EXPECT_EQ(lu.analysis_count(), 1);
}

TEST(SparseLuTest, NonlinearLadderRefactorsEveryNewtonIteration) {
  StampedDeck deck(spice::SyntheticTopology::kDiodeLadder, 40);
  SparseLuFactorization lu;
  int iterations = 0;
  double step = 1.0;
  while (step > 1e-9 && iterations < 100) {
    deck.stamp();
    lu.refactor(deck.a);
    Vector next = deck.b;
    lu.solve_in_place(next);
    step = 0.0;
    for (std::size_t i = 0; i < next.size(); ++i) {
      step = std::max(step, std::abs(next[i] - deck.x.raw()[i]));
    }
    deck.x.raw() = next;
    ++iterations;
  }
  ASSERT_LT(iterations, 100) << "Newton did not converge";
  EXPECT_GT(iterations, 3);
  EXPECT_EQ(lu.numeric_refactor_count(), iterations);
  EXPECT_EQ(lu.analysis_count(), 1);
}

}  // namespace
}  // namespace icvbe::linalg
