// Randomized property harness for the symbolic scale-up: AMD ordering,
// BTF decomposition, and the supernodal numeric kernel, checked against
// the legacy min-degree path and the dense LU on ~200 seeded patterns.
//
// Families: resistor-ladder shapes, 2-D meshes, random MNA shapes with
// zero-diagonal aux rows (voltage-source style), singular and
// near-singular value sets. Properties:
//  * amd_order() returns a valid permutation on every pattern, the very
//    permutation of the vector-based oracle (amd_oracle.hpp);
//  * AMD fill stays within a slack factor of the legacy ordering's fill;
//  * refactor/solve under the new default path matches the legacy path
//    and the dense LU to <= 1e-10 (residual-checked when near-singular);
//  * batched lanes are bit-identical to scalar refactors per lane under
//    the new symbolic path (forced supernode coverage included);
//  * structurally/numerically singular systems throw NumericalError on
//    every path.
// A 1e4-node subset runs when ICVBE_SPARSE_STRESS=1 (CI stress job).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/stamper.hpp"
#include "icvbe/testing/alloc_hook.hpp"
#include "amd_oracle.hpp"

namespace icvbe::linalg {
namespace {

constexpr double kAgreeTol = 1e-10;

struct TestSystem {
  std::size_t n = 0;
  SparseMatrix sparse;
  Matrix dense;
  bool expect_singular = false;
  bool near_singular = false;
};

using Entry = std::pair<std::pair<int, int>, double>;

TestSystem build(std::size_t n, const std::vector<Entry>& entries,
                 bool expect_singular = false, bool near_singular = false) {
  TestSystem sys;
  sys.n = n;
  sys.expect_singular = expect_singular;
  sys.near_singular = near_singular;
  sys.sparse.resize(n, n);
  sys.dense.resize(n, n);
  sys.dense.fill(0.0);
  for (const auto& [rc, v] : entries) {
    sys.sparse.add(static_cast<std::size_t>(rc.first),
                   static_cast<std::size_t>(rc.second), v);
    sys.dense(static_cast<std::size_t>(rc.first),
              static_cast<std::size_t>(rc.second)) += v;
  }
  sys.sparse.freeze_pattern();
  return sys;
}

double rnd(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/// Series/shunt conductance ladder with a voltage-source style aux row
/// (zero structural diagonal at the aux position).
TestSystem make_ladder(std::mt19937_64& rng, int nodes) {
  const int n = nodes + 1;  // + aux current
  std::vector<double> diag(static_cast<std::size_t>(nodes), 0.0);
  std::vector<Entry> e;
  for (int i = 0; i + 1 < nodes; ++i) {  // series links
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, i + 1}, -g});
    e.push_back({{i + 1, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(i + 1)] += g;
  }
  for (int i = 0; i < nodes; ++i) {  // ground shunts keep it nonsingular
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)] +
                             rnd(rng, 0.05, 0.2)});
  }
  e.push_back({{0, nodes}, 1.0});  // voltage-source aux: zero diagonal
  e.push_back({{nodes, 0}, 1.0});
  return build(static_cast<std::size_t>(n), e);
}

/// g x g conductance grid, optionally with an aux row pinning one corner.
TestSystem make_mesh(std::mt19937_64& rng, int g, bool with_aux) {
  const int nn = g * g;
  const int n = nn + (with_aux ? 1 : 0);
  std::vector<double> diag(static_cast<std::size_t>(nn), 0.0);
  std::vector<Entry> e;
  auto idx = [g](int x, int y) { return x * g + y; };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      const int i = idx(x, y);
      diag[static_cast<std::size_t>(i)] += 1e-3 * rnd(rng, 0.5, 2.0);
      if (x + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        const int j = idx(x + 1, y);
        e.push_back({{i, j}, -c});
        e.push_back({{j, i}, -c});
        diag[static_cast<std::size_t>(i)] += c;
        diag[static_cast<std::size_t>(j)] += c;
      }
      if (y + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        const int j = idx(x, y + 1);
        e.push_back({{i, j}, -c});
        e.push_back({{j, i}, -c});
        diag[static_cast<std::size_t>(i)] += c;
        diag[static_cast<std::size_t>(j)] += c;
      }
    }
  }
  for (int i = 0; i < nn; ++i) {
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)]});
  }
  if (with_aux) {
    e.push_back({{0, nn}, 1.0});
    e.push_back({{nn, 0}, 1.0});
  }
  return build(static_cast<std::size_t>(n), e);
}

/// Random MNA shape: a random connected conductance graph over `nodes`
/// plus `naux` voltage-source style rows (zero structural diagonal,
/// coupling entries only). Diagonally dominant by construction, so the
/// result is comfortably nonsingular.
TestSystem make_random_mna(std::mt19937_64& rng, int nodes, int naux) {
  const int n = nodes + naux;
  std::vector<double> diag(static_cast<std::size_t>(nodes), 0.0);
  std::vector<Entry> e;
  for (int i = 1; i < nodes; ++i) {  // random spanning tree: connected
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(i));
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, j}, -g});
    e.push_back({{j, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(j)] += g;
  }
  const int extra = nodes / 2;
  for (int k = 0; k < extra; ++k) {  // extra chords
    const int i = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    const int j = static_cast<int>(rng() % static_cast<std::uint64_t>(nodes));
    if (i == j) continue;
    const double g = rnd(rng, 0.5, 2.0);
    e.push_back({{i, j}, -g});
    e.push_back({{j, i}, -g});
    diag[static_cast<std::size_t>(i)] += g;
    diag[static_cast<std::size_t>(j)] += g;
  }
  for (int i = 0; i < nodes; ++i) {
    e.push_back({{i, i}, diag[static_cast<std::size_t>(i)] +
                             1e-4 * rnd(rng, 0.5, 2.0)});
  }
  // Zero-diagonal aux rows on *distinct* nodes (two sources pinning the
  // same node would be genuinely structurally singular).
  std::vector<int> picks(static_cast<std::size_t>(nodes));
  std::iota(picks.begin(), picks.end(), 0);
  for (int a = 0; a < naux; ++a) {
    const std::size_t j =
        static_cast<std::size_t>(a) +
        rng() % static_cast<std::uint64_t>(nodes - a);
    std::swap(picks[static_cast<std::size_t>(a)], picks[j]);
    const int node = picks[static_cast<std::size_t>(a)];
    e.push_back({{node, nodes + a}, 1.0});
    e.push_back({{nodes + a, node}, 1.0});
  }
  return build(static_cast<std::size_t>(n), e);
}

/// Numerically singular: two rows with proportional values (rank
/// deficient, structurally fine).
TestSystem make_numerically_singular(std::mt19937_64& rng, int nodes) {
  TestSystem sys = make_random_mna(rng, nodes, 0);
  // Rebuild with row 1 = 2 * row 0's values on the union pattern.
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  for (std::size_t r = 0; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      if (r == 1) continue;
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   v[static_cast<std::size_t>(i)]});
    }
  }
  for (int i = rp[0]; i < rp[1]; ++i) {  // row 1 := 2 x row 0
    e.push_back({{1, ci[static_cast<std::size_t>(i)]},
                 2.0 * v[static_cast<std::size_t>(i)]});
  }
  return build(sys.n, e, /*expect_singular=*/true);
}

/// Structurally singular: two rows whose only entries share one column
/// (no perfect matching).
TestSystem make_structurally_singular(std::mt19937_64& rng, int nodes) {
  TestSystem sys = make_random_mna(rng, nodes, 0);
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  for (std::size_t r = 2; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   v[static_cast<std::size_t>(i)]});
    }
  }
  e.push_back({{0, 5}, rnd(rng, 0.5, 2.0)});
  e.push_back({{1, 5}, rnd(rng, 0.5, 2.0)});
  return build(sys.n, e, /*expect_singular=*/true);
}

/// Near-singular: a well-formed mesh with the last row and column scaled
/// down by 1e-4 each (the trailing diagonal lands at 1e-8 of its
/// neighbours). Solvable, but ill-conditioned enough that only the
/// residual (not the forward error vs dense) is a stable contract.
TestSystem make_near_singular(std::mt19937_64& rng, int g) {
  TestSystem sys = make_mesh(rng, g, /*with_aux=*/false);
  std::vector<Entry> e;
  const auto& rp = sys.sparse.row_ptr();
  const auto& ci = sys.sparse.col_index();
  const auto& v = sys.sparse.values();
  const int last = static_cast<int>(sys.n) - 1;
  for (std::size_t r = 0; r < sys.n; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      double val = v[static_cast<std::size_t>(i)];
      if (static_cast<int>(r) == last) val *= 1e-4;
      if (ci[static_cast<std::size_t>(i)] == last) val *= 1e-4;
      e.push_back({{static_cast<int>(r), ci[static_cast<std::size_t>(i)]},
                   val});
    }
  }
  return build(sys.n, e, /*expect_singular=*/false, /*near_singular=*/true);
}

Vector random_rhs(std::mt19937_64& rng, std::size_t n) {
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rnd(rng, -1.0, 1.0);
  return b;
}

double max_abs_diff(const Vector& a, const Vector& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

/// ||Ax - b||_inf / (||A||_1 max|x| + ||b||_inf): the scale-free residual.
double rel_residual(const TestSystem& sys, const Vector& x, const Vector& b) {
  double rmax = 0.0;
  double xmax = 0.0;
  for (std::size_t i = 0; i < sys.n; ++i) xmax = std::max(xmax, std::abs(x[i]));
  double anorm = 0.0;
  for (std::size_t r = 0; r < sys.n; ++r) {
    double row = 0.0;
    double ax = 0.0;
    for (std::size_t c = 0; c < sys.n; ++c) {
      ax += sys.dense(r, c) * x[c];
      row += std::abs(sys.dense(r, c));
    }
    anorm = std::max(anorm, row);
    rmax = std::max(rmax, std::abs(ax - b[r]));
  }
  return rmax / (anorm * xmax + 1.0 + std::abs(b[0]));
}

/// One property check: orders valid, fill within slack, solutions agree.
void check_system(const TestSystem& sys, std::mt19937_64& rng,
                  bool force_supernode) {
  const std::size_t n = sys.n;

  // amd_order is a valid permutation on every pattern, singular or not.
  const std::vector<int> order =
      amd_order(sys.sparse.row_ptr(), sys.sparse.col_index(), n);
  ASSERT_EQ(order.size(), n);
  std::vector<char> seen(n, 0);
  for (int v : order) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, static_cast<int>(n));
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate row in AMD";
    seen[static_cast<std::size_t>(v)] = 1;
  }
  EXPECT_EQ(order,
            oracle::amd_order(sys.sparse.row_ptr(), sys.sparse.col_index(), n))
      << "flat AMD left the oracle's permutation";

  SparseLuFactorization legacy;
  legacy.set_options(SparseOptions::legacy());
  SparseLuFactorization amd;
  if (force_supernode) {
    SparseOptions o;
    o.supernode_min = 8;
    o.supernode_density = 0.3;
    amd.set_options(o);
  }

  if (sys.expect_singular) {
    EXPECT_THROW(amd.refactor(sys.sparse), NumericalError);
    EXPECT_THROW(legacy.refactor(sys.sparse), NumericalError);
    return;
  }

  ASSERT_NO_THROW(amd.refactor(sys.sparse));
  ASSERT_NO_THROW(legacy.refactor(sys.sparse));

  // Fill: AMD within slack of the legacy exact-minimum-degree order.
  EXPECT_LE(amd.factor_nonzeros(),
            static_cast<std::size_t>(
                1.5 * static_cast<double>(legacy.factor_nonzeros()) +
                4.0 * static_cast<double>(n)))
      << "AMD fill blew past the legacy ordering";

  const Vector b = random_rhs(rng, n);
  const Vector xa = amd.solve(b);
  const Vector xl = legacy.solve(b);

  // Residuals hold even when near-singular.
  EXPECT_LT(rel_residual(sys, xa, b), kAgreeTol);
  EXPECT_LT(rel_residual(sys, xl, b), kAgreeTol);

  if (!sys.near_singular) {
    LuFactorization dl;
    dl.refactor(sys.dense);
    Vector xd = b;
    dl.solve_in_place(xd);
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      scale = std::max(scale, std::abs(xd[i]));
    }
    EXPECT_LT(max_abs_diff(xa, xd) / scale, kAgreeTol)
        << "AMD path diverged from dense LU";
    EXPECT_LT(max_abs_diff(xl, xd) / scale, kAgreeTol)
        << "legacy path diverged from dense LU";
    EXPECT_LT(max_abs_diff(xa, xl) / scale, kAgreeTol)
        << "AMD path diverged from legacy ordering";
  }

  // Cached analysis is reused across same-pattern refactors.
  const int analyses = amd.analysis_count();
  amd.refactor(sys.sparse);
  EXPECT_EQ(amd.analysis_count(), analyses);
}

TEST(SparseOrderingHarness, TwoHundredSeededPatterns) {
  std::mt19937_64 rng(20260808u);
  int case_id = 0;
  for (int rep = 0; rep < 25; ++rep) {
    const bool force_sn = (rep % 2) == 0;
    {
      SCOPED_TRACE("ladder case " + std::to_string(case_id++));
      TestSystem s = make_ladder(rng, 8 + static_cast<int>(rng() % 90));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("mesh case " + std::to_string(case_id++));
      TestSystem s =
          make_mesh(rng, 3 + static_cast<int>(rng() % 8), (rep % 3) == 0);
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("random MNA case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 10 + static_cast<int>(rng() % 80),
                                     static_cast<int>(rng() % 4));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("random MNA (aux-heavy) case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 10 + static_cast<int>(rng() % 40),
                                     2 + static_cast<int>(rng() % 5));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("numerically singular case " + std::to_string(case_id++));
      TestSystem s =
          make_numerically_singular(rng, 12 + static_cast<int>(rng() % 30));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("structurally singular case " + std::to_string(case_id++));
      TestSystem s =
          make_structurally_singular(rng, 12 + static_cast<int>(rng() % 30));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("near-singular case " + std::to_string(case_id++));
      TestSystem s = make_near_singular(rng, 4 + static_cast<int>(rng() % 5));
      check_system(s, rng, force_sn);
    }
    {
      SCOPED_TRACE("tiny case " + std::to_string(case_id++));
      TestSystem s = make_random_mna(rng, 4 + static_cast<int>(rng() % 5), 0);
      check_system(s, rng, force_sn);
    }
  }
  EXPECT_EQ(case_id, 200);
}

/// The MNA pattern a session discovers for a generated deck: every device
/// stamped once at the zero iterate, plus the gmin diagonal.
SparseMatrix generated_pattern(spice::SyntheticTopology topology, int nodes) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = topology;
  spec.nodes = nodes;
  spec.with_analysis = false;
  const spice::ParsedNetlist deck =
      spice::parse_netlist(spice::generate_netlist(spec));
  spice::Circuit& c = *deck.circuit;
  const auto n = static_cast<std::size_t>(c.assign_unknowns());
  SparseMatrix a(n, n);
  Vector b(n, 0.0);
  const spice::Unknowns x(n);
  spice::Stamper st(a, b, c.node_count() - 1);
  for (const auto& dev : c.devices()) dev->stamp(st, x);
  for (int i = 0; i + 1 < c.node_count(); ++i) st.add_entry(i, i, 0.0);
  a.freeze_pattern();
  return a;
}

/// Rows of one BTF block as a standalone CSR pattern, columns renumbered
/// to the block's matched rows: the graph analyze() orders per block.
SparseMatrix block_pattern(const SparseMatrix& a, const BtfDecomposition& btf,
                           std::size_t block) {
  const int lo = btf.block_ptr[block];
  const auto m = static_cast<std::size_t>(btf.block_ptr[block + 1] - lo);
  std::vector<int> local(a.rows(), -1);
  for (std::size_t k = 0; k < m; ++k) {
    const auto r = static_cast<std::size_t>(btf.row_order[lo + k]);
    local[static_cast<std::size_t>(btf.match_col[r])] = static_cast<int>(k);
  }
  SparseMatrix out(m, m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto r = static_cast<std::size_t>(btf.row_order[lo + k]);
    for (int i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const int lc = local[static_cast<std::size_t>(a.col_index()[i])];
      if (lc >= 0) out.add(k, static_cast<std::size_t>(lc), 1.0);
    }
  }
  out.freeze_pattern();
  return out;
}

void expect_oracle_order(const SparseMatrix& a) {
  EXPECT_EQ(amd_order(a.row_ptr(), a.col_index(), a.rows()),
            oracle::amd_order(a.row_ptr(), a.col_index(), a.rows()));
  const BtfDecomposition btf =
      btf_decompose(a.row_ptr(), a.col_index(), a.rows());
  for (std::size_t blk = 0; blk < btf.block_count(); ++blk) {
    const SparseMatrix local = block_pattern(a, btf, blk);
    EXPECT_EQ(amd_order(local.row_ptr(), local.col_index(), local.rows()),
              oracle::amd_order(local.row_ptr(), local.col_index(),
                                local.rows()))
        << "BTF block " << blk;
  }
}

TEST(SparseOrderingHarness, FlatAmdMatchesOracleOnGeneratedTopologies) {
  using spice::SyntheticTopology;
  for (const SyntheticTopology t :
       {SyntheticTopology::kResistorLadder, SyntheticTopology::kDiodeLadder,
        SyntheticTopology::kMesh, SyntheticTopology::kGrid,
        SyntheticTopology::kClockTree}) {
    for (const int nodes : {100, 1000, 10000}) {
      SCOPED_TRACE(std::string(spice::topology_name(t)) + " at " +
                   std::to_string(nodes) + " nodes");
      expect_oracle_order(generated_pattern(t, nodes));
    }
  }
}

TEST(SparseOrderingHarness, FlatAmdAllocationsDoNotGrowWithSize) {
  // The ordering's workspace is a fixed set of arrays sized from the
  // graph: the operator-new count of one call is the same at 1e3 and 1e4
  // nodes.
  const auto allocations = [](int nodes) {
    const SparseMatrix a =
        generated_pattern(spice::SyntheticTopology::kGrid, nodes);
    const std::uint64_t before = testing::allocation_count();
    const std::vector<int> order =
        amd_order(a.row_ptr(), a.col_index(), a.rows());
    EXPECT_EQ(order.size(), a.rows());
    return testing::allocation_count() - before;
  };
  const std::uint64_t small = allocations(1000);
  const std::uint64_t large = allocations(10000);
  EXPECT_EQ(large, small);
  EXPECT_LT(large, 40u);
}

TEST(SparseOrderingHarness, BatchLanesBitIdenticalUnderNewPath) {
  std::mt19937_64 rng(7u);
  for (int rep = 0; rep < 6; ++rep) {
    TestSystem sys = (rep % 2 == 0)
                         ? make_mesh(rng, 6 + rep, /*with_aux=*/true)
                         : make_random_mna(rng, 40 + 10 * rep, 2);
    const std::size_t n = sys.n;
    const std::size_t K = 3;

    SparseLuFactorization f;
    if (rep < 4) {
      SparseOptions o;  // force supernode coverage on most reps
      o.supernode_min = 8;
      o.supernode_density = 0.3;
      f.set_options(o);
    }
    f.refactor(sys.sparse);
    if (rep < 4) {
      ASSERT_GT(f.supernode_size(), 0u)
          << "forced supernode did not engage; test would not cover the "
             "dense batch kernel";
    }

    SparseValueBatch batch;
    batch.bind(sys.sparse, K);
    std::vector<SparseMatrix> lanes;
    for (std::size_t l = 0; l < K; ++l) {
      lanes.push_back(sys.sparse);
      // Perturb each lane's values deterministically (pattern fixed).
      lanes[l].add(0, 0, 1e-3 * static_cast<double>(l));
      batch.load_lane(l, lanes[l]);
    }
    std::vector<unsigned char> ok(K, 1);
    f.refactor_batch(batch, ok);
    for (std::size_t l = 0; l < K; ++l) ASSERT_TRUE(ok[l]);

    const Vector b = random_rhs(rng, n);
    std::vector<double> rhs(n * K);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t l = 0; l < K; ++l) rhs[i * K + l] = b[i];
    }
    f.solve_batch(rhs);

    for (std::size_t l = 0; l < K; ++l) {
      f.refactor(lanes[l]);
      const Vector x = f.solve(b);
      for (std::size_t i = 0; i < n; ++i) {
        const double batched = rhs[i * K + l];
        EXPECT_EQ(std::memcmp(&x[i], &batched, sizeof(double)), 0)
            << "lane " << l << " row " << i
            << " not bit-identical to scalar refactor";
      }
    }
    EXPECT_EQ(f.analysis_count(), 1) << "lane refactors must reuse analysis";
  }
}

TEST(SparseOrderingHarness, BatchSimdKernelBitIdenticalToScalarLaneKernel) {
  // A/B the two runtime batch kernels: the pack-vectorized lane kernel
  // (set_batch_simd(true), the default; K = 4/8 hit the compile-time-K
  // specializations, K = 3 the generic pack path) against the scalar
  // per-lane reference kernel (set_batch_simd(false), the PR-9 loops).
  // The contract is bitwise equality of the ok masks and every solution
  // bit, over the same pattern families the main harness uses. The
  // steady-state calls must also stay allocation-free (this binary links
  // icvbe_alloc_hook).
  std::mt19937_64 rng(20260808u ^ 0x51u);
  for (int rep = 0; rep < 8; ++rep) {
    TestSystem sys;
    switch (rep % 4) {
      case 0:
        sys = make_mesh(rng, 5 + rep, /*with_aux=*/true);
        break;
      case 1:
        sys = make_random_mna(rng, 30 + 10 * rep, 2);
        break;
      case 2:
        sys = make_ladder(rng, 20 + 10 * rep);
        break;
      default:
        sys = make_near_singular(rng, 5 + rep % 3);
        break;
    }
    const std::size_t n = sys.n;
    for (std::size_t K : {std::size_t{3}, std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " K = " + std::to_string(K));

      SparseOptions o;  // force supernode coverage: the tiled kernel's
      o.supernode_min = 8;  // trailing update is the riskiest code path
      o.supernode_density = 0.3;

      SparseLuFactorization fs;  // SIMD lane kernel (default on)
      SparseLuFactorization fr;  // scalar reference lane kernel
      fr.set_batch_simd(false);
      fs.set_options(o);
      fr.set_options(o);
      fs.refactor(sys.sparse);
      fr.refactor(sys.sparse);

      SparseValueBatch bs;
      SparseValueBatch br;
      bs.bind(sys.sparse, K);
      br.bind(sys.sparse, K);
      std::vector<SparseMatrix> lanes;
      for (std::size_t l = 0; l < K; ++l) {
        lanes.push_back(sys.sparse);
        lanes[l].add(0, 0, 1e-3 * static_cast<double>(l));
        bs.load_lane(l, lanes[l]);
        br.load_lane(l, lanes[l]);
      }
      std::vector<unsigned char> ok_s(K, 1);
      std::vector<unsigned char> ok_r(K, 1);
      fs.refactor_batch(bs, ok_s);
      fr.refactor_batch(br, ok_r);
      ASSERT_EQ(ok_s, ok_r) << "pivot screening diverged between kernels";

      const Vector b = random_rhs(rng, n);
      std::vector<double> rhs_s(n * K);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t l = 0; l < K; ++l) rhs_s[i * K + l] = b[i];
      }
      std::vector<double> rhs_r = rhs_s;
      fs.solve_batch(rhs_s);
      fr.solve_batch(rhs_r);
      bool any_ok = false;
      for (std::size_t l = 0; l < K; ++l) {
        if (!ok_s[l]) continue;
        any_ok = true;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::memcmp(&rhs_s[i * K + l], &rhs_r[i * K + l],
                                sizeof(double)),
                    0)
              << "lane " << l << " row " << i
              << " SIMD kernel not bit-identical to scalar lane kernel";
        }
      }
      if (rep % 4 != 3) {
        ASSERT_TRUE(any_ok);
      }

      // Steady state: re-running the batch at the same shape allocates
      // nothing on either kernel path.
      for (std::size_t l = 0; l < K; ++l) bs.load_lane(l, lanes[l]);
      std::fill(ok_s.begin(), ok_s.end(), 1);
      const std::uint64_t a0 = testing::allocation_count();
      fs.refactor_batch(bs, ok_s);
      fs.solve_batch(rhs_s);
      const std::uint64_t a1 = testing::allocation_count();
      EXPECT_EQ(a1 - a0, 0u)
          << "batched refactor/solve steady state allocated on the heap";
    }
  }
}

TEST(SparseOrderingHarness, BtfDecomposeBlockTriangularPattern) {
  // Hand-built 6x6 with two coupled pairs feeding a trailing pair:
  // rows {0,1} <-> cols {0,1}, rows {2,3} <-> cols {2,3} with a
  // dependency on block one, rows {4,5} close the chain.
  SparseMatrix m(6, 6);
  auto pair_block = [&](int r0) {
    m.add(r0, r0, 2.0);
    m.add(r0, r0 + 1, 1.0);
    m.add(r0 + 1, r0, 1.0);
    m.add(r0 + 1, r0 + 1, 2.0);
  };
  pair_block(0);
  pair_block(2);
  pair_block(4);
  m.add(0, 3, 0.5);  // block of rows {0,1} depends on block {2,3}
  m.add(2, 5, 0.5);  // block of rows {2,3} depends on block {4,5}
  m.freeze_pattern();

  const BtfDecomposition btf =
      btf_decompose(m.row_ptr(), m.col_index(), 6);
  ASSERT_EQ(btf.block_count(), 3u);
  // Every row maps to a block; each block has exactly the paired rows.
  EXPECT_EQ(btf.row_block[0], btf.row_block[1]);
  EXPECT_EQ(btf.row_block[2], btf.row_block[3]);
  EXPECT_EQ(btf.row_block[4], btf.row_block[5]);
  // Cross-block entries must point at *later* blocks (block upper
  // triangular): row 0 depends on rows {2,3}, which depend on {4,5}.
  EXPECT_LT(btf.row_block[0], btf.row_block[2]);
  EXPECT_LT(btf.row_block[2], btf.row_block[4]);
  // The diagonal is a perfect matching here.
  for (std::size_t r = 0; r < 6; ++r) {
    EXPECT_EQ(btf.match_col[r], static_cast<int>(r));
  }

  // And the factorization solves it exactly like dense.
  Matrix d(6, 6, 0.0);
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const auto& v = m.values();
  for (std::size_t r = 0; r < 6; ++r) {
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      d(r, static_cast<std::size_t>(ci[static_cast<std::size_t>(i)])) =
          v[static_cast<std::size_t>(i)];
    }
  }
  SparseLuFactorization f;
  f.refactor(m);
  EXPECT_EQ(f.btf_block_count(), 3u);
  LuFactorization dl;
  dl.refactor(d);
  Vector b(6);
  for (std::size_t i = 0; i < 6; ++i) b[i] = 0.25 * static_cast<double>(i + 1);
  const Vector xs = f.solve(b);
  Vector xd = b;
  dl.solve_in_place(xd);
  EXPECT_LT(max_abs_diff(xs, xd), kAgreeTol);
}

TEST(SparseOrderingHarness, StructurallySingularThrowsBeforeNumericWork) {
  // A free column: no row ever touches column 2.
  SparseMatrix m(3, 3);
  m.add(0, 0, 1.0);
  m.add(1, 1, 1.0);
  m.add(2, 0, 1.0);
  m.add(2, 1, 1.0);
  m.freeze_pattern();
  EXPECT_THROW(
      btf_decompose(m.row_ptr(), m.col_index(), 3), NumericalError);
  SparseLuFactorization f;  // default path goes through BTF
  EXPECT_THROW(f.refactor(m), NumericalError);
}

TEST(SparseOrderingHarness, StressSubsetAt1e4Nodes) {
  const char* env = std::getenv("ICVBE_SPARSE_STRESS");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') {
    GTEST_SKIP() << "set ICVBE_SPARSE_STRESS=1 for the 1e4-node subset";
  }
  std::mt19937_64 rng(99u);
  // 100 x 100 grid (10k nodes): AMD-only (legacy analysis takes ~seconds
  // here, which is the point of this PR). Build without the dense mirror.
  const int g = 100;
  const std::size_t n = static_cast<std::size_t>(g) * g;
  SparseMatrix m(n, n);
  std::vector<double> diag(n, 0.0);
  auto idx = [g](int x, int y) {
    return static_cast<std::size_t>(x * g + y);
  };
  for (int x = 0; x < g; ++x) {
    for (int y = 0; y < g; ++y) {
      const std::size_t i = idx(x, y);
      diag[i] += 1e-3 * rnd(rng, 0.5, 2.0);
      if (x + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        m.add(i, idx(x + 1, y), -c);
        m.add(idx(x + 1, y), i, -c);
        diag[i] += c;
        diag[idx(x + 1, y)] += c;
      }
      if (y + 1 < g) {
        const double c = rnd(rng, 0.5, 2.0);
        m.add(i, idx(x, y + 1), -c);
        m.add(idx(x, y + 1), i, -c);
        diag[i] += c;
        diag[idx(x, y + 1)] += c;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) m.add(i, i, diag[i]);
  m.freeze_pattern();

  SparseLuFactorization f;
  f.refactor(m);
  // Fill sanity: a 100x100 grid factors at ~45 entries/row under a good
  // ordering; 80/row flags an ordering-quality regression.
  EXPECT_LT(f.factor_nonzeros(), 80 * n);

  const Vector b = random_rhs(rng, n);
  const Vector x = f.solve(b);
  // Residual check against the CSR directly (no dense mirror at 10k).
  double rmax = 0.0;
  double xmax = 0.0;
  double anorm = 0.0;
  for (std::size_t i = 0; i < n; ++i) xmax = std::max(xmax, std::abs(x[i]));
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const auto& v = m.values();
  for (std::size_t r = 0; r < n; ++r) {
    double ax = 0.0;
    double row = 0.0;
    for (int i = rp[r]; i < rp[r + 1]; ++i) {
      ax += v[static_cast<std::size_t>(i)] *
            x[static_cast<std::size_t>(ci[static_cast<std::size_t>(i)])];
      row += std::abs(v[static_cast<std::size_t>(i)]);
    }
    anorm = std::max(anorm, row);
    rmax = std::max(rmax, std::abs(ax - b[r]));
  }
  EXPECT_LT(rmax / (anorm * xmax), kAgreeTol);

  // Analysis reuse at scale.
  f.refactor(m);
  EXPECT_EQ(f.analysis_count(), 1);

  // The flat AMD emits the oracle's permutation on the 1e5 clock tree.
  expect_oracle_order(
      generated_pattern(spice::SyntheticTopology::kClockTree, 100000));
}

}  // namespace
}  // namespace icvbe::linalg
