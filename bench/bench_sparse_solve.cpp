// Dense-vs-sparse LU crossover on generated netlists.
//
// Stage 1 (reproduction-style report): for each topology/size, stamp the
// MNA system at its solved DC operating point and time the refactor+solve
// a Newton iteration runs, on the sparse LU and on dense LU of the same
// system (to_dense()). Prints the crossover and records the study in
// results/BENCH_sparse.json (plus the usual CSV).
//
// Stage 2 (ordering A/B): legacy set-based minimum degree vs the AMD +
// BTF/supernode default (SparseOptions) at 1000-node ladder/mesh --
// symbolic-analysis time, steady refactor+solve time, and factor fill.
// Gate: the new default's steady refactor+solve is no slower than legacy
// within 1.25x noise slack, judged on the median AMD/legacy ratio of 9
// interleaved pairs.
//
// Stage 3 (stress, ICVBE_SPARSE_STRESS=1): symbolic-analysis time, the
// median of 5 fresh analyses, at a 10k-node grid (gate: AMD analysis
// >= 10x faster than legacy) plus an AMD-only 1e5-node clock-tree row;
// then the ordering alone, the flat amd_order against the vector-based
// oracle it replaced (tests/amd_oracle.hpp), on both: the permutations
// must be equal, and on the tree the flat one >= 4x faster (medians of 5
// interleaved pairs). CI runs this in the sparse-stress job and uploads
// results/BENCH_sparse.json.
//
// Stage 4: google-benchmark timings of the same kernels plus a full
// session-level DC solve on the sparse path.
//
// The sparse refactor() returns early when its input matches the last
// factorisation, so every timed repetition first moves one diagonal entry
// to the other of two adjacent doubles (DiagonalFlip), on both engines:
// the gates compare numeric refactors, not the unchanged-input skip.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../tests/amd_oracle.hpp"
#include "bench_util.hpp"
#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/netlist.hpp"
#include "icvbe/spice/netlist_gen.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/stamper.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

/// One circuit's MNA system, stamped at its converged operating point --
/// exactly the matrix a Newton iteration hands to the linear engine. The
/// dense copy is left empty for the stress sizes (a 1e5-node dense matrix
/// would need 80 GB).
struct StampedSystem {
  std::unique_ptr<spice::Circuit> circuit;
  int unknowns = 0;
  linalg::Matrix dense;
  linalg::SparseMatrix sparse;
  linalg::Vector rhs;
};

StampedSystem make_system(spice::SyntheticTopology topology, int nodes,
                          bool with_dense = true) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = topology;
  spec.nodes = nodes;
  spec.seed = 42;
  auto parsed = spice::parse_netlist(spice::generate_netlist(spec));

  StampedSystem out;
  out.circuit = std::move(parsed.circuit);
  spice::SimSession session(*out.circuit);
  const spice::Unknowns& x = session.solve_or_throw();
  const int n = session.unknown_count();
  const int node_unknowns = out.circuit->node_count() - 1;
  out.unknowns = n;

  const auto un = static_cast<std::size_t>(n);
  out.rhs.assign(un, 0.0);
  out.sparse.resize(un, un);
  {
    spice::Stamper st(out.sparse, out.rhs, node_unknowns);
    for (const auto& dev : out.circuit->devices()) dev->stamp(st, x);
    for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, 1e-12);
  }
  out.sparse.freeze_pattern();
  if (with_dense) out.dense = out.sparse.to_dense();
  return out;
}

/// Alternates the (0, 0) entry -- node 1's diagonal, present in every
/// generated deck -- between its stamped value and the next double up, so
/// consecutive refactors never see the same matrix. Adding the exact
/// one-ULP difference keeps the two values bit-stable across repetitions.
class DiagonalFlip {
 public:
  explicit DiagonalFlip(const StampedSystem& sys) {
    const double v = sys.sparse.at(0, 0);
    ulp_ = std::nextafter(v, HUGE_VAL) - v;
  }
  void operator()(linalg::Matrix& a) { a(0, 0) += next(); }
  void operator()(linalg::SparseMatrix& a) { a.add(0, 0, next()); }

 private:
  double next() {
    up_ = !up_;
    return up_ ? ulp_ : -ulp_;
  }
  double ulp_ = 0.0;
  bool up_ = false;
};

/// Microseconds per call, adaptively repeated to >= ~60 ms of work.
template <typename F>
double time_us(F&& f) {
  f();  // warm-up (first sparse refactor runs the symbolic analysis)
  int reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) f();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us >= 60000.0 || reps >= 1 << 20) return us / reps;
    reps *= 4;
  }
}

struct CrossoverRow {
  std::string topology;
  int nodes = 0;
  int unknowns = 0;
  double dense_us = 0.0;
  double sparse_us = 0.0;
  std::size_t factor_nnz = 0;
};

std::vector<CrossoverRow> run_crossover_study() {
  std::vector<CrossoverRow> rows;
  const int sizes[] = {16, 32, 48, 64, 100, 200, 500, 1000};
  for (auto topology : {spice::SyntheticTopology::kDiodeLadder,
                        spice::SyntheticTopology::kMesh}) {
    for (int nodes : sizes) {
      StampedSystem sys = make_system(topology, nodes);
      const auto un = static_cast<std::size_t>(sys.unknowns);
      linalg::Vector x(un);

      linalg::LuFactorization dlu;
      DiagonalFlip dense_flip(sys);
      const double dense_us = time_us([&] {
        dense_flip(sys.dense);
        dlu.refactor(sys.dense);
        x = sys.rhs;
        dlu.solve_in_place(x);
      });
      linalg::SparseLuFactorization slu;
      DiagonalFlip sparse_flip(sys);
      const double sparse_us = time_us([&] {
        sparse_flip(sys.sparse);
        slu.refactor(sys.sparse);
        x = sys.rhs;
        slu.solve_in_place(x);
      });

      CrossoverRow row;
      row.topology = spice::topology_name(topology);
      row.nodes = nodes;
      row.unknowns = sys.unknowns;
      row.dense_us = dense_us;
      row.sparse_us = sparse_us;
      row.factor_nnz = slu.factor_nonzeros();
      rows.push_back(row);
    }
  }
  return rows;
}

// ------------------------------------------------ ordering A/B (stage 2) --

// Interleaved legacy/AMD steady refactor+solve pairs per ordering row;
// the gate reads the median of the per-pair AMD/legacy ratios. The timed
// kernel is serial: one thread.
constexpr int kOrderingPairs = 9;
constexpr double kOrderingSteadyGate = 1.25;

struct OrderingRow {
  std::string topology;
  int nodes = 0;
  int unknowns = 0;
  double legacy_analysis_us = 0.0;
  double amd_analysis_us = 0.0;
  double legacy_steady_us = 0.0;  ///< median over the pairs
  double amd_steady_us = 0.0;     ///< median over the pairs
  double steady_ratio = 0.0;      ///< median AMD/legacy ratio (gated)
  double steady_ratio_min = 0.0;
  double steady_ratio_max = 0.0;
  std::size_t legacy_nnz = 0;
  std::size_t amd_nnz = 0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One ordering on one stamped system: its factorisation (analysis cached
/// after the first refactor) and its own diagonal flip.
struct OrderingUnderTest {
  OrderingUnderTest(const StampedSystem& sys, const linalg::SparseOptions& o)
      : flip(sys) {
    f.set_options(o);
  }
  linalg::SparseLuFactorization f;
  DiagonalFlip flip;
};

double steady_us(StampedSystem& sys, OrderingUnderTest& o) {
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  return time_us([&] {
    o.flip(sys.sparse);
    o.f.refactor(sys.sparse);
    x = sys.rhs;
    o.f.solve_in_place(x);
  });
}

/// Symbolic-analysis cost: a fresh analyze+refactor minus the steady
/// refactor, clamped at zero -- isolates the symbolic work.
double analysis_us(StampedSystem& sys, OrderingUnderTest& o,
                   double steady) {
  const double fresh_us = time_us([&] {
    o.f.invalidate_analysis();
    o.f.refactor(sys.sparse);
  });
  return std::max(0.0, fresh_us - steady);
}

std::vector<OrderingRow> run_ordering_study() {
  std::vector<OrderingRow> rows;
  for (auto topology : {spice::SyntheticTopology::kResistorLadder,
                        spice::SyntheticTopology::kMesh}) {
    OrderingRow row;
    row.topology = spice::topology_name(topology);
    row.nodes = 1000;
    StampedSystem sys = make_system(topology, row.nodes);
    row.unknowns = sys.unknowns;
    OrderingUnderTest legacy(sys, linalg::SparseOptions::legacy());
    OrderingUnderTest amd(sys, linalg::SparseOptions{});
    // Interleaved pairs, alternating which ordering runs first, so drift
    // in the machine's load lands on both alike.
    std::vector<double> legacy_us, amd_us, ratio;
    for (int pair = 0; pair < kOrderingPairs; ++pair) {
      double l = 0.0, a = 0.0;
      if (pair % 2 == 0) {
        l = steady_us(sys, legacy);
        a = steady_us(sys, amd);
      } else {
        a = steady_us(sys, amd);
        l = steady_us(sys, legacy);
      }
      legacy_us.push_back(l);
      amd_us.push_back(a);
      ratio.push_back(a / l);
    }
    row.legacy_steady_us = median_of(legacy_us);
    row.amd_steady_us = median_of(amd_us);
    row.steady_ratio = median_of(ratio);
    row.steady_ratio_min = *std::min_element(ratio.begin(), ratio.end());
    row.steady_ratio_max = *std::max_element(ratio.begin(), ratio.end());
    row.legacy_analysis_us = analysis_us(sys, legacy, row.legacy_steady_us);
    row.amd_analysis_us = analysis_us(sys, amd, row.amd_steady_us);
    row.legacy_nnz = legacy.f.factor_nonzeros();
    row.amd_nnz = amd.f.factor_nonzeros();
    rows.push_back(row);
  }
  return rows;
}

// ------------------------------------------------ stress gate (stage 3) --

bool stress_enabled() {
  const char* v = std::getenv("ICVBE_SPARSE_STRESS");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// The ordering alone on one pattern: flat amd_order vs the oracle.
struct OrderingRace {
  double flat_us = 0.0;    ///< median over kStressReps
  double oracle_us = 0.0;  ///< median over kStressReps, interleaved
  bool equal = true;       ///< the permutations were identical every time
};

struct StressReport {
  bool ran = false;
  int grid_unknowns = 0;
  double grid_legacy_analysis_us = 0.0;
  double grid_amd_analysis_us = 0.0;
  std::size_t grid_legacy_nnz = 0;
  std::size_t grid_amd_nnz = 0;
  OrderingRace grid_order;
  int tree_unknowns = 0;
  double tree_amd_analysis_us = 0.0;
  double tree_amd_steady_us = 0.0;
  std::size_t tree_amd_nnz = 0;
  OrderingRace tree_order;
};

/// Fresh analyses per stress timing; the median absorbs the +-25% swing
/// of one shot on a shared host.
constexpr int kStressReps = 5;
/// Flat AMD vs oracle ordering speedup required on the 1e5 clock tree.
constexpr double kFlatAmdGate = 4.0;

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// One fresh symbolic analysis: analyze+refactor from scratch, less a
/// steady refactor of the (flipped) same matrix.
double analysis_sample_us(linalg::SparseLuFactorization& f,
                          StampedSystem& sys, DiagonalFlip& flip) {
  auto t0 = Clock::now();
  f.invalidate_analysis();
  f.refactor(sys.sparse);
  const double fresh = elapsed_us(t0);
  flip(sys.sparse);
  t0 = Clock::now();
  f.refactor(sys.sparse);
  return std::max(0.0, fresh - elapsed_us(t0));
}

OrderingRace race_orderings(const linalg::SparseMatrix& m) {
  const auto& rp = m.row_ptr();
  const auto& ci = m.col_index();
  const std::size_t n = m.rows();
  OrderingRace race;
  std::vector<double> flat_us;
  std::vector<double> oracle_us;
  for (int r = 0; r < kStressReps; ++r) {
    auto t0 = Clock::now();
    const std::vector<int> flat = linalg::amd_order(rp, ci, n);
    flat_us.push_back(elapsed_us(t0));
    t0 = Clock::now();
    const std::vector<int> oracle = linalg::oracle::amd_order(rp, ci, n);
    oracle_us.push_back(elapsed_us(t0));
    race.equal = race.equal && flat == oracle;
  }
  race.flat_us = median_of(flat_us);
  race.oracle_us = median_of(oracle_us);
  return race;
}

StressReport run_stress_study() {
  StressReport rep;
  rep.ran = true;

  // 10k-node grid: legacy vs AMD analyses, interleaved.
  {
    StampedSystem sys = make_system(spice::SyntheticTopology::kGrid, 10000,
                                    /*with_dense=*/false);
    rep.grid_unknowns = sys.unknowns;
    linalg::SparseLuFactorization leg;
    leg.set_options(linalg::SparseOptions::legacy());
    linalg::SparseLuFactorization amd;
    DiagonalFlip flip(sys);
    std::vector<double> leg_us;
    std::vector<double> amd_us;
    for (int r = 0; r < kStressReps; ++r) {
      leg_us.push_back(analysis_sample_us(leg, sys, flip));
      amd_us.push_back(analysis_sample_us(amd, sys, flip));
    }
    rep.grid_legacy_analysis_us = median_of(leg_us);
    rep.grid_amd_analysis_us = std::max(1.0, median_of(amd_us));
    rep.grid_legacy_nnz = leg.factor_nonzeros();
    rep.grid_amd_nnz = amd.factor_nonzeros();
    rep.grid_order = race_orderings(sys.sparse);
  }

  // 1e5-node clock tree: AMD-only (legacy would take minutes); the tree
  // pattern has near-zero fill under a good ordering, so nnz is the
  // quality check here.
  {
    StampedSystem sys =
        make_system(spice::SyntheticTopology::kClockTree, 100000,
                    /*with_dense=*/false);
    rep.tree_unknowns = sys.unknowns;
    linalg::SparseLuFactorization amd;
    DiagonalFlip flip(sys);
    std::vector<double> analysis_us;
    for (int r = 0; r < kStressReps; ++r) {
      analysis_us.push_back(analysis_sample_us(amd, sys, flip));
    }
    rep.tree_amd_analysis_us = median_of(analysis_us);
    linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
    flip(sys.sparse);
    const auto t0 = Clock::now();
    amd.refactor(sys.sparse);
    x = sys.rhs;
    amd.solve_in_place(x);
    rep.tree_amd_steady_us = elapsed_us(t0);
    rep.tree_amd_nnz = amd.factor_nonzeros();
    rep.tree_order = race_orderings(sys.sparse);
  }
  return rep;
}

/// Smallest unknown count from which the sparse engine stays ahead. When
/// sparse wins every measured size (the usual outcome), this reports the
/// smallest size measured -- the true crossover is at or below it.
int crossover_unknowns(const std::vector<CrossoverRow>& rows) {
  int crossover = 0;
  int smallest = 0;
  for (const CrossoverRow& r : rows) {
    smallest = smallest == 0 ? r.unknowns : std::min(smallest, r.unknowns);
    if (r.sparse_us > r.dense_us) {
      crossover = std::max(crossover, r.unknowns + 1);
    }
  }
  return crossover == 0 ? smallest : crossover;
}

void write_json(const std::vector<CrossoverRow>& rows, int crossover,
                const std::vector<OrderingRow>& ordering,
                const StressReport& stress, const std::string& path) {
  std::ofstream os(path);
  os << "{\n"
     << "  \"bench\": \"bench_sparse_solve\",\n"
     << "  \"kernel\": \"MNA refactor+solve per Newton iteration\",\n"
     << "  \"measured_crossover_unknowns\": " << crossover << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CrossoverRow& r = rows[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"nodes\": "
       << r.nodes << ", \"unknowns\": " << r.unknowns
       << ", \"dense_us\": " << r.dense_us
       << ", \"sparse_us\": " << r.sparse_us
       << ", \"speedup\": " << (r.dense_us / r.sparse_us)
       << ", \"factor_nnz\": " << r.factor_nnz << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"ordering_rows\": [\n";
  for (std::size_t i = 0; i < ordering.size(); ++i) {
    const OrderingRow& r = ordering[i];
    os << "    {\"topology\": \"" << r.topology << "\", \"nodes\": "
       << r.nodes << ", \"unknowns\": " << r.unknowns
       << ", \"legacy_analysis_us\": " << r.legacy_analysis_us
       << ", \"amd_analysis_us\": " << r.amd_analysis_us
       << ", \"legacy_steady_us\": " << r.legacy_steady_us
       << ", \"amd_steady_us\": " << r.amd_steady_us
       << ", \"pairs\": " << kOrderingPairs << ", \"threads\": 1"
       << ", \"steady_ratio\": " << r.steady_ratio
       << ", \"steady_ratio_min\": " << r.steady_ratio_min
       << ", \"steady_ratio_max\": " << r.steady_ratio_max
       << ", \"legacy_factor_nnz\": " << r.legacy_nnz
       << ", \"amd_factor_nnz\": " << r.amd_nnz << "}"
       << (i + 1 < ordering.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (stress.ran) {
    os << ",\n  \"stress\": {\n"
       << "    \"grid_10k\": {\"unknowns\": " << stress.grid_unknowns
       << ", \"legacy_analysis_us\": " << stress.grid_legacy_analysis_us
       << ", \"amd_analysis_us\": " << stress.grid_amd_analysis_us
       << ", \"analysis_speedup\": "
       << (stress.grid_legacy_analysis_us / stress.grid_amd_analysis_us)
       << ", \"legacy_factor_nnz\": " << stress.grid_legacy_nnz
       << ", \"amd_factor_nnz\": " << stress.grid_amd_nnz
       << ", \"analysis_reps\": " << kStressReps << ", \"amd_order_us\": "
       << stress.grid_order.flat_us
       << ", \"oracle_order_us\": " << stress.grid_order.oracle_us
       << ", \"order_equal\": " << (stress.grid_order.equal ? "true" : "false")
       << "},\n"
       << "    \"clock_tree_100k\": {\"unknowns\": " << stress.tree_unknowns
       << ", \"amd_analysis_us\": " << stress.tree_amd_analysis_us
       << ", \"amd_refactor_solve_us\": " << stress.tree_amd_steady_us
       << ", \"amd_factor_nnz\": " << stress.tree_amd_nnz
       << ", \"analysis_reps\": " << kStressReps << ", \"amd_order_us\": "
       << stress.tree_order.flat_us
       << ", \"oracle_order_us\": " << stress.tree_order.oracle_us
       << ", \"order_speedup\": "
       << (stress.tree_order.oracle_us / stress.tree_order.flat_us)
       << ", \"order_equal\": " << (stress.tree_order.equal ? "true" : "false")
       << "}\n"
       << "  }";
  }
  os << "\n}\n";
}

/// Returns false if the PR acceptance gate (>= 3x at >= 500 nodes) is
/// missed, which fails the bench binary -- the sparse-stress CI job runs
/// it, so a kernel regression cannot slip through as a green build.
[[nodiscard]] bool report() {
  bench::banner(
      "Dense vs sparse refactor+solve on generated netlists (us/iteration)");
  const std::vector<CrossoverRow> rows = run_crossover_study();

  Table t({"topology", "nodes", "unknowns", "dense [us]", "sparse [us]",
           "speedup", "factor nnz"});
  for (const CrossoverRow& r : rows) {
    t.add_row({r.topology, std::to_string(r.nodes),
               std::to_string(r.unknowns), format_sig(r.dense_us, 4),
               format_sig(r.sparse_us, 4),
               format_sig(r.dense_us / r.sparse_us, 3),
               std::to_string(r.factor_nnz)});
  }
  bench::emit(t, "sparse_crossover.csv");

  const int crossover = crossover_unknowns(rows);
  std::printf(
      "\nmeasured crossover: sparse wins from <= %d unknowns on the "
      "refactor+solve kernel.\n",
      crossover);

  // Crossover gate: >= 3x on a >= 500-node netlist.
  bool gate_ok = true;
  for (const CrossoverRow& r : rows) {
    if (r.nodes >= 500 && r.dense_us < 3.0 * r.sparse_us) {
      std::printf("GATE FAILED: %s/%d speedup %.2fx below the 3x target\n",
                  r.topology.c_str(), r.nodes, r.dense_us / r.sparse_us);
      gate_ok = false;
    }
  }

  // Stage 2: ordering A/B. Gate: the AMD+BTF+supernode default must not
  // slow the steady refactor+solve path at existing sizes (1.25x slack on
  // the median ratio of interleaved pairs absorbs timer noise on shared
  // runners).
  bench::banner("Ordering A/B: legacy min-degree vs AMD+BTF+supernode");
  const std::vector<OrderingRow> ordering = run_ordering_study();
  Table ot({"topology", "unknowns", "legacy analysis [us]", "amd analysis [us]",
            "legacy steady [us]", "amd steady [us]", "amd/legacy steady",
            "legacy nnz", "amd nnz"});
  for (const OrderingRow& r : ordering) {
    ot.add_row({r.topology, std::to_string(r.unknowns),
                format_sig(r.legacy_analysis_us, 4),
                format_sig(r.amd_analysis_us, 4),
                format_sig(r.legacy_steady_us, 4),
                format_sig(r.amd_steady_us, 4), format_sig(r.steady_ratio, 3),
                std::to_string(r.legacy_nnz), std::to_string(r.amd_nnz)});
  }
  bench::emit(ot, "sparse_ordering.csv");
  for (const OrderingRow& r : ordering) {
    std::printf(
        "ordering %s/%d: AMD/legacy steady refactor+solve median %.2fx of "
        "%d interleaved pairs (range %.2f-%.2fx, gate <= %.2fx)\n",
        r.topology.c_str(), r.nodes, r.steady_ratio, kOrderingPairs,
        r.steady_ratio_min, r.steady_ratio_max, kOrderingSteadyGate);
    if (r.steady_ratio > kOrderingSteadyGate) {
      std::printf(
          "GATE FAILED: %s/%d AMD steady refactor+solve median %.2fx of "
          "legacy (> %.2fx)\n",
          r.topology.c_str(), r.nodes, r.steady_ratio, kOrderingSteadyGate);
      gate_ok = false;
    }
  }

  // Stage 3: the 10k/100k stress gate, opt-in (ICVBE_SPARSE_STRESS=1) --
  // the legacy ordering alone costs ~seconds at 10k nodes.
  StressReport stress;
  if (stress_enabled()) {
    bench::banner("Symbolic stress gate (ICVBE_SPARSE_STRESS=1)");
    stress = run_stress_study();
    const double speedup =
        stress.grid_legacy_analysis_us / stress.grid_amd_analysis_us;
    const double order_speedup =
        stress.tree_order.oracle_us / stress.tree_order.flat_us;
    std::printf(
        "grid 10k (%d unknowns): legacy analysis %.0f us, AMD analysis "
        "%.0f us -> %.1fx (gate >= 10x; medians of %d)\n"
        "  factor nnz: legacy %zu, AMD %zu\n"
        "  ordering alone: flat AMD %.0f us, oracle %.0f us, %s\n"
        "clock-tree 100k (%d unknowns): AMD analysis %.0f us, "
        "refactor+solve %.0f us, factor nnz %zu\n"
        "  ordering alone: flat AMD %.0f us, oracle %.0f us -> %.1fx "
        "(gate >= %.0fx), %s\n",
        stress.grid_unknowns, stress.grid_legacy_analysis_us,
        stress.grid_amd_analysis_us, speedup, kStressReps,
        stress.grid_legacy_nnz, stress.grid_amd_nnz,
        stress.grid_order.flat_us, stress.grid_order.oracle_us,
        stress.grid_order.equal ? "same permutation" : "PERMUTATIONS DIFFER",
        stress.tree_unknowns, stress.tree_amd_analysis_us,
        stress.tree_amd_steady_us, stress.tree_amd_nnz,
        stress.tree_order.flat_us, stress.tree_order.oracle_us,
        order_speedup, kFlatAmdGate,
        stress.tree_order.equal ? "same permutation" : "PERMUTATIONS DIFFER");
    if (speedup < 10.0) {
      std::printf(
          "GATE FAILED: AMD symbolic analysis only %.1fx faster than legacy "
          "at the 10k grid (>= 10x required)\n",
          speedup);
      gate_ok = false;
    }
    if (!stress.grid_order.equal || !stress.tree_order.equal) {
      std::printf(
          "GATE FAILED: flat AMD permutation differs from the oracle's\n");
      gate_ok = false;
    }
    if (order_speedup < kFlatAmdGate) {
      std::printf(
          "GATE FAILED: flat AMD only %.1fx faster than the oracle on the "
          "1e5 clock tree (>= %.0fx required)\n",
          order_speedup, kFlatAmdGate);
      gate_ok = false;
    }
  } else {
    std::printf(
        "\n[stress] skipped (set ICVBE_SPARSE_STRESS=1 for the 10k-grid "
        "analysis gate and the 1e5 clock-tree row)\n");
  }

  const std::string json_path = bench::results_dir() + "/BENCH_sparse.json";
  write_json(rows, crossover, ordering, stress, json_path);
  std::printf("[json] %s\n", json_path.c_str());
  return gate_ok;
}

// ------------------------------------------- registered microbenchmarks --

void BM_DenseRefactorSolve(benchmark::State& state) {
  StampedSystem sys = make_system(spice::SyntheticTopology::kMesh,
                                  static_cast<int>(state.range(0)));
  linalg::LuFactorization lu;
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  DiagonalFlip flip(sys);
  lu.refactor(sys.dense);
  for (auto _ : state) {
    flip(sys.dense);
    lu.refactor(sys.dense);
    x = sys.rhs;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseRefactorSolve)->Arg(100)->Arg(500);

void BM_SparseRefactorSolve(benchmark::State& state) {
  StampedSystem sys = make_system(spice::SyntheticTopology::kMesh,
                                  static_cast<int>(state.range(0)));
  linalg::SparseLuFactorization lu;
  linalg::Vector x(static_cast<std::size_t>(sys.unknowns));
  DiagonalFlip flip(sys);
  lu.refactor(sys.sparse);
  for (auto _ : state) {
    flip(sys.sparse);
    lu.refactor(sys.sparse);
    x = sys.rhs;
    lu.solve_in_place(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseRefactorSolve)->Arg(100)->Arg(500)->Arg(1000);

void BM_SparseSessionDcSolve(benchmark::State& state) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kMesh;
  spec.nodes = static_cast<int>(state.range(0));
  auto parsed = spice::parse_netlist(spice::generate_netlist(spec));
  spice::SimSession session(*parsed.circuit);
  auto& v1 = parsed.circuit->get<spice::VoltageSource>("V1");
  (void)session.solve_or_throw();
  double dv = 0.0;
  for (auto _ : state) {
    v1.set_voltage(5.0 + 0.01 * (dv = 0.01 - dv));  // nudge, stay warm
    const spice::DcResult& r = session.solve();
    benchmark::DoNotOptimize(r.converged);
  }
}
BENCHMARK(BM_SparseSessionDcSolve)->Arg(500)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  const bool gate_ok = report();
  const int rc = bench::run_benchmarks(argc, argv);
  return gate_ok ? rc : 1;
}
