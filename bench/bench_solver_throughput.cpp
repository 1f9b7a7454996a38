// SimSession solver throughput: the per-solve cost of the legacy
// free-function path (fresh circuit + fresh solver workspace per point,
// the idiom the lab drivers used before the session refactor) against one
// persistent SimSession (workspace reuse + warm-start continuation) on a
// 100-point temperature sweep of the Banba sub-1-V test cell, plus
// bm_session_solve's one-cell loop (0.1 K steps). Each path runs once per
// repetition, interleaved; the table prints the median time per solve and
// its quartiles over 9 repetitions to 0.01 us, and the speedup is the
// median of the 9 legacy/session pair ratios.
//
// This binary links the icvbe_alloc_hook counting operator new/delete, so
// it also reports allocations per solve: the session path must be
// allocation-free in steady state.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "icvbe/bandgap/banba_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/lab/silicon.hpp"
#include "icvbe/spice/analysis.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/testing/alloc_hook.hpp"

namespace {

using namespace icvbe;
using Clock = std::chrono::steady_clock;

constexpr int kPoints = 100;

bandgap::BanbaCellParams nominal_banba() {
  const lab::SiliconLot lot;
  bandgap::BanbaCellParams p;
  p.qa_model = lot.truth().pnp;
  p.qb_model = lot.truth().pnp;
  p.pmos = bandgap::banba_default_pmos();
  return p;
}

std::vector<double> sweep_grid() {
  return spice::linspace(to_kelvin(-55.0), to_kelvin(125.0), kPoints);
}

/// Legacy idiom: every point rebuilds the cell and solves with a one-shot
/// workspace (what lab::Laboratory did per chamber setting before the
/// session refactor).
std::vector<double> run_legacy(const bandgap::BanbaCellParams& p,
                               const std::vector<double>& temps) {
  std::vector<double> vref;
  vref.reserve(temps.size());
  for (double t : temps) {
    spice::Circuit c;
    const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
    vref.push_back(bandgap::solve_banba_at(c, h, p, t).vref);
  }
  return vref;
}

/// Session path: one circuit, one workspace, warm-started points. `vref`
/// is preallocated by the caller so the timed region stays heap-silent.
/// `reverse` sweeps the grid top-down -- repetitions alternate direction
/// (boustrophedon) so every point warm-starts from an adjacent one, as a
/// real chamber campaign would.
void run_session(const bandgap::BanbaCellParams& p,
                 const std::vector<double>& temps,
                 const bandgap::BanbaHandles& h, spice::SimSession& session,
                 std::vector<double>& vref, bool reverse) {
  vref.clear();
  const std::size_t n = temps.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = temps[reverse ? n - 1 - i : i];
    vref.push_back(bandgap::solve_banba_at(session, h, p, t).vref);
  }
  if (reverse) std::reverse(vref.begin(), vref.end());
}

/// Median and quartiles of a sample (linear interpolation between order
/// statistics).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

double elapsed_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

void reproduce_throughput() {
  bench::banner(
      "Solver throughput: legacy per-solve path vs persistent SimSession "
      "(100-point temperature sweep, Banba sub-1-V cell)");

  const auto p = nominal_banba();
  const auto temps = sweep_grid();
  // Interleaved repetitions: each runs every path once (the path order
  // rotates), so a slow spell of a shared host lands on all of them; the
  // report is the median and quartiles per path.
  constexpr int kReps = 9;

  // Session paths are built and warmed once, like a real campaign.
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::SimSession session(c, opt);
  (void)bandgap::solve_banba_at(session, h, p, temps.front());  // warm-up
  // bm_session_solve's loop: one cell, 0.1 K apart from the last point.
  spice::Circuit c1;
  const bandgap::BanbaHandles h1 = bandgap::build_banba_cell(c1, p);
  spice::SimSession step_session(c1, opt);
  double t_step = to_kelvin(25.0);
  (void)bandgap::solve_banba_at(step_session, h1, p, t_step);  // warm-up

  std::vector<double> vref_legacy;
  std::vector<double> vref_session;
  vref_session.reserve(temps.size());
  std::vector<double> legacy_us;
  std::vector<double> session_us;
  std::vector<double> step_us;
  std::vector<double> ratio;
  for (auto* v : {&legacy_us, &session_us, &step_us, &ratio}) v->reserve(kReps);
  std::uint64_t legacy_allocs = 0;
  std::uint64_t session_allocs = 0;
  std::uint64_t step_allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t a0 = testing::allocation_count();
      const auto t0 = Clock::now();
      switch ((rep + k) % 3) {
        case 0:
          vref_legacy = run_legacy(p, temps);
          legacy_us.push_back(elapsed_us(t0) / kPoints);
          legacy_allocs += testing::allocation_count() - a0;
          break;
        case 1:
          run_session(p, temps, h, session, vref_session, rep % 2 != 0);
          session_us.push_back(elapsed_us(t0) / kPoints);
          session_allocs += testing::allocation_count() - a0;
          break;
        default:
          for (int i = 0; i < kPoints; ++i) {
            benchmark::DoNotOptimize(
                bandgap::solve_banba_at(step_session, h1, p, t_step));
            t_step += 0.1;
          }
          step_us.push_back(elapsed_us(t0) / kPoints);
          step_allocs += testing::allocation_count() - a0;
          break;
      }
    }
    ratio.push_back(legacy_us.back() / session_us.back());
  }

  // --- agreement ---
  double max_dv = 0.0;
  for (int i = 0; i < kPoints; ++i) {
    max_dv = std::max(max_dv, std::abs(vref_legacy[static_cast<std::size_t>(
                                           i)] -
                                       vref_session[static_cast<std::size_t>(
                                           i)]));
  }

  const int total_solves = kReps * kPoints;
  Table t({"path", "time/solve [us]", "q1 [us]", "q3 [us]", "solves/sec",
           "allocs/solve"});
  const auto row = [&](const char* path, const std::vector<double>& us,
                       double allocs_per_solve) {
    const Spread s = spread_of(us);
    t.add_row({path, format_fixed(s.median, 2), format_fixed(s.q1, 2),
               format_fixed(s.q3, 2), format_fixed(1e6 / s.median, 0),
               format_fixed(allocs_per_solve, 1)});
  };
  row("legacy free functions", legacy_us,
      static_cast<double>(legacy_allocs) / total_solves);
  row("SimSession (reused)", session_us,
      static_cast<double>(session_allocs) / total_solves);
  row("bm_session_solve loop", step_us,
      static_cast<double>(step_allocs) / total_solves);
  bench::emit(t, "solver_throughput.csv");

  const Spread speedup = spread_of(ratio);
  std::cout << "speedup (median of " << kReps
            << " interleaved pairs): " << format_fixed(speedup.median, 2)
            << "x [" << format_fixed(speedup.q1, 2) << ", "
            << format_fixed(speedup.q3, 2)
            << "]   max |dVREF| between paths: " << max_dv << " V\n";
  std::cout << "session steady-state allocations over " << 2 * total_solves
            << " solves: " << session_allocs + step_allocs << "\n";
}

void bm_legacy_solve(benchmark::State& state) {
  const auto p = nominal_banba();
  double t = to_kelvin(25.0);
  for (auto _ : state) {
    spice::Circuit c;
    const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
    benchmark::DoNotOptimize(bandgap::solve_banba_at(c, h, p, t));
    t += 0.1;
  }
}
BENCHMARK(bm_legacy_solve)->Unit(benchmark::kMicrosecond);

void bm_plan_run_sweep(benchmark::State& state) {
  // Declarative path: the same 100-point temperature sweep expressed as an
  // AnalysisPlan and executed via SimSession::run (typed axis, compiled
  // probe, allocation-free per point). Apples-to-apples with
  // bm_session_solve x 100.
  const auto p = nominal_banba();
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  const auto temps = sweep_grid();
  (void)bandgap::solve_banba_at(session, h, p, temps.front());  // warm-up

  // Alternate sweep direction per repetition (boustrophedon, like
  // run_session): every point -- including the first of each run --
  // warm-starts from an adjacent temperature.
  spice::AnalysisPlan up;
  up.name = "banba_vref_sweep";
  up.options = opt;
  up.axes = {spice::SweepAxis::temperature_kelvin(spice::SweepGrid::list(
      temps))};
  up.probes = {spice::Probe::node_voltage(c.node_name(h.vref))};
  spice::AnalysisPlan down = up;
  down.axes = {spice::SweepAxis::temperature_kelvin(spice::SweepGrid::list(
      {temps.rbegin(), temps.rend()}))};

  bool reverse = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(reverse ? down : up));
    reverse = !reverse;
  }
  state.SetItemsProcessed(state.iterations() * kPoints);
}
BENCHMARK(bm_plan_run_sweep)->Unit(benchmark::kMillisecond);

void bm_session_solve(benchmark::State& state) {
  const auto p = nominal_banba();
  spice::Circuit c;
  const bandgap::BanbaHandles h = bandgap::build_banba_cell(c, p);
  spice::NewtonOptions opt;
  opt.max_iterations = 400;
  spice::SimSession session(c, opt);
  (void)bandgap::solve_banba_at(session, h, p, to_kelvin(25.0));
  double t = to_kelvin(25.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bandgap::solve_banba_at(session, h, p, t));
    t += 0.1;
  }
}
BENCHMARK(bm_session_solve)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_throughput();
  return icvbe::bench::run_benchmarks(argc, argv);
}
