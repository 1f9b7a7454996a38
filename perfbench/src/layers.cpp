// Deck helpers shared by the workloads, and the per-layer replays of the
// traced run. Every replay goes through the program's public calls; no
// instrumentation lives inside the library.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numbers>
#include <sstream>

#include "bench.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/transient.hpp"

namespace perfbench {

namespace spice = icvbe::spice;
namespace lab = icvbe::lab;
namespace linalg = icvbe::linalg;
namespace extract = icvbe::extract;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

spice::Unknowns guess_from_nodesets(spice::Circuit& c,
                                    const spice::ParsedNetlist& deck) {
  const int n = c.assign_unknowns();
  spice::Unknowns guess(static_cast<std::size_t>(n));
  for (const auto& [node, value] : deck.nodesets) {
    const spice::NodeId id = c.node(node);
    if (id != spice::kGround) {
      guess.raw()[static_cast<std::size_t>(id - 1)] = value;
    }
  }
  return guess;
}

PreparedDeck::PreparedDeck(const std::string& text,
                           const std::string& resistor, double ohms)
    : parsed(spice::parse_netlist(text)) {
  spice::Circuit& c = *parsed.circuit;
  c.set_temperature(icvbe::to_kelvin(parsed.temperature_celsius));
  guess = guess_from_nodesets(c, parsed);
  if (!resistor.empty()) patch(resistor, ohms);
}

void PreparedDeck::patch(const std::string& resistor, double ohms) {
  // What the server's PATCH does: re-program the nominal value and
  // re-apply the circuit temperature (tempco).
  spice::Circuit& c = *parsed.circuit;
  auto& r = c.get<spice::Resistor>(resistor);
  r.set_nominal_resistance(ohms);
  if (c.has_temperature()) r.set_temperature(c.temperature());
}

void PreparedDeck::reset_for_run(spice::SimSession& session) const {
  for (const auto& dev : session.circuit().devices()) dev->reset_state();
  session.invalidate_warm_start();
  if (!parsed.nodesets.empty()) session.seed_warm_start(guess);
}

spice::AnalysisPlan PreparedDeck::plan(spice::AnalysisKind kind) const {
  const spice::AnalysisPlan* p = parsed.find_plan(kind);
  if (p == nullptr) throw std::runtime_error("deck lacks a requested plan");
  spice::AnalysisPlan out = *p;
  out.threads = 1;
  return out;
}

Rows rows_of(const spice::SweepResult& res) {
  Rows rows(res.rows());
  for (std::size_t r = 0; r < res.rows(); ++r) {
    for (std::size_t a = 0; a < res.axis_count(); ++a) {
      rows[r].push_back(res.axis_value(a, r));
    }
    for (std::size_t p = 0; p < res.probe_count(); ++p) {
      rows[r].push_back(res.value(p, r));
    }
  }
  return rows;
}

Rows inprocess_rows(const std::string& deck, const std::string& resistor,
                    double ohms, spice::AnalysisKind kind) {
  PreparedDeck d(deck, resistor, ohms);
  spice::SimSession session(*d.parsed.circuit);
  d.reset_for_run(session);
  return rows_of(session.run(d.plan(kind)));
}

std::vector<Rows> warm_session_rows(const std::string& deck,
                                    const std::string& resistor, double ohms,
                                    const std::vector<std::string>& kinds) {
  PreparedDeck d(deck, "", 0.0);
  spice::SimSession session(*d.parsed.circuit);
  std::vector<Rows> out;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) d.patch(resistor, ohms);
    for (const std::string& kind : kinds) {
      d.reset_for_run(session);
      Rows rows = rows_of(
          session.run(d.plan(spice::analysis_kind_from_token(kind))));
      if (round == 1) out.push_back(std::move(rows));
    }
  }
  return out;
}

namespace {

/// Repeat `f` at least `min_reps` times and until `budget_s` has passed
/// (at most 200 times); returns each repetition's milliseconds.
template <typename F>
std::vector<double> repeat_ms(F&& f, int min_reps, double budget_s) {
  std::vector<double> out;
  const double start = now_s();
  while (static_cast<int>(out.size()) < min_reps ||
         (now_s() - start < budget_s && out.size() < 200)) {
    const double t0 = now_s();
    f();
    out.push_back(ms_since(t0));
  }
  return out;
}

}  // namespace

double inprocess_warm_run_ms(const std::string& deck,
                             const std::string& resistor, double ohms,
                             const std::vector<std::string>& kinds) {
  PreparedDeck d(deck, resistor, ohms);
  spice::SimSession session(*d.parsed.circuit);
  double total = 0.0;
  for (const std::string& kind : kinds) {
    const spice::AnalysisPlan plan =
        d.plan(spice::analysis_kind_from_token(kind));
    d.reset_for_run(session);
    (void)session.run(plan);  // cold: pattern and analyses settle
    total += median(repeat_ms(
        [&] {
          d.reset_for_run(session);
          (void)session.run(plan);
        },
        3, 0.3));
  }
  return total;
}

void layers_deck(const std::string& deck, const std::string& patch_name,
                 double patch_value, Result& result) {
  auto& L = result.layers;
  std::vector<spice::AnalysisKind> kinds;
  {
    const PreparedDeck probe(deck, "", 0.0);
    for (const auto& p : probe.parsed.plans) kinds.push_back(spice::analysis_kind(p));
  }

  // Parse and bind (the constructor: unknowns, workspace, pattern).
  L["netlist.parse_ms"] = median(repeat_ms(
      [&] { (void)spice::parse_netlist(deck); }, 3, 0.5));
  {
    std::vector<double> bind_ms;
    for (int rep = 0; rep < 3; ++rep) {
      PreparedDeck d(deck, patch_name, patch_value);
      const double t0 = now_s();
      const spice::SimSession session(*d.parsed.circuit);
      bind_ms.push_back(ms_since(t0));
    }
    L["session.bind_ms"] = median(bind_ms);
  }

  // First and second in-process run of the same plans on one session.
  spice::SweepResult emitted;
  {
    PreparedDeck d(deck, patch_name, patch_value);
    spice::SimSession session(*d.parsed.circuit);
    double cold = 0.0;
    double warm = 0.0;
    for (spice::AnalysisKind kind : kinds) {
      const spice::AnalysisPlan plan = d.plan(kind);
      d.reset_for_run(session);
      double t0 = now_s();
      spice::SweepResult res = session.run(plan);
      cold += ms_since(t0);
      d.reset_for_run(session);
      t0 = now_s();
      res = session.run(plan);
      warm += ms_since(t0);
      if (kind == kinds.front()) emitted = std::move(res);
    }
    L["session.run_cold_ms"] = cold;
    L["session.run_warm_ms"] = warm;
  }
  L["plan.emit_ms"] = median(repeat_ms(
      [&] {
        std::ostringstream csv;
        emitted.write_csv(csv);
      },
      3, 0.2));

  // Newton, replayed point by point: the DC sweep's source values (or the
  // operating point alone for a deck without a DC sweep).
  PreparedDeck d(deck, patch_name, patch_value);
  spice::Circuit& c = *d.parsed.circuit;
  spice::SimSession session(c);
  d.reset_for_run(session);
  std::vector<double> points{0.0};
  spice::VoltageSource* swept = nullptr;
  if (const auto* dc = d.parsed.find_plan(spice::AnalysisKind::kDcSweep);
      dc != nullptr && dc->axes.size() == 1 &&
      dc->axes[0].kind() == spice::SweepAxis::Kind::kVsource) {
    swept = &c.get<spice::VoltageSource>(dc->axes[0].device());
    points = dc->axes[0].grid().points();
  }
  long iterations = 0;
  long plain = 0;
  spice::Unknowns x;
  for (double v : points) {
    if (swept != nullptr) swept->set_voltage(v);
    const spice::DcResult& r = session.solve();
    if (!r.converged) throw std::runtime_error("Newton replay diverged");
    iterations += r.iterations;
    if (r.strategy == "newton") ++plain;
    x = r.solution;
  }
  const auto n_points = static_cast<double>(points.size());
  L["newton.iters_per_point"] = static_cast<double>(iterations) / n_points;
  L["newton.plain_share"] = static_cast<double>(plain) / n_points;

  // One stamped system at the last operating point, replayed through the
  // public sparse calls: analysis, refactor, solve, and the stamp pass.
  {
    const int n = c.assign_unknowns();
    const int node_unknowns = c.node_count() - 1;
    const double gmin = session.options().gmin_floor;
    linalg::SparseMatrix a(static_cast<std::size_t>(n),
                           static_cast<std::size_t>(n));
    linalg::Vector b(static_cast<std::size_t>(n));
    const auto stamp = [&] {
      spice::Stamper st(a, b, node_unknowns);
      for (const auto& dev : c.devices()) dev->stamp(st, x);
      for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, gmin);
    };
    stamp();
    a.freeze_pattern();
    linalg::SparseLuFactorization lu;
    lu.set_options(session.options().sparse_options);
    const auto restamp = [&] {
      a.fill(0.0);
      std::fill(b.begin(), b.end(), 0.0);
      stamp();
    };
    restamp();
    double t0 = now_s();
    lu.refactor(a);
    L["linalg.analyze_ms"] = ms_since(t0);
    L["devices.stamp_ms"] = median(repeat_ms(restamp, 3, 0.3));
    L["linalg.refactor_ms"] =
        median(repeat_ms([&] { lu.refactor(a); }, 3, 0.3));
    linalg::Vector rhs = b;
    L["linalg.solve_ms"] = median(repeat_ms(
        [&] {
          rhs = b;
          lu.solve_in_place(rhs);
        },
        3, 0.3));
    L["linalg.factor_nnz"] = static_cast<double>(lu.factor_nonzeros());
    L["linalg.btf_blocks"] = static_cast<double>(lu.btf_block_count());
    L["linalg.supernode_size"] = static_cast<double>(lu.supernode_size());
    L["linalg.analyses"] = lu.analysis_count();
    L["linalg.unknowns"] = n;
  }

  // Small-signal points through SimSession::solve_ac.
  if (const auto* ac = d.parsed.find_plan(spice::AnalysisKind::kAc)) {
    d.reset_for_run(session);
    (void)session.solve_or_throw();
    std::vector<double> us;
    for (double f : ac->ac->frequencies()) {
      const double t0 = now_s();
      (void)session.solve_ac(2.0 * std::numbers::pi * f);
      us.push_back(ms_since(t0) * 1e3);
    }
    L["ac.point_us"] = median(us);
  }

  // The transient solver and its public counters.
  if (const auto* tran = d.parsed.find_plan(spice::AnalysisKind::kTransient)) {
    d.reset_for_run(session);
    spice::TransientSolver solver(session, *tran->transient);
    const double t0 = now_s();
    (void)solver.run(tran->probes);
    L["tran.run_ms"] = ms_since(t0);
    L["tran.steps_accepted"] = static_cast<double>(solver.steps_accepted());
    L["tran.steps_rejected"] = static_cast<double>(solver.steps_rejected());
    L["tran.newton_iters"] = static_cast<double>(solver.newton_iterations());
  }
}

void layers_lot(const Options& opt, Result& result) {
  auto& L = result.layers;
  const lab::SiliconLot lot = seeded_lot(opt.seed);
  constexpr int kDies = 8;

  // The lab and extraction calls of one die, as run_die makes them.
  const lab::LotCampaignConfig cfg = lot_config(opt.seed, 1, kDies, 1, 0);
  std::vector<double> vbe_t, classical, sweep, meijer_us, per_die;
  const lab::LotCampaign reference(lot, cfg);
  for (int offset = 0; offset < kDies; ++offset) {
    const int index = cfg.first_index + offset;
    lab::CampaignConfig lab_cfg = cfg.lab;
    lab_cfg.seed = cfg.seed_base + static_cast<std::uint64_t>(index);
    lab::Laboratory laboratory(lot.sample(index), lab_cfg);
    double t0 = now_s();
    const auto pts =
        laboratory.vbe_vs_temperature(cfg.classical_ic, cfg.classical_celsius);
    vbe_t.push_back(ms_since(t0));
    extract::BestFitOptions fit;
    fit.t0 = icvbe::to_kelvin(25.0);
    t0 = now_s();
    (void)extract::best_fit_eg_xti(extract::samples_from_lab(pts), fit);
    classical.push_back(ms_since(t0));
    t0 = now_s();
    const auto cell = laboratory.test_cell_sweep(cfg.cell_celsius);
    sweep.push_back(ms_since(t0));
    t0 = now_s();
    (void)extract::meijer_from_cell(cell, cfg.cell_celsius[0],
                                    cfg.cell_celsius[1], cfg.cell_celsius[2]);
    meijer_us.push_back(ms_since(t0) * 1e3);
    t0 = now_s();
    (void)reference.run_die(offset);
    per_die.push_back(ms_since(t0));
  }
  L["lab.vbe_t_ms"] = median(vbe_t);
  L["extract.classical_ms"] = median(classical);
  L["lab.cell_sweep_ms"] = median(sweep);
  L["extract.meijer_us"] = median(meijer_us);
  L["lot.die_ms.per_die"] = median(per_die);

  const lab::LotCampaign batched(lot, lot_config(opt.seed, 1, kDies, 1, 8));
  L["lot.die_ms.batched"] =
      median(repeat_ms([&] { (void)batched.run_batched(); }, 3, 0.0)) / kDies;
  L["lot.batch_gain"] = L["lot.die_ms.per_die"] / L["lot.die_ms.batched"];

  // common::thread_pool: the same 32 dies on one and on two workers.
  const lab::LotCampaign one(lot, lot_config(opt.seed, 1, 32, 1, 8));
  const lab::LotCampaign two(lot, lot_config(opt.seed, 1, 32, 2, 8));
  const double t1 = median(repeat_ms([&] { (void)one.run(); }, 3, 0.0));
  const double t2 = median(repeat_ms([&] { (void)two.run(); }, 3, 0.0));
  L["lot.parallel_eff"] = t1 / (2.0 * t2);

  // The lot's throughput and EG/XTI error over these 32 dies. The lot
  // workload reports its own figures instead (run.py).
  L["lot.dies_per_s"] = 32.0 / (t2 * 1e-3);
  double eg = 0.0;
  double xti = 0.0;
  int ok = 0;
  for (const auto& d : two.run()) {
    if (!d.ok) continue;
    eg += d.eg_meijer;
    xti += d.xti_meijer;
    ++ok;
  }
  if (ok == 0) throw std::runtime_error("lot replay: every die failed");
  L["lot.eg_err_mev"] = std::abs(eg / ok - lot.true_eg()) * 1e3;
  L["lot.xti_err"] = std::abs(xti / ok - lot.true_xti());
}

}  // namespace perfbench
