// The three workloads. Each one builds its inputs from the seed, sets up
// (several times; run.py reports the median), runs its timed closed loop,
// and checks the program's outputs after the clock has stopped.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/server/client.hpp"
#include "icvbe/server/sim_server.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/netlist_gen.hpp"

namespace perfbench {

namespace spice = icvbe::spice;
namespace lab = icvbe::lab;
namespace server = icvbe::server;

namespace {

/// Uniform double in [0, 1) from a 64-bit generator (the standard
/// distributions are implementation-defined; this is not).
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Rows of equal shape whose values agree to `rel` of the largest
/// magnitude in their column of `want`.
bool near_rows(const Rows& want, const Rows& got, double rel) {
  if (want.size() != got.size()) return false;
  for (std::size_t k = 0; !want.empty() && k < want[0].size(); ++k) {
    double scale = 0.0;
    for (const auto& row : want) {
      if (row.size() != want[0].size()) return false;
      scale = std::max(scale, std::abs(row[k]));
    }
    for (std::size_t r = 0; r < want.size(); ++r) {
      if (got[r].size() != want[r].size() ||
          !(std::abs(got[r][k] - want[r][k]) <= rel * scale)) {
        return false;
      }
    }
  }
  return true;
}

bool same_rows(const Rows& a, const Rows& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (std::size_t k = 0; k < a[r].size(); ++k) {
      if (!same_bits(a[r][k], b[r][k])) return false;
    }
  }
  return true;
}

/// Run `body(c)` for every client c < n, client 0 on the calling thread.
template <typename F>
void run_clients(int n, F&& body) {
  std::vector<std::thread> threads;
  for (int c = 1; c < n; ++c) threads.emplace_back(body, c);
  body(0);
  for (auto& t : threads) t.join();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out.good()) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------ lot_eg_xti --

// 4 workers x 8 lanes x 32 batches. With 256 dies an iteration lasted
// ~7 ms, and a core the host stalled held up the iteration's end while
// the other workers idled: across ten seeds `iters_per_s` spread 0.27,
// against 0.12 for the median iteration.
constexpr int kLotDiesPerIter = 1024;
constexpr int kLotQualityIters = 1;  // EG/XTI error over the first 1024 dies
// All four cores: with two busy threads of four, the lot's median moved
// by up to 23% between seeds, following the host's spare clock speed.
constexpr unsigned kLotThreads = 4;
constexpr unsigned kLotLanes = 8;

}  // namespace

lab::SiliconLot seeded_lot(std::uint64_t seed) {
  return lab::SiliconLot(lab::ProcessTruth::nominal(), 20020316u + seed);
}

lab::LotCampaignConfig lot_config(std::uint64_t seed, int first_index,
                                  int samples, unsigned threads,
                                  unsigned lanes) {
  lab::LotCampaignConfig cfg;
  cfg.samples = samples;
  cfg.first_index = first_index;
  cfg.threads = threads;
  cfg.lanes = lanes;
  cfg.seed_base = 9000 + seed * 1000003u;
  // As `icvbe lot --lanes=K` does: the batch engine is sparse, and the
  // per-die reference path is forced onto the same engine.
  cfg.lab.newton.sparse = spice::SparseMode::kSparse;
  return cfg;
}

void run_lot(const Options& opt, Tracer& tracer, Result& result) {
  result.config = {{"threads", kLotThreads},
                   {"lanes", kLotLanes},
                   {"dies_per_iter", kLotDiesPerIter},
                   {"clients", 1},
                   {"workers", 0}};

  // Set-up is the time to the first characterised iteration: lot and
  // campaign construction plus the cold run() of one iteration's dies
  // (threads, rigs, pattern discovery and symbolic analysis). The cold
  // run() of only one 8-lane batch per worker took ~1 ms, and in some
  // runs every repetition took ~4 ms instead: a median that flips
  // between the two.
  for (int rep = 0; rep < 11; ++rep) {
    const double t0 = now_s();
    const lab::SiliconLot lot = seeded_lot(opt.seed);
    const lab::LotCampaign campaign(
        lot, lot_config(opt.seed, 1, kLotDiesPerIter, kLotThreads,
                        kLotLanes));
    (void)campaign.run();
    result.setup_s.push_back(now_s() - t0);
  }

  const lab::SiliconLot lot = seeded_lot(opt.seed);
  std::vector<double> eg;
  std::vector<double> xti;
  std::vector<lab::DieCharacterisation> sample;
  const LoopClock clock{now_s(), opt.seconds};
  int iter = 0;
  for (; clock.running() || iter < kLotQualityIters; ++iter) {
    const int first = 1 + iter * kLotDiesPerIter;
    const double t0 = now_s();
    std::vector<lab::DieCharacterisation> dies;
    {
      ScopedSpan op(tracer, "bench.op", iter);
      const lab::LotCampaign campaign(
          lot, lot_config(opt.seed, first, kLotDiesPerIter, kLotThreads,
                          kLotLanes));
      ScopedSpan span(tracer, "lot.run", iter);
      dies = campaign.run();
    }
    const double ms = ms_since(t0);
    const lab::LotSummary s = lab::LotCampaign::summarise(dies);
    result.attempted += static_cast<long>(dies.size());
    result.failed += s.dies_failed;
    if (s.dies_failed == 0 &&
        dies.size() == static_cast<std::size_t>(kLotDiesPerIter)) {
      result.iter_ms.push_back(ms);
    } else {
      ++result.iters_failed;
    }
    if (iter < kLotQualityIters) {
      for (const auto& d : dies) {
        if (!d.ok) continue;
        eg.push_back(d.eg_meijer);
        xti.push_back(d.xti_meijer);
      }
    }
    if (iter == 0) sample = dies;
  }
  result.elapsed_s = now_s() - clock.start_s;

  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  result.quality["eg_err_mev"] = std::abs(mean(eg) - lot.true_eg()) * 1e3;
  result.quality["xti_err"] = std::abs(mean(xti) - lot.true_xti());
  result.quality["eg_mean_ev"] = mean(eg);
  result.quality["xti_mean"] = mean(xti);
  result.quality["quality_dies"] = static_cast<double>(eg.size());

  // Output check: a fixed sample of the first batch against the per-die
  // reference path under the same sparse-forced options.
  const lab::LotCampaign reference(
      lot, lot_config(opt.seed, 1, kLotDiesPerIter, 1, 0));
  int mismatches = 0;
  for (int offset : {0, 5, 13, 31}) {
    const lab::DieCharacterisation want = reference.run_die(offset);
    const lab::DieCharacterisation& got =
        sample.at(static_cast<std::size_t>(offset));
    const bool same =
        want.ok && got.ok && want.index == got.index &&
        same_bits(want.eg_classical, got.eg_classical) &&
        same_bits(want.eg_meijer, got.eg_meijer) &&
        same_bits(want.xti_meijer, got.xti_meijer) &&
        same_bits(want.eg_measured_t, got.eg_measured_t) &&
        same_bits(want.xti_measured_t, got.xti_measured_t) &&
        same_bits(want.delta_t1, got.delta_t1) &&
        same_bits(want.delta_t3, got.delta_t3) &&
        want.cell.size() == got.cell.size();
    if (!same) ++mismatches;
  }
  result.checks.push_back({"lot.dies_failed_zero", result.failed == 0,
                           std::to_string(result.failed) + " failed dies"});
  result.checks.push_back(
      {"lot.batched_matches_run_die", mismatches == 0,
       std::to_string(mismatches) + " of 4 sampled dies differ"});
  if (mismatches > 0) result.failed += mismatches;
  if (opt.trace) layers_lot(opt, result);
}

// ---------------------------------------------------- deck_cold_tree100k --

namespace {

constexpr int kTreeNodes = 100000;
constexpr int kDeckClients = 4;

std::string tree_deck(std::uint64_t seed) {
  spice::SyntheticNetlistSpec spec;
  spec.topology = spice::SyntheticTopology::kClockTree;
  spec.nodes = kTreeNodes;
  spec.seed = seed;
  return spice::generate_netlist(spec);
}

/// One cold `icvbe run`: text in, CSV bytes out, through the CLI's
/// public call sequence.
std::string deck_to_csv(const std::string& text, Tracer& tracer, long id,
                        spice::SweepResult* keep) {
  ScopedSpan op(tracer, "bench.op", id);
  std::optional<ScopedSpan> span;
  span.emplace(tracer, "netlist.parse", id);
  spice::ParsedNetlist parsed = spice::parse_netlist(text);
  auto& c = *parsed.circuit;
  c.set_temperature(icvbe::to_kelvin(parsed.temperature_celsius));
  const spice::AnalysisPlan* deck_plan =
      parsed.find_plan(spice::AnalysisKind::kDcSweep);
  if (deck_plan == nullptr) throw std::runtime_error("deck has no DC plan");
  spice::AnalysisPlan plan = *deck_plan;
  plan.threads = 1;
  span.emplace(tracer, "session.bind", id);
  spice::SimSession session(c);
  span.emplace(tracer, "session.seed", id);
  if (!parsed.nodesets.empty()) {
    session.seed_warm_start(guess_from_nodesets(c, parsed));
  }
  span.emplace(tracer, "session.run", id);
  spice::SweepResult res = session.run(plan);
  span.emplace(tracer, "plan.emit", id);
  std::ostringstream csv;
  res.write_csv(csv);
  span.reset();
  if (keep != nullptr) *keep = std::move(res);
  return csv.str();
}

/// The tree deck is linear: V(out)/V1 and I(V1)/V1 are the same on every
/// row of the V1 sweep. Returns the worst relative deviation.
double linearity_error(const spice::SweepResult& res) {
  double worst = 0.0;
  for (std::size_t p = 0; p < res.probe_count(); ++p) {
    const double ref = res.value(p, 0) / res.axis_value(0, 0);
    for (std::size_t r = 1; r < res.rows(); ++r) {
      const double ratio = res.value(p, r) / res.axis_value(0, r);
      worst = std::max(worst, std::abs(ratio - ref) / std::abs(ref));
    }
  }
  return worst;
}

}  // namespace

void run_deck_cold(const Options& opt, Tracer& tracer, Result& result) {
  result.config = {{"threads", 1}, {"lanes", 0}, {"clients", kDeckClients},
                   {"workers", 0}, {"nodes", kTreeNodes}};
  const std::string text = tree_deck(opt.seed);

  // Set-up of a cold run is parse plus bind: three times per user, all
  // users at once, as in the timed loop. The first round also grows each
  // user's heap, so the median is taken over the later rounds' majority.
  std::vector<std::vector<double>> setups(kDeckClients);
  run_clients(kDeckClients, [&](int u) {
    for (int rep = 0; rep < 3; ++rep) {
      const double t0 = now_s();
      spice::ParsedNetlist parsed = spice::parse_netlist(text);
      auto& c = *parsed.circuit;
      c.set_temperature(icvbe::to_kelvin(parsed.temperature_celsius));
      const spice::SimSession session(c);
      setups[static_cast<std::size_t>(u)].push_back(now_s() - t0);
    }
  });
  for (const auto& v : setups) {
    result.setup_s.insert(result.setup_s.end(), v.begin(), v.end());
  }

  // The reference output every timed run must reproduce, made untimed.
  Tracer off;
  spice::SweepResult first_result;
  const std::string first_csv = deck_to_csv(text, off, -1, &first_result);

  // Independent users, each converting its own copy of the deck on its
  // own thread; nothing is shared between them but the deck text.
  struct User {
    std::vector<double> iter_ms;
    long attempted = 0;
    long failed = 0;
    long mismatched = 0;
  };
  std::vector<User> users(kDeckClients);
  const LoopClock clock{now_s(), opt.seconds};
  // The users start each round together, so every round sees the same
  // contention; left free-running, their phases drift in and out of
  // step and the median swings between the two regimes.
  bool go = true;
  std::barrier round(kDeckClients, [&]() noexcept { go = clock.running(); });
  const auto user_loop = [&](int u) {
    User& st = users[static_cast<std::size_t>(u)];
    for (long iter = 0;; ++iter) {
      round.arrive_and_wait();
      if (!go && iter > 0) break;
      ++st.attempted;
      const double t0 = now_s();
      std::string csv;
      try {
        csv = deck_to_csv(text, tracer, u * 1000000L + iter, nullptr);
      } catch (const std::exception&) {
        ++st.failed;
        continue;
      }
      const double ms = ms_since(t0);
      if (csv == first_csv) {
        st.iter_ms.push_back(ms);
      } else {
        ++st.mismatched;
        ++st.failed;
      }
    }
  };
  run_clients(kDeckClients, user_loop);
  result.elapsed_s = now_s() - clock.start_s;
  long mismatched = 0;
  for (const User& st : users) {
    result.iter_ms.insert(result.iter_ms.end(), st.iter_ms.begin(),
                          st.iter_ms.end());
    result.attempted += st.attempted;
    result.failed += st.failed;
    result.iters_failed += st.failed;
    mismatched += st.mismatched;
  }

  const double lin = first_result.rows() > 0 ? linearity_error(first_result)
                                             : 1.0;
  result.checks.push_back({"deck.runs_identical", mismatched == 0,
                           std::to_string(mismatched) +
                               " runs differ from the first CSV"});
  result.checks.push_back(
      {"deck.linear_ratios", lin <= 1e-9,
       "max relative deviation of V(out)/V1 and I(V1)/V1: " +
           std::to_string(lin)});
  if (lin > 1e-9) ++result.failed;
  // run.py compares this CSV byte for byte with `icvbe run <deck>`.
  result.files["deck"] = opt.workdir + "/tree.cir";
  result.files["csv"] = opt.workdir + "/tree.csv";
  write_file(result.files["deck"], text);
  write_file(result.files["csv"], first_csv);
  if (opt.trace) layers_deck(text, "", 0.0, result);
}

// ------------------------------------------------------- serve workloads --

namespace {

/// What one client does per iteration: PATCH one resistor to the next
/// value of its seeded sequence, then RUN each analysis in order.
struct ServeSpec {
  std::string deck;
  std::string resistor;
  double nominal = 0.0;
  double spread = 0.0;  ///< values are nominal * (1 +- spread)
  std::vector<std::string> kinds;
  int clients = 1;
  unsigned workers = 1;
  int setup_reps = 1;
};

/// Client `c`'s PATCH value sequence.
std::mt19937_64 value_stream(std::uint64_t seed, int c) {
  return std::mt19937_64(seed * 7919u + static_cast<std::uint64_t>(c));
}

double next_value(const ServeSpec& spec, std::mt19937_64& rng) {
  return spec.nominal * (1.0 + spec.spread * (2.0 * unit(rng) - 1.0));
}

ServeSpec grid_spec(std::uint64_t seed) {
  // One fixed grid: its resistor values decide, through threshold
  // pivoting, how much the LU fills in (factor entries range from 393k to
  // 438k across generator seeds, and a RUN's time by 30%), which would
  // make the run seed a hidden size knob. The seed draws the traffic.
  spice::SyntheticNetlistSpec gen;
  gen.topology = spice::SyntheticTopology::kGrid;
  gen.nodes = 10000;
  gen.seed = 1;
  ServeSpec spec;
  spec.deck = spice::generate_netlist(gen);
  spec.kinds = {"DC"};
  // Four clients on four workers, one RUN each at a time: all four cores
  // busy. A lone client's RUN time followed the host's spare clock speed
  // and moved by up to 28% between sets of runs of the same code.
  spec.clients = 4;
  spec.workers = 4;
  spec.setup_reps = 3;
  spec.spread = 0.2;
  // The patched resistor is drawn from the deck's own resistors.
  const spice::ParsedNetlist parsed = spice::parse_netlist(spec.deck);
  std::vector<const spice::Resistor*> resistors;
  for (const auto& dev : parsed.circuit->devices()) {
    if (const auto* r = dynamic_cast<const spice::Resistor*>(dev.get())) {
      resistors.push_back(r);
    }
  }
  std::mt19937_64 rng(seed);
  const spice::Resistor* pick = resistors.at(rng() % resistors.size());
  spec.resistor = pick->name();
  spec.nominal = pick->nominal_resistance();
  return spec;
}

/// A reference serve loop of the traced runs: one client trimming R2 of
/// the Banba deck, with a RUN of each of `kinds`.
ServeSpec banba_spec(const Options& opt, std::vector<std::string> kinds) {
  ServeSpec spec;
  spec.deck = read_text(opt.decks_dir + "/banba_trim.cir");
  spec.resistor = "R2";
  spec.nominal = 13e3;
  spec.spread = 0.05;
  spec.kinds = std::move(kinds);
  return spec;
}

class RowCollector : public server::RunHandler {
 public:
  void on_init(const std::vector<std::string>&, const std::vector<std::string>&,
               std::size_t expected_rows) override {
    rows.clear();
    rows.reserve(expected_rows);
    first_row_s = -1.0;
  }
  void on_data(std::size_t row, const std::vector<double>& axes,
               const std::vector<double>& probes) override {
    if (first_row_s < 0.0) first_row_s = now_s();
    if (rows.size() <= row) rows.resize(row + 1);
    std::vector<double>& out = rows[row];
    out.assign(axes.begin(), axes.end());
    out.insert(out.end(), probes.begin(), probes.end());
  }

  Rows rows;
  double first_row_s = -1.0;
};

/// One iteration's inputs and streamed outputs, kept for the checks.
struct IterRecord {
  double value = 0.0;
  std::vector<Rows> rows;  ///< one per RUN kind
};

struct ClientState {
  std::optional<server::Client> client;
  std::string session;
  std::mt19937_64 rng;
  std::vector<double> iter_ms;
  long iters_failed = 0;
  long attempted = 0;
  long failed = 0;
  std::optional<IterRecord> first;
  std::optional<IterRecord> last;
  // Client-side request timings (per-layer metrics in trace mode).
  std::vector<double> patch_ms;
  std::map<std::string, std::vector<double>> run_ms;
  std::vector<double> first_row_ms;
  std::vector<double> iter_run_ms;  ///< the RUN round trips of an iteration
  double rows = 0.0;
  double run_s = 0.0;
};

struct ServeRig {
  std::unique_ptr<server::SimServer> server;
  std::vector<ClientState> clients;
};

ServeRig start_rig(const ServeSpec& spec, const std::string& socket_path,
                   std::uint64_t seed) {
  ServeRig rig;
  server::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.workers = spec.workers;
  rig.server = std::make_unique<server::SimServer>(cfg);
  rig.server->start();
  rig.clients.resize(static_cast<std::size_t>(spec.clients));
  // The clients connect, LOAD and run cold all at once, as they run.
  std::vector<std::string> errors(rig.clients.size());
  run_clients(spec.clients, [&](int c) {
    ClientState& st = rig.clients[static_cast<std::size_t>(c)];
    try {
      st.client.emplace(server::Client::connect_unix(socket_path));
      st.session = "s" + std::to_string(c);
      st.rng = value_stream(seed, c);
      (void)st.client->load(st.session, spec.deck);
      for (const std::string& kind : spec.kinds) {
        const server::RunResult r = st.client->run(st.session, kind);
        if (r.outcome != server::RunOutcome::kDone) {
          throw std::runtime_error("cold RUN " + kind + " failed: " +
                                   r.error);
        }
      }
    } catch (const std::exception& e) {
      errors[static_cast<std::size_t>(c)] = e.what();
    }
  });
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  return rig;
}

/// Disconnects the clients (their records stay) and stops the server.
void stop_rig(ServeRig& rig) {
  for (ClientState& st : rig.clients) st.client.reset();
  if (rig.server) rig.server->stop();
  rig.server.reset();
}

/// One PATCH + RUNs iteration; returns false if any request failed.
/// `rec` receives the patched value and the streamed rows of each RUN.
bool client_iteration(const ServeSpec& spec, ClientState& st, Tracer& tracer,
                 long id, RowCollector& collector, IterRecord& rec,
                 double& run_sum_ms) {
  bool ok = true;
  rec.value = next_value(spec, st.rng);
  rec.rows.clear();
  try {
    ++st.attempted;
    const double tp = now_s();
    {
      ScopedSpan span(tracer, "server.patch", id);
      (void)st.client->patch(st.session, "R " + spec.resistor + " " +
                                             server::format_value(rec.value));
    }
    st.patch_ms.push_back(ms_since(tp));
  } catch (const std::exception&) {
    ok = false;
    ++st.failed;
  }
  for (const std::string& kind : spec.kinds) {
    ++st.attempted;
    const double tr = now_s();
    server::RunResult r;
    try {
      ScopedSpan span(tracer, "server.run." + kind, id);
      r = st.client->run(st.session, kind, &collector);
    } catch (const std::exception& e) {
      r.outcome = server::RunOutcome::kFailed;
      r.error = e.what();
    }
    const double run_ms = ms_since(tr);
    if (r.outcome != server::RunOutcome::kDone) {
      ok = false;
      ++st.failed;
      continue;
    }
    run_sum_ms += run_ms;
    st.run_ms[kind].push_back(run_ms);
    st.run_s += run_ms * 1e-3;
    st.rows += static_cast<double>(r.rows);
    if (collector.first_row_s >= 0.0) {
      st.first_row_ms.push_back((collector.first_row_s - tr) * 1e3);
    }
    rec.rows.push_back(std::move(collector.rows));
  }
  return ok;
}

/// One closed-loop client: it sends its next iteration as soon as the
/// last one is done, until the timed phase ends.
void client_loop(const ServeSpec& spec, ClientState& st, Tracer& tracer,
                 const LoopClock& clock, int client_index) {
  RowCollector collector;
  IterRecord rec;
  for (long iter = 0; iter == 0 || clock.running(); ++iter) {
    const long id = client_index * 1000000L + iter;
    bool ok = true;
    double run_sum_ms = 0.0;
    const double t0 = now_s();
    {
      ScopedSpan op(tracer, "bench.op", id);
      ok = client_iteration(spec, st, tracer, id, collector, rec, run_sum_ms);
    }
    const double ms = ms_since(t0);
    if (ok) {
      st.iter_ms.push_back(ms);
      st.iter_run_ms.push_back(run_sum_ms);
      // The checks compare the first and the last iteration of the run.
      if (!st.first) {
        st.first = std::move(rec);
      } else {
        if (!st.last) st.last.emplace();
        std::swap(*st.last, rec);
      }
    } else {
      ++st.iters_failed;
    }
  }
}

/// Runs a serve workload; returns the value client 0 last patched (for the
/// per-layer deck replays).
double run_serve(const Options& opt, const ServeSpec& spec, Tracer& tracer,
                 Result& result) {
  result.config = {{"threads", 1},
                   {"lanes", 0},
                   {"clients", spec.clients},
                   {"workers", spec.workers}};
  const std::string socket_path = opt.workdir + "/serve.sock";

  // Set-up: server start, connect, LOAD, and the first (cold) RUNs.
  ServeRig rig;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    if (rep > 0) {
      stop_rig(rig);
      rig.clients.clear();
    }
    const double t0 = now_s();
    rig = start_rig(spec, socket_path, opt.seed);
    result.setup_s.push_back(now_s() - t0);
  }

  // The clients run free, unlike the deck users: a grid iteration is one
  // uniform refactor-and-solve load, so four clients on four workers keep
  // every core equally busy at any offset. Rounds made each iteration
  // wait for the slowest client, and `iters_per_s` then also followed
  // the host's stalls (ten-seed spread 0.245, against 0.164 for the
  // throughput the clients' latencies imply).
  const LoopClock clock{now_s(), opt.seconds};
  run_clients(spec.clients, [&](int c) {
    ClientState& st = rig.clients[static_cast<std::size_t>(c)];
    try {
      client_loop(spec, st, tracer, clock, c);
    } catch (const std::exception&) {
      ++st.iters_failed;  // the loop itself broke: count it
      ++st.failed;
    }
  });
  result.elapsed_s = now_s() - clock.start_s;
  stop_rig(rig);

  std::vector<double> patch_ms, first_row_ms, iter_run_ms;
  std::map<std::string, std::vector<double>> run_ms;
  double rows = 0.0;
  double run_s = 0.0;
  // Output checks, one client per thread, on each client's first and last
  // iteration. The streamed rows must be bit-equal to an in-process
  // session with the server session's history (the deck's cold RUNs, then
  // the PATCH), and agree with a cold run of the patched deck to 1e-9 of
  // each column's largest magnitude. A warm session keeps the pivots of
  // its first analysis, so it is not always bit-equal to a cold run
  // (README, defect 3); those runs are counted, not failed.
  std::vector<int> checked(rig.clients.size(), 0);
  std::vector<int> cold_bit_differs(rig.clients.size(), 0);
  std::vector<std::vector<std::string>> not_warm(rig.clients.size());
  std::vector<std::vector<std::string>> not_cold(rig.clients.size());
  run_clients(spec.clients, [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    const ClientState& st = rig.clients[i];
    for (const std::optional<IterRecord>* rec : {&st.first, &st.last}) {
      if (!rec->has_value()) continue;
      const std::vector<Rows> warm = warm_session_rows(
          spec.deck, spec.resistor, (*rec)->value, spec.kinds);
      for (std::size_t k = 0; k < spec.kinds.size(); ++k) {
        ++checked[i];
        const Rows cold = inprocess_rows(
            spec.deck, spec.resistor, (*rec)->value,
            spice::analysis_kind_from_token(spec.kinds[k]));
        const bool streamed = k < (*rec)->rows.size();
        if (!streamed || !same_rows(warm[k], (*rec)->rows[k])) {
          not_warm[i].push_back(spec.kinds[k]);
        }
        if (!streamed || !near_rows(cold, (*rec)->rows[k], 1e-9)) {
          not_cold[i].push_back(spec.kinds[k]);
        } else if (!same_rows(cold, (*rec)->rows[k])) {
          ++cold_bit_differs[i];
        }
      }
    }
  });
  for (ClientState& st : rig.clients) {
    result.iter_ms.insert(result.iter_ms.end(), st.iter_ms.begin(),
                          st.iter_ms.end());
    result.iters_failed += st.iters_failed;
    result.attempted += st.attempted;
    result.failed += st.failed;
    patch_ms.insert(patch_ms.end(), st.patch_ms.begin(), st.patch_ms.end());
    first_row_ms.insert(first_row_ms.end(), st.first_row_ms.begin(),
                        st.first_row_ms.end());
    iter_run_ms.insert(iter_run_ms.end(), st.iter_run_ms.begin(),
                       st.iter_run_ms.end());
    for (const auto& [kind, v] : st.run_ms) {
      run_ms[kind].insert(run_ms[kind].end(), v.begin(), v.end());
    }
    rows += st.rows;
    run_s += st.run_s;
  }
  const int n_checked = std::accumulate(checked.begin(), checked.end(), 0);
  const auto add_check = [&](const std::string& name,
                             const std::vector<std::vector<std::string>>& bad,
                             const std::string& what) {
    int n_bad = 0;
    std::string kinds;
    for (const auto& client : bad) {
      for (const std::string& kind : client) {
        ++n_bad;
        kinds += " " + kind;
      }
    }
    result.checks.push_back(
        {name, n_bad == 0 && n_checked > 0,
         std::to_string(n_bad) + " of " + std::to_string(n_checked) +
             " streamed runs " + what +
             (kinds.empty() ? "" : " (RUN" + kinds + ")")});
    result.failed += n_bad;
  };
  add_check("serve.streamed_rows_match_warm_session", not_warm,
            "differ from the in-process warm session");
  add_check("serve.streamed_rows_near_cold_run", not_cold,
            "differ from a cold run by more than 1e-9");
  result.quality["cold_bit_differs"] = std::accumulate(
      cold_bit_differs.begin(), cold_bit_differs.end(), 0.0);
  result.quality["checked_runs"] = n_checked;

  const double last_value =
      rig.clients[0].last ? rig.clients[0].last->value : spec.nominal;
  if (opt.trace) {
    result.layers["server.patch_ms"] = median(patch_ms);
    for (const auto& [kind, v] : run_ms) {
      result.layers["server.run_ms." + kind] = median(v);
    }
    result.layers["server.first_row_ms"] = median(first_row_ms);
    result.layers["server.rows_per_s"] = run_s > 0.0 ? rows / run_s : 0.0;
    // In-process warm runs of the same plans on an identically patched
    // circuit; the RUN round trips minus these are the server's share.
    const double inproc_ms =
        inprocess_warm_run_ms(spec.deck, spec.resistor, last_value, spec.kinds);
    result.layers["server.overhead_ms"] = median(iter_run_ms) - inproc_ms;
  }
  return last_value;
}

}  // namespace

void run_serve_grid(const Options& opt, Tracer& tracer, Result& result) {
  const ServeSpec spec = grid_spec(opt.seed);
  const double value = run_serve(opt, spec, tracer, result);
  result.config["nodes"] = 10000;
  if (opt.trace) layers_deck(spec.deck, spec.resistor, value, result);
}

void reference_layers(const Options& opt, Result& result) {
  // A quarter of a second of each one-client Banba serve loop (the first
  // also replays every deck layer on the Banba deck), plus the lot
  // replays unless the workload is the lot. Only metrics the workload left
  // unset are taken, and their names are recorded as reference figures.
  // The replays' operations and checks count with the workload's.
  //
  // RUN DC has a session of its own: a DC sweep leaves its source at the
  // last swept value, so a RUN AC after it on the same session differs
  // from a cold run (a recorded program defect; see README.md).
  Options brief = opt;
  brief.seconds = 0.25;
  brief.trace = true;
  Tracer off;
  Result trim;
  const ServeSpec trim_spec = banba_spec(opt, {"AC", "TRAN"});
  const double value = run_serve(brief, trim_spec, off, trim);
  layers_deck(trim_spec.deck, trim_spec.resistor, value, trim);
  if (opt.workload != "lot_eg_xti") layers_lot(opt, trim);
  Result dc;
  run_serve(brief, banba_spec(opt, {"DC"}), off, dc);
  for (auto [label, ref] : {std::pair{"reference.banba_ac_tran.", &trim},
                             std::pair{"reference.banba_dc.", &dc}}) {
    for (const auto& [name, v] : ref->layers) {
      if (result.layers.emplace(name, v).second) {
        result.reference.push_back(name);
      }
    }
    result.attempted += ref->attempted;
    result.failed += ref->failed;
    for (Check& c : ref->checks) {
      c.name = label + c.name;
      result.checks.push_back(std::move(c));
    }
  }
}

std::string input_digest(const Options& opt) {
  // FNV-1a over the text of everything the program is given.
  std::uint64_t h = 1469598103934665603u;
  const auto mix = [&h](const std::string& text) {
    for (unsigned char ch : text) {
      h ^= ch;
      h *= 1099511628211u;
    }
  };
  const auto mix_value = [&mix](double v) { mix(server::format_value(v)); };
  if (opt.workload == "lot_eg_xti") {
    const lab::SiliconLot lot = seeded_lot(opt.seed);
    const lab::LotCampaignConfig cfg =
        lot_config(opt.seed, 1, kLotDiesPerIter, kLotThreads, kLotLanes);
    mix(std::to_string(cfg.seed_base));
    for (int i = 1; i <= kLotQualityIters * kLotDiesPerIter; ++i) {
      const lab::DieSample die = lot.sample(i);
      mix_value(die.qa.is);
      mix_value(die.qb.is);
      mix_value(die.qin.is);
      mix_value(die.opamp_offset);
      mix_value(die.fixture.leak);
      mix_value(die.fixture.rth_die);
      mix_value(die.resistor_scale);
    }
  } else if (opt.workload == "deck_cold_tree100k") {
    mix(tree_deck(opt.seed));
  } else {
    const ServeSpec spec = grid_spec(opt.seed);
    mix(spec.deck);
    mix(spec.resistor);
    for (int c = 0; c < spec.clients; ++c) {
      std::mt19937_64 rng = value_stream(opt.seed, c);
      for (int k = 0; k < 100; ++k) mix_value(next_value(spec, rng));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
