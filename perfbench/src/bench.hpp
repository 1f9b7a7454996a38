#pragma once
// Shared pieces of the benchmark driver: the clock, the in-memory span
// recorder, the raw result every workload fills, and the workload entry
// points. The driver only measures and records raw samples; statistics
// (medians, quartiles, tail percentiles) are computed by run.py.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/spice/netlist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the driver started (steady clock).
double now_s();

inline double ms_since(double t0_s) { return (now_s() - t0_s) * 1e3; }

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// Spans kept in memory and written out once, at the end of the run. A
/// span's parent is the innermost span open on the same thread when it
/// was opened; spans of one operation share its id.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    int parent = -1;
    long id = 0;
    int tid = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span; returns its index, or -1 when tracing is off.
  int open(std::string name, long id);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opened at construction, closed at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, long id)
      : tracer_(tracer), index_(tracer.open(std::move(name), id)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run records.
struct Result {
  std::map<std::string, double> config;  ///< threads, workers, clients, ...
  std::vector<double> setup_s;           ///< one entry per set-up
  std::vector<double> iter_ms;           ///< successful timed iterations
  long iters_failed = 0;                 ///< iterations with a failed op
  double elapsed_s = 0.0;                ///< wall time of the timed phase
  /// Trace mode: the same loop with tracing off, for the overhead.
  std::vector<double> untraced_iter_ms;
  long untraced_iters_failed = 0;
  long attempted = 0;  ///< operations: dies, decks, or PATCH/RUN requests
  long failed = 0;
  std::map<std::string, double> quality;  ///< e.g. EG/XTI error of the lot
  std::vector<Check> checks;
  std::map<std::string, double> layers;   ///< per-layer metrics (trace)
  /// Per-layer metrics taken from the reference replays, not the workload.
  std::vector<std::string> reference;
  std::map<std::string, std::string> files;  ///< artefacts for run.py
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;    ///< directory for the socket and artefacts
  std::string decks_dir;  ///< the benchmark's own decks
  bool inputs_only = false;  ///< print the input digest and exit
};

/// Deadline of a timed loop.
struct LoopClock {
  double start_s = 0.0;
  double seconds = 0.0;
  [[nodiscard]] bool running() const { return now_s() - start_s < seconds; }
};

void run_lot(const Options& opt, Tracer& tracer, Result& result);
void run_deck_cold(const Options& opt, Tracer& tracer, Result& result);
void run_serve_grid(const Options& opt, Tracer& tracer, Result& result);

/// Digest of the inputs a workload generates from its seed.
std::string input_digest(const Options& opt);

/// Per-layer replays through public calls (trace mode only).
void layers_lot(const Options& opt, Result& result);
/// Fill every per-layer metric the workload does not exercise from
/// replays on reference inputs (the Banba trim deck on a one-client
/// server, and 8 dies of the seeded lot), so that each one is a
/// measurement; the names filled go to `result.reference`.
void reference_layers(const Options& opt, Result& result);
/// Parse, bind, run, Newton, linear-algebra, stamp, emit, AC and
/// transient replays of one deck, with resistor `patch_name` set to
/// `patch_value` when the name is non-empty.
void layers_deck(const std::string& deck, const std::string& patch_name,
                 double patch_value, Result& result);

// ------------------------------------------------------------- helpers --

/// Result rows: axis values then probe values.
using Rows = std::vector<std::vector<double>>;

std::string read_text(const std::string& path);

/// The CLI's .NODESET seeding: a start vector with the hinted voltages.
icvbe::spice::Unknowns guess_from_nodesets(
    icvbe::spice::Circuit& c, const icvbe::spice::ParsedNetlist& deck);

/// A parsed deck at its .TEMP with one resistor re-programmed the way the
/// server's PATCH does it (none when `resistor` is empty).
struct PreparedDeck {
  PreparedDeck(const std::string& text, const std::string& resistor,
               double ohms);
  /// Re-program resistor `resistor` to `ohms` as the server's PATCH does.
  void patch(const std::string& resistor, double ohms);
  /// The server's per-RUN start state: device state reset, warm start
  /// re-seeded from the .NODESET hints.
  void reset_for_run(icvbe::spice::SimSession& session) const;
  /// The deck's plan of one family, on one thread.
  [[nodiscard]] icvbe::spice::AnalysisPlan plan(
      icvbe::spice::AnalysisKind kind) const;

  icvbe::spice::ParsedNetlist parsed;
  icvbe::spice::Unknowns guess;
};

Rows rows_of(const icvbe::spice::SweepResult& res);

/// A cold in-process run of the patched deck.
Rows inprocess_rows(const std::string& deck, const std::string& resistor,
                    double ohms, icvbe::spice::AnalysisKind kind);

/// What a warm server session computes after one PATCH: an in-process
/// session runs each plan of `kinds` on the deck as loaded (the LOAD and
/// cold RUNs of the set-up), then takes the patch and runs `kinds` again.
/// Returns the rows of the second round, one per kind.
std::vector<Rows> warm_session_rows(const std::string& deck,
                                    const std::string& resistor, double ohms,
                                    const std::vector<std::string>& kinds);

/// Median in-process warm run time of the patched deck's plans, summed.
double inprocess_warm_run_ms(const std::string& deck,
                             const std::string& resistor, double ohms,
                             const std::vector<std::string>& kinds);

/// The lot of a seed, and the campaign options of `icvbe lot --lanes=K`.
icvbe::lab::SiliconLot seeded_lot(std::uint64_t seed);
icvbe::lab::LotCampaignConfig lot_config(std::uint64_t seed, int first_index,
                                         int samples, unsigned threads,
                                         unsigned lanes);

}  // namespace perfbench
