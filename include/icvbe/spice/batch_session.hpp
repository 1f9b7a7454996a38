#pragma once
// BatchDcSession: lockstep DC Newton solver for K same-topology circuits
// ("lanes") sharing one frozen sparse pattern and one cached symbolic
// analysis -- the solver half of the batched lot engine.
//
// A lot of dies (or a .STEP corner family) is thousands of solves of the
// *same* topology where only parameter values differ: every die shares the
// sparse pattern and, in practice, the pivot sequence. The per-die path
// pays pattern discovery + symbolic analysis + a scalar refactor/solve per
// die; this session pays them once, then carries K dies per Newton
// iteration through SparseLuFactorizationT::refactor_batch/solve_batch
// (SoA value planes, lane-fastest inner loops).
//
// Determinism contract (what makes batched results bit-identical to the
// per-die scalar path, for any thread count and any lane count):
//  * each lane's per-iteration arithmetic -- stamping, damping, tolerance
//    checks -- is exactly SimSession::newton_attempt's, and the batched
//    refactor/solve produce bit-identical factors/solutions to the scalar
//    sparse engine under the same pivot sequence;
//  * the analysis is primed once from a caller-chosen reference state
//    (prime()), never re-pivoted mid-flight, so no lane's values can
//    perturb another lane's factors;
//  * a lane whose values reject the frozen pivots, fail to converge in
//    plain Newton, or go non-finite is *flagged* (needs_solo) and the
//    caller re-runs that die through the ordinary scalar path -- which is
//    the same fallback ladder the per-die path would have taken.
//
// The implicit assumption -- every die's own symbolic analysis would have
// chosen the same pivot sequence as the reference -- holds for lot-scale
// parameter spreads (percent-level value changes against a 0.5 relative
// pivot threshold) and is asserted bit-exactly by test_lot_batch and the
// bench gate over thousands of dies.

#include <cstddef>
#include <vector>

#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/bjt.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/linear_devices.hpp"
#include "icvbe/spice/sim_session.hpp"

namespace icvbe::spice {

/// Per-lane outcome of BatchDcSession::solve_active().
struct BatchLaneStatus {
  bool converged = false;   ///< plain Newton converged; solution() is valid
  bool needs_solo = false;  ///< lane left the lockstep; re-run it solo
  int iterations = 0;       ///< Newton iterations this lane consumed
};

/// See header comment. Lanes are bound once (same topology required:
/// equal unknown/node/device counts, and devices stamping the same
/// pattern); per-die parameter values are then re-programmed between
/// solves (ParamDeltaSet + begin_variant) without any rebinding.
///
/// Thread-safety: single-threaded, like SimSession; parallel lot workers
/// each own a private BatchDcSession over private circuit lanes.
class BatchDcSession {
 public:
  /// Bind to `lanes` circuits. Runs one pattern-discovery stamp pass on
  /// lane 0 and preallocates every buffer.
  /// \pre all lanes share the topology of lane 0 and outlive the session.
  explicit BatchDcSession(std::vector<Circuit*> lanes,
                          NewtonOptions options = {});

  BatchDcSession(const BatchDcSession&) = delete;
  BatchDcSession& operator=(const BatchDcSession&) = delete;

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }
  [[nodiscard]] int unknown_count() const noexcept { return n_unknowns_; }
  [[nodiscard]] Circuit& lane_circuit(std::size_t lane) {
    return *lanes_[lane];
  }
  [[nodiscard]] const NewtonOptions& options() const noexcept {
    return options_;
  }

  /// Pin the shared symbolic analysis: stamp `reference_lane`'s circuit at
  /// its current start state (warm seed if set, else cold) and run the
  /// scalar analysis on it. Call once with a group-independent reference
  /// (e.g. the campaign's nominal die) so the pivot sequence -- and hence
  /// every result bit -- is independent of lane grouping, thread count,
  /// and K. solve_active() primes from the first active lane if the
  /// caller never did. Throws NumericalError if the reference matrix is
  /// singular at that state.
  void prime(std::size_t reference_lane = 0);
  [[nodiscard]] bool primed() const noexcept {
    return slu_.analysis_count() > 0;
  }

  /// Reset lane `lane` for a new parameter variant (die/corner): forget
  /// its warm start and its devices' limiting state, exactly the state a
  /// freshly-built per-die rig would start from. The shared pattern and
  /// analysis are untouched.
  void begin_variant(std::size_t lane);

  /// Lanes excluded from solve_active() (default: all active).
  void set_lane_active(std::size_t lane, bool active);
  [[nodiscard]] bool lane_active(std::size_t lane) const {
    return active_[lane] != 0;
  }

  // Per-lane warm-start continuation, mirroring SimSession.
  void seed_warm_start(std::size_t lane, const Unknowns& x);
  [[nodiscard]] bool has_warm_start(std::size_t lane) const {
    return have_last_[lane] != 0;
  }
  void invalidate_warm_start(std::size_t lane) { have_last_[lane] = 0; }

  /// Solve every active lane's DC operating point in lockstep plain
  /// Newton at gmin_floor (strategy 1 of SimSession::solve). Per lane the
  /// trajectory -- start point, stamps, damping, convergence test -- is
  /// exactly the scalar one; lanes leave the lockstep individually as
  /// they converge or fail. After the first call at a given shape the
  /// whole solve performs zero heap allocations.
  void solve_active();

  [[nodiscard]] const BatchLaneStatus& status(std::size_t lane) const {
    return status_[lane];
  }
  /// Last converged solution of `lane` (valid when status().converged or
  /// has_warm_start()).
  [[nodiscard]] const Unknowns& solution(std::size_t lane) const {
    return last_solution_[lane];
  }

 private:
  std::vector<Circuit*> lanes_;
  NewtonOptions options_;
  int n_unknowns_ = 0;
  int node_unknowns_ = 0;
  std::size_t bound_device_count_ = 0;
  bool linear_ = false;  ///< no device is_nonlinear() (see SimSession)

  linalg::SparseMatrix sa_;          ///< shared pattern + prime/reference values
  linalg::SparseValueBatch batch_;   ///< K value planes over sa_'s pattern
  linalg::SparseLuFactorization slu_;

  std::vector<Unknowns> x_;              ///< per-lane working iterate
  std::vector<Unknowns> last_solution_;  ///< per-lane warm-start source
  std::vector<linalg::Vector> b_lane_;   ///< per-lane stamped RHS
  linalg::Vector b_prime_;               ///< scratch RHS for prime()
  std::vector<double> rhs_;              ///< packed lane-fastest RHS planes

  // Lane-batched device exponentials (Device::collect_exp_args /
  // stamp_with_exps): per-device offsets into a lane's argument span, the
  // span length, and the preallocated argument/value buffers (one span per
  // lane), so one vectorized safe_exp_many sweep serves every junction a
  // lane stamps -- allocation-free after binding.
  std::vector<std::size_t> exp_off_;  ///< device -> offset, size devices+1
  std::size_t exp_stride_ = 0;        ///< exp args per lane
  std::vector<double> exp_args_;      ///< [lane][exp_stride_] arguments
  std::vector<double> exp_vals_;      ///< [lane][exp_stride_] safe_exp out
  std::vector<unsigned char> active_;
  std::vector<unsigned char> have_last_;
  std::vector<unsigned char> live_;      ///< still iterating this solve
  std::vector<unsigned char> lane_ok_;   ///< refactor_batch in/out mask
  std::vector<BatchLaneStatus> status_;
};

/// A compiled set of per-die parameter bindings against one circuit: the
/// name lookups and type checks happen once at bind time, so a lot driver
/// re-programs its lane circuits between dies allocation-free. Parameter
/// *value* changes never require a session rebind -- the frozen pattern
/// and symbolic analysis only depend on topology -- which is exactly why
/// the batched path can amortise them across a whole lot.
class ParamDeltaSet {
 public:
  explicit ParamDeltaSet(Circuit& circuit) : circuit_(&circuit) {}

  /// Each bind resolves a device by name (throws CircuitError if absent
  /// or of the wrong type) and returns the slot for the matching set_*.
  [[nodiscard]] std::size_t bind_resistor(std::string_view name);
  [[nodiscard]] std::size_t bind_bjt(std::string_view name);
  [[nodiscard]] std::size_t bind_opamp(std::string_view name);
  [[nodiscard]] std::size_t bind_isource(std::string_view name);

  void set_resistance(std::size_t slot, double ohms) {
    resistors_[slot]->set_nominal_resistance(ohms);
  }
  void set_bjt_model(std::size_t slot, const BjtModel& model) {
    bjts_[slot]->set_model(model);
  }
  void set_opamp_offset(std::size_t slot, double volts) {
    opamps_[slot]->set_offset(volts);
  }
  void set_current(std::size_t slot, double amps) {
    isources_[slot]->set_current(amps);
  }

 private:
  Circuit* circuit_;
  std::vector<Resistor*> resistors_;
  std::vector<Bjt*> bjts_;
  std::vector<OpAmp*> opamps_;
  std::vector<CurrentSource*> isources_;
};

}  // namespace icvbe::spice
