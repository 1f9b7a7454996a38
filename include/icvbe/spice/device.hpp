#pragma once
// Device: base class of every circuit element.
//
// Lifecycle per DC solve:
//   1. set_temperature(T)   -- update temperature-dependent parameters
//   2. reset_state()        -- clear junction-limiting memory
//   3. stamp(stamper, prev) -- once per Newton iteration, linearised at prev
//   4. power(solution)      -- dissipation for the electro-thermal loop
//
// Small-signal contract (AC analysis): after a DC operating point has been
// committed, stamp_ac(ac, op) writes the device's *linearised* complex
// admittance into the AC system at ac.omega() -- conductances and
// transconductances evaluated at `op` for the static/nonlinear devices,
// j*omega*C / 1/(j*omega*L) reactances for the dynamic ones, and AC
// stimulus phasors on the RHS for independent sources carrying an AC spec.
// stamp_ac is const and must not touch iteration state: one committed OP
// serves a whole frequency sweep, and parallel sweep workers may share the
// circuit read-only.

#include <memory>
#include <string>

#include "icvbe/spice/stamper.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Update temperature-dependent parameters (default: none).
  virtual void set_temperature(double /*t_kelvin*/) {}

  /// Number of auxiliary (branch-current) unknowns this device needs.
  [[nodiscard]] virtual int aux_count() const { return 0; }

  /// Called by the circuit when unknown indices are assigned.
  void set_first_aux(int index) { first_aux_ = index; }
  [[nodiscard]] int first_aux() const noexcept { return first_aux_; }

  /// Deep copy carrying the full device state (parameters, temperature-
  /// derived values, iteration memory). Aux indices are NOT copied -- the
  /// clone's circuit re-assigns them. Enables per-thread circuit clones
  /// for parallel plan execution (SimSession::run).
  [[nodiscard]] virtual std::unique_ptr<Device> clone() const = 0;

  /// Stamp the linearised model around the previous iterate. Non-const so
  /// nonlinear devices can keep junction-limiting state between iterations.
  virtual void stamp(Stamper& stamper, const Unknowns& prev) = 0;

  /// Stamp the small-signal model linearised at the committed operating
  /// point `op` into the complex AC system at ac.omega() (see the header
  /// comment for the contract). Every device implements this: the matrix
  /// part must agree with the Jacobian stamp() writes at a converged `op`
  /// when omega -> 0 (asserted by test_ac), so the DC and AC views of a
  /// device can never drift apart silently.
  virtual void stamp_ac(AcStamper& ac, const Unknowns& op) const = 0;

  /// True if the device is nonlinear (forces Newton iteration). A device
  /// answering false promises that stamp() writes bitwise the same matrix
  /// and RHS whatever `prev` is: a circuit of such devices is solved in
  /// one undamped step per point (see docs/ARCHITECTURE.md, "The
  /// linear-circuit step").
  [[nodiscard]] virtual bool is_nonlinear() const { return false; }

  // Lane-batched exponential evaluation (BatchDcSession). Junction devices
  // split one stamp into three phases so a whole lane's exp() arguments can
  // run through one vectorized safe_exp_many sweep:
  //   A. collect_exp_args(prev, out) -- run junction limiting against
  //      `prev` (updating limiting state exactly as stamp() would) and
  //      write exp_arg_count() exponent arguments to `out`;
  //   B. the session evaluates safe_exp over every collected argument;
  //   C. stamp_with_exps(stamper, prev, exps) -- stamp consuming the
  //      precomputed safe_exp values, same order as written in phase A.
  // safe_exp_many is element-wise bit-identical to safe_exp, and phases
  // run in original device order, so the three-phase stamp reproduces
  // stamp()'s matrix and RHS bit-for-bit.

  /// Number of exp() arguments this device contributes per evaluation
  /// (0 = device does not participate; stamp() is used directly).
  [[nodiscard]] virtual int exp_arg_count() const { return 0; }
  /// Phase A (see above). Only called when exp_arg_count() > 0.
  virtual void collect_exp_args(const Unknowns& /*prev*/, double* /*out*/) {}
  /// Phase C (see above). Default falls back to the one-shot stamp().
  virtual void stamp_with_exps(Stamper& stamper, const Unknowns& prev,
                               const double* /*exps*/) {
    stamp(stamper, prev);
  }

  /// Clear iteration state before a fresh solve.
  virtual void reset_state() {}

  /// Dissipated power at the given solution [W] (default 0; used by the
  /// electro-thermal self-heating loop).
  [[nodiscard]] virtual double power(const Unknowns& /*x*/) const {
    return 0.0;
  }

 private:
  std::string name_;
  int first_aux_ = -1;
};

}  // namespace icvbe::spice
