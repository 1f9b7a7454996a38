#include "icvbe/spice/sim_session.hpp"

#include <algorithm>
#include <cmath>

#include "icvbe/common/error.hpp"
#include "icvbe/spice/stamper.hpp"
#include "newton_update.hpp"

namespace icvbe::spice {

SimSession::SimSession(Circuit& circuit, NewtonOptions options)
    : circuit_(&circuit), options_(options) {
  rebind();
}

void SimSession::rebind() {
  n_unknowns_ = circuit_->assign_unknowns();
  node_unknowns_ = circuit_->node_count() - 1;
  ICVBE_REQUIRE(n_unknowns_ > 0, "SimSession: circuit has no unknowns");
  bound_device_count_ = circuit_->devices().size();
  linear_ = std::none_of(circuit_->devices().begin(), circuit_->devices().end(),
                         [](const auto& dev) { return dev->is_nonlinear(); });

  const auto n = static_cast<std::size_t>(n_unknowns_);
  b_.assign(n, 0.0);
  x_new_.assign(n, 0.0);
  x_ = Unknowns(n);
  x_stage_ = Unknowns(n);
  result_.solution = Unknowns(n);
  have_last_ = false;

  slu_ = linalg::SparseLuFactorization();
  slu_.set_options(options_.sparse_options);
  // Pattern discovery: one stamp pass registers every (row, col) a device
  // can touch -- stamped values are irrelevant (a zero value still
  // registers its slot), so the zero iterate works. The gmin diagonal
  // slots are part of the pattern too.
  sa_.resize(n, n);
  Stamper st(sa_, b_, node_unknowns_);
  for (const auto& dev : circuit_->devices()) dev->stamp(st, x_);
  for (int i = 0; i < node_unknowns_; ++i) st.add_entry(i, i, 0.0);
  sa_.freeze_pattern();
  // The discovery pass ran device limiting at the zero iterate; wipe that
  // memory and the scratch RHS so the first real solve starts clean.
  for (const auto& dev : circuit_->devices()) dev->reset_state();
  std::fill(b_.begin(), b_.end(), 0.0);

  // Release the complex AC engine; the next solve_ac() rebuilds it at the
  // new size (and re-discovers its pattern).
  ac_ready_ = false;
  cb_ = linalg::ComplexVector();
  csa_ = linalg::ComplexSparseMatrix();
  cslu_ = linalg::ComplexSparseLuFactorization();
  cslu_.set_options(options_.sparse_options);

  vsources_.clear();
  isources_.clear();
  for (const auto& dev : circuit_->devices()) {
    if (auto* v = dynamic_cast<VoltageSource*>(dev.get())) {
      vsources_.push_back(v);
    } else if (auto* i = dynamic_cast<CurrentSource*>(dev.get())) {
      isources_.push_back(i);
    }
  }
  vsource_base_.assign(vsources_.size(), 0.0);
  isource_base_.assign(isources_.size(), 0.0);
}

void SimSession::begin_variant() {
  invalidate_warm_start();
  for (auto& d : circuit_->devices()) d->reset_state();
}

void SimSession::seed_warm_start(const Unknowns& x) {
  if (x.size() == static_cast<std::size_t>(n_unknowns_)) {
    x_ = x;  // same-size copy, no reallocation
    result_.solution = x;
    have_last_ = true;
  }
}

void SimSession::stamp_dc(const Unknowns& x, double gmin) {
  sa_.fill(0.0);
  std::fill(b_.begin(), b_.end(), 0.0);
  Stamper st(sa_, b_, node_unknowns_);
  for (const auto& dev : circuit_->devices()) dev->stamp(st, x);
  for (int i = 0; i < node_unknowns_; ++i) st.add_entry(i, i, gmin);
}

void SimSession::prime_analysis() {
  if (warm_start_enabled_ && have_last_) {
    x_ = result_.solution;
  } else {
    std::fill(x_.raw().begin(), x_.raw().end(), 0.0);
  }
  stamp_dc(x_, options_.gmin_floor);
  try {
    slu_.refactor(sa_);
  } catch (const NumericalError&) {
    // Singular at the start state: the first solve's fallback ladder
    // meets the same matrix and analyses where it can.
  }
  for (const auto& dev : circuit_->devices()) dev->reset_state();
}

bool SimSession::newton_attempt(double gmin, Unknowns& x, int& iterations) {
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    ++iterations;
    stamp_dc(x, gmin);
    try {
      slu_.refactor(sa_);
    } catch (const NumericalError&) {
      return false;
    }
    x_new_ = b_;  // same-size copy into the preallocated solve buffer
    slu_.solve_in_place(x_new_);
    switch (newton_update(options_, node_unknowns_, linear_, iter,
                          x_new_.data(), 1, x)) {
      case NewtonStep::kConverged:
        return true;
      case NewtonStep::kDiverged:
        return false;
      case NewtonStep::kContinue:
        break;
    }
  }
  return false;
}

void SimSession::snapshot_sources() {
  for (std::size_t i = 0; i < vsources_.size(); ++i) {
    vsource_base_[i] = vsources_[i]->voltage();
  }
  for (std::size_t i = 0; i < isources_.size(); ++i) {
    isource_base_[i] = isources_[i]->current();
  }
}

void SimSession::scale_sources(double lambda) {
  for (std::size_t i = 0; i < vsources_.size(); ++i) {
    vsources_[i]->set_voltage(lambda * vsource_base_[i]);
  }
  for (std::size_t i = 0; i < isources_.size(); ++i) {
    isources_[i]->set_current(lambda * isource_base_[i]);
  }
}

const DcResult& SimSession::solve(const Unknowns* initial) {
  if (circuit_->devices().size() != bound_device_count_) {
    throw CircuitError("SimSession: circuit topology changed; call rebind()");
  }

  result_.converged = false;
  result_.iterations = 0;
  result_.strategy.clear();

  // Choose the start point: explicit initial > warm-start continuation >
  // cold (all zeros).
  if (initial != nullptr &&
      initial->size() == static_cast<std::size_t>(n_unknowns_)) {
    x_ = *initial;
  } else if (warm_start_enabled_ && have_last_) {
    x_ = result_.solution;
  } else {
    std::fill(x_.raw().begin(), x_.raw().end(), 0.0);
  }

  // Strategy 1: plain Newton at the floor gmin.
  if (newton_attempt(options_.gmin_floor, x_, result_.iterations)) {
    result_.solution = x_;
    result_.converged = true;
    result_.strategy = "newton";
    have_last_ = true;
    return result_;
  }

  // Strategy 2: gmin stepping, warm-starting each stage.
  {
    std::fill(x_stage_.raw().begin(), x_stage_.raw().end(), 0.0);
    bool ok = true;
    double gmin = 1e-2;
    for (int step = 0; step <= options_.gmin_steps; ++step) {
      for (const auto& dev : circuit_->devices()) dev->reset_state();
      if (!newton_attempt(gmin, x_stage_, result_.iterations)) {
        ok = false;
        break;
      }
      if (gmin <= options_.gmin_floor) break;
      gmin = std::max(gmin * 0.04, options_.gmin_floor);
    }
    if (ok) {
      result_.solution = x_stage_;
      result_.converged = true;
      result_.strategy = "gmin";
      have_last_ = true;
      return result_;
    }
  }

  // Strategy 3: source stepping at floor gmin.
  {
    snapshot_sources();
    // Restore the nominal source values on every exit path, including an
    // exception escaping the loop (the guarantee the legacy RAII
    // SourceScaler gave): a long-lived session must never leak a scaled
    // circuit into subsequent solves.
    struct RestoreSources {
      SimSession* session;
      ~RestoreSources() { session->scale_sources(1.0); }
    } restore{this};
    std::fill(x_stage_.raw().begin(), x_stage_.raw().end(), 0.0);
    bool ok = true;
    for (int step = 1; step <= options_.source_steps; ++step) {
      const double lambda = static_cast<double>(step) /
                            static_cast<double>(options_.source_steps);
      scale_sources(lambda);
      for (const auto& dev : circuit_->devices()) dev->reset_state();
      if (!newton_attempt(options_.gmin_floor, x_stage_,
                          result_.iterations)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      result_.solution = x_stage_;
      result_.converged = true;
      result_.strategy = "source";
      have_last_ = true;
      return result_;
    }
  }

  return result_;  // converged == false
}

const linalg::ComplexVector& SimSession::solve_ac(double omega) {
  if (circuit_->devices().size() != bound_device_count_) {
    throw CircuitError("SimSession: circuit topology changed; call rebind()");
  }
  // The small-signal system linearises about a committed operating point:
  // the last converged solution, a seeded warm start (the parallel AC
  // sweep workers' path -- they inherit the parent's OP verbatim so every
  // thread count produces bit-identical phasors), or a fresh OP solve.
  if (!have_last_) (void)solve_or_throw();
  const Unknowns& op = result_.solution;

  const auto n = static_cast<std::size_t>(n_unknowns_);
  if (!ac_ready_) {
    cb_.assign(n, linalg::Complex{});
    // Pattern discovery, mirroring the real engine: one stamp_ac pass
    // registers every slot (zero values included), gmin diagonal too.
    csa_.resize(n, n);
    AcStamper st(csa_, cb_, node_unknowns_, omega);
    for (const auto& dev : circuit_->devices()) dev->stamp_ac(st, op);
    for (int i = 0; i < node_unknowns_; ++i) {
      st.add_entry(i, i, linalg::Complex{});
    }
    csa_.freeze_pattern();
    std::fill(cb_.begin(), cb_.end(), linalg::Complex{});
    ac_ready_ = true;
  }

  const auto stamp_at = [&](double w) {
    csa_.fill(linalg::Complex{});
    std::fill(cb_.begin(), cb_.end(), linalg::Complex{});
    AcStamper st(csa_, cb_, node_unknowns_, w);
    for (const auto& dev : circuit_->devices()) dev->stamp_ac(st, op);
    for (int i = 0; i < node_unknowns_; ++i) {
      st.add_entry(i, i, linalg::Complex(options_.gmin_floor));
    }
  };

  // Bit-identity discipline: the cached symbolic analysis belongs to the
  // first stamped frequency (the sweep's prime). If a previous point's
  // refactor collapsed the frozen pivots and re-analysed at its own
  // frequency, re-pin a fresh analysis at the prime before this point --
  // every point's factorisation then depends only on (op, omega, prime
  // omega), never on sweep order or which parallel worker tripped the
  // collapse.
  const bool primed = cslu_.analysis_count() > 0;
  if (primed && cslu_.analysis_count() != ac_pinned_analysis_) {
    cslu_.invalidate_analysis();
    stamp_at(ac_prime_omega_);
    cslu_.refactor(csa_);
    ac_pinned_analysis_ = cslu_.analysis_count();
  }
  stamp_at(omega);
  cslu_.refactor(csa_);
  if (!primed) {
    ac_prime_omega_ = omega;
    ac_pinned_analysis_ = cslu_.analysis_count();
  }
  cslu_.solve_in_place(cb_);
  return cb_;
}

const Unknowns& SimSession::solve_or_throw(const Unknowns* initial) {
  const DcResult& r = solve(initial);
  if (!r.converged) {
    throw NumericalError("DC operating point failed to converge after " +
                         std::to_string(r.iterations) + " iterations");
  }
  return r.solution;
}

Series SimSession::sweep(const std::vector<double>& values,
                         const SweepSetter& setter, const SweepProbe& probe,
                         const std::string& name) {
  Series out(name);
  out.reserve(values.size());
  for (double v : values) {
    setter(v);
    const DcResult& r = solve();
    if (!r.converged) {
      throw NumericalError(name + ": DC solve failed at sweep value " +
                           std::to_string(v));
    }
    out.push_back(v, probe(*circuit_, r.solution));
  }
  return out;
}

}  // namespace icvbe::spice
