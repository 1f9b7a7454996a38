#pragma once
// The per-iterate epilogue of a DC Newton iteration, shared by
// SimSession::newton_attempt and every lane of BatchDcSession::solve_active
// so the scalar and batched paths take bit-identical steps.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "icvbe/linalg/matrix.hpp"
#include "icvbe/spice/sim_session.hpp"
#include "icvbe/spice/unknowns.hpp"

namespace icvbe::spice {

/// What one Newton update decided about its iterate.
enum class NewtonStep {
  kContinue,   ///< not converged yet; iterate again
  kConverged,  ///< x is the operating point
  kDiverged,   ///< x went non-finite; the attempt failed
};

/// Move iterate `x` towards the linear solve's result `x_new` (element i
/// at x_new[i * stride], so a lane of a lane-fastest RHS plane reads in
/// place) and judge convergence at Newton iteration `iter` (0-based).
///
/// A linear circuit (no device is_nonlinear()) stamps the same system at
/// every iterate, so the solve is the operating point: x takes x_new
/// as-is, undamped, with no confirming iteration. A nonlinear one damps the
/// step so no node voltage moves more than max_step_volts (junction
/// limiting inside the devices handles the exponentials) and converges on
/// an undamped step within tolerance, from the second iteration on.
inline NewtonStep newton_update(const NewtonOptions& opt, int node_unknowns,
                                bool linear, int iter, const double* x_new,
                                std::size_t stride, Unknowns& x) {
  auto& xr = x.raw();
  const std::size_t n = xr.size();
  if (linear) {
    for (std::size_t i = 0; i < n; ++i) xr[i] = x_new[i * stride];
    return std::isfinite(linalg::norm_inf(xr)) ? NewtonStep::kConverged
                                               : NewtonStep::kDiverged;
  }

  const auto nodes = static_cast<std::size_t>(node_unknowns);
  double max_node_dx = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    max_node_dx = std::max(max_node_dx, std::abs(x_new[i * stride] - xr[i]));
  }
  double scale = 1.0;
  if (max_node_dx > opt.max_step_volts) {
    scale = opt.max_step_volts / max_node_dx;
  }

  bool converged = (iter > 0);  // require at least two iterations
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = xr[i];
    const double xn = xi + scale * (x_new[i * stride] - xi);
    const double dx = std::abs(xn - xi);
    const double abstol = (i < nodes) ? opt.v_abstol : opt.i_abstol;
    const double tol =
        abstol + opt.reltol * std::max(std::abs(xi), std::abs(xn));
    if (dx > tol) converged = false;
    xr[i] = xn;
  }
  if (!std::isfinite(linalg::norm_inf(xr))) return NewtonStep::kDiverged;
  return converged && scale == 1.0 ? NewtonStep::kConverged
                                   : NewtonStep::kContinue;
}

}  // namespace icvbe::spice
