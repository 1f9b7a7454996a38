#pragma once
// Dense-LU oracle for the sparse MNA engine (test support).
//
// Every session factors with the sparse LU, so the equivalence tests
// judge it against the dense LuFactorizationT on the very system the
// session solves: re-stamp the circuit at a solved point, expand the
// stamp with to_dense() and solve it densely. At a converged Newton point
// the dense step lands on the dense engine's root, so its distance to the
// sparse solution measures the sparse engine's error directly.

#include "icvbe/linalg/solve.hpp"
#include "icvbe/linalg/sparse.hpp"
#include "icvbe/spice/circuit.hpp"
#include "icvbe/spice/stamper.hpp"

namespace icvbe::spice {

/// One dense Newton step of `circuit`'s DC (or transient companion) system
/// from iterate `x`, with `gmin` on every node diagonal as the session
/// stamps it.
inline Unknowns dense_newton_image(Circuit& circuit, const Unknowns& x,
                                   double gmin) {
  const int node_unknowns = circuit.node_count() - 1;
  linalg::SparseMatrix a(x.size(), x.size());
  linalg::Vector b(x.size(), 0.0);
  Stamper st(a, b, node_unknowns);
  for (const auto& dev : circuit.devices()) dev->stamp(st, x);
  for (int i = 0; i < node_unknowns; ++i) st.add_entry(i, i, gmin);
  a.freeze_pattern();
  linalg::LuFactorization lu;
  lu.refactor(a.to_dense());
  lu.solve_in_place(b);
  Unknowns out(x.size());
  out.raw() = b;
  return out;
}

/// Small-signal phasors of `circuit` about operating point `op` at angular
/// frequency `omega`, solved with the dense complex LU.
inline linalg::ComplexVector dense_ac_solution(const Circuit& circuit,
                                               const Unknowns& op,
                                               double omega, double gmin) {
  const int node_unknowns = circuit.node_count() - 1;
  linalg::ComplexSparseMatrix a(op.size(), op.size());
  linalg::ComplexVector b(op.size(), linalg::Complex{});
  AcStamper st(a, b, node_unknowns, omega);
  for (const auto& dev : circuit.devices()) dev->stamp_ac(st, op);
  for (int i = 0; i < node_unknowns; ++i) {
    st.add_entry(i, i, linalg::Complex(gmin));
  }
  a.freeze_pattern();
  linalg::ComplexLuFactorization lu;
  lu.refactor(a.to_dense());
  lu.solve_in_place(b);
  return b;
}

}  // namespace icvbe::spice
