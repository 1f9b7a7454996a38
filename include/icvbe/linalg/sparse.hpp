#pragma once
// Sparse linear algebra for large MNA systems: a CSR matrix with a
// build-once / restamp-many lifecycle and an LU factorisation with a
// reusable symbolic analysis. Generic over the scalar type (double for
// DC/transient Newton systems, Complex for small-signal AC systems).
//
// The dense solver (matrix.hpp / solve.hpp) stores O(n^2) and refactors
// in O(n^3). An MNA matrix has a handful of entries per row, from the
// paper's 7-unknown test cell to 1e5-node decks; this header provides the
// one engine every SimSession factors with, whatever the circuit size.
//
// Lifecycle, mirroring the dense workspace-reuse discipline:
//  1. building: SparseMatrixT::add(r, c, v) records coordinates (one
//     pattern-discovery stamp of the circuit);
//  2. freeze_pattern(): coordinates are compiled to CSR, duplicates merged;
//  3. steady state: fill(0) + add() re-stamp values into the frozen
//     pattern (binary search over a short sorted row -- allocation-free),
//     and SparseLuFactorizationT::refactor() re-factors numerically along a
//     cached pivot order and fill pattern, also allocation-free.
//
// Scalar genericity: the pattern machinery (COO -> CSR compilation,
// fill-reducing ordering, BTF permutation, fill-pattern discovery) is
// purely structural and identical for every scalar; pivot *selection*
// compares magnitudes (scalar_abs -- a double either way), so the symbolic
// analysis is real-valued for both instantiations and only the numeric
// refactor / solve arithmetic is scalar-typed. An AC frequency sweep
// therefore runs the analysis once at its first stamped frequency and
// re-factors allocation-free at every further point, exactly like a
// Newton loop.
//
// Symbolic scale-up (SparseOptions): the default pre-order is approximate
// minimum degree (AMD) on a quotient graph composed with a block-triangular
// (BTF) permutation, and the trailing fill-dense columns of the factor are
// solved through a dense supernode microkernel. The original exact
// set-based minimum-degree path survives behind SparseOptions::legacy()
// for A/B gating (bench_sparse_solve, test_sparse_ordering).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "icvbe/common/error.hpp"
#include "icvbe/linalg/matrix.hpp"

namespace icvbe::linalg {

/// Compressed-sparse-row matrix with a two-phase lifecycle (see header
/// comment). All coordinate registrations happen while building -- value
/// zero still registers a pattern entry, so a stamp pass at an arbitrary
/// operating point discovers the full structural pattern.
///
/// Thread-safety: no internal synchronisation; one writer at a time.
/// Distinct instances are fully independent (parallel plan workers each
/// restamp their own copy).
template <typename Scalar>
class SparseMatrixT {
 public:
  SparseMatrixT() = default;
  SparseMatrixT(std::size_t rows, std::size_t cols) { resize(rows, cols); }

  /// Reset to an empty building-phase matrix of the given dimensions.
  void resize(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// Number of stored entries (post-freeze: duplicates merged).
  [[nodiscard]] std::size_t nonzeros() const noexcept {
    return frozen_ ? values_.size() : coo_values_.size();
  }

  /// Accumulate v at (r, c). Building phase: registers the coordinate
  /// (allocates). Frozen phase: allocation-free accumulation into the
  /// stored slot; throws Error if (r, c) is outside the frozen pattern.
  /// \pre r < rows(), c < cols().
  void add(std::size_t r, std::size_t c, Scalar v) {
    if (frozen_) {
      values_[slot(r, c)] += v;
    } else {
      add_building(r, c, v);
    }
  }

  /// Compile the recorded coordinates into CSR (sorted columns per row,
  /// duplicates merged by summation in registration order). A stable
  /// bucket sort: O(registrations + rows) plus short per-row sorts. No-op
  /// if already frozen.
  void freeze_pattern();

  /// Thaw back to the building phase, keeping the current entries as
  /// coordinates (topology changed: new devices stamp new positions).
  void unfreeze();

  /// Set every stored value (frozen only); the pattern is untouched.
  /// fill(0.0) is the per-Newton-iteration / per-frequency re-stamp reset.
  void fill(Scalar value);

  /// Value at (r, c); zero outside the pattern (frozen only).
  [[nodiscard]] Scalar at(std::size_t r, std::size_t c) const;

  /// Process-unique pattern identity assigned by freeze_pattern(). The
  /// factorisation compares it to detect that its cached symbolic
  /// analysis still applies (copies share the stamp -- and the CSR).
  [[nodiscard]] std::uint64_t pattern_stamp() const noexcept {
    return pattern_stamp_;
  }

  // Raw CSR access (frozen only).
  [[nodiscard]] const std::vector<int>& row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<int>& col_index() const noexcept {
    return col_index_;
  }
  [[nodiscard]] const std::vector<Scalar>& values() const noexcept {
    return values_;
  }

  /// Dense copy (tests and diagnostics; O(rows * cols)).
  [[nodiscard]] MatrixT<Scalar> to_dense() const;

  /// this * v (frozen only; dimension-checked).
  [[nodiscard]] VectorT<Scalar> multiply(const VectorT<Scalar>& v) const;

  /// Max stored value magnitude (frozen only; 0.0 for an empty pattern).
  [[nodiscard]] double max_abs() const;

  /// CSR slot of (r, c) (frozen only); throws Error if outside the
  /// pattern. Binary search over the (short, sorted) row -- the same
  /// lookup frozen add() uses, exposed so SparseValueBatchT can stamp
  /// lane planes against this pattern. Inline: every device stamp entry
  /// of every Newton iteration goes through it.
  [[nodiscard]] std::size_t slot(std::size_t r, std::size_t c) const {
    ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::add: out of range");
    const int* first = col_index_.data() + row_ptr_[r];
    const int* last = col_index_.data() + row_ptr_[r + 1];
    const int* it = std::lower_bound(first, last, static_cast<int>(c));
    if (it == last || *it != static_cast<int>(c)) outside_pattern();
    return static_cast<std::size_t>(it - col_index_.data());
  }

 private:
  [[noreturn]] static void outside_pattern();
  void add_building(std::size_t r, std::size_t c, Scalar v);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool frozen_ = false;
  std::uint64_t pattern_stamp_ = 0;

  // Building phase: COO triplets in registration order.
  std::vector<std::pair<int, int>> coo_coords_;
  std::vector<Scalar> coo_values_;

  // Frozen phase: CSR.
  std::vector<int> row_ptr_;
  std::vector<int> col_index_;
  std::vector<Scalar> values_;
};

using SparseMatrix = SparseMatrixT<double>;
using ComplexSparseMatrix = SparseMatrixT<Complex>;

extern template class SparseMatrixT<double>;
extern template class SparseMatrixT<Complex>;

/// K value planes over one frozen sparse pattern -- the SoA side of the
/// batched lot solver. Lane l of a lot/corner group stamps its own matrix
/// values into plane l; all K planes share the pattern (and therefore the
/// factorisation's one cached symbolic analysis and pivot sequence).
///
/// Layout is lane-fastest: the K values of pattern slot i are contiguous
/// at values()[i * lanes() + l], so the batched refactor/solve inner loops
/// walk unit-stride across the die lane and vectorise.
///
/// The bound pattern matrix is referenced, not copied -- it must outlive
/// the batch and stay frozen (re-freezing changes the pattern stamp and
/// the batch must be re-bound).
template <typename Scalar>
class SparseValueBatchT {
 public:
  SparseValueBatchT() = default;

  /// Bind to a frozen pattern with `lanes` zeroed value planes.
  /// Allocation happens here (and only here): the per-die steady state --
  /// clear_lane / add / load_lane -- is allocation-free.
  void bind(const SparseMatrixT<Scalar>& pattern, std::size_t lanes);

  [[nodiscard]] bool bound() const noexcept { return pattern_ != nullptr; }
  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }
  [[nodiscard]] std::size_t rows() const noexcept {
    return pattern_ != nullptr ? pattern_->rows() : 0;
  }
  [[nodiscard]] std::size_t nonzeros() const noexcept {
    return pattern_ != nullptr ? pattern_->nonzeros() : 0;
  }
  [[nodiscard]] std::uint64_t pattern_stamp() const noexcept {
    return pattern_ != nullptr ? pattern_->pattern_stamp() : 0;
  }
  [[nodiscard]] const SparseMatrixT<Scalar>& pattern() const;

  /// Zero every value of one lane (the per-Newton-iteration restamp reset
  /// of that lane). Strided by lanes(); allocation-free.
  void clear_lane(std::size_t lane);

  /// Accumulate v at (r, c) in `lane`. Slot must be inside the frozen
  /// pattern (throws Error otherwise, like frozen SparseMatrixT::add).
  void add(std::size_t r, std::size_t c, Scalar v, std::size_t lane) {
    values_[pattern_->slot(r, c) * lanes_ + lane] += v;
  }

  /// Copy a scalar matrix's values into one lane. The matrix must share
  /// the bound pattern (same pattern stamp).
  void load_lane(std::size_t lane, const SparseMatrixT<Scalar>& m);

  [[nodiscard]] const std::vector<Scalar>& values() const noexcept {
    return values_;
  }

 private:
  const SparseMatrixT<Scalar>* pattern_ = nullptr;
  std::size_t lanes_ = 0;
  std::vector<Scalar> values_;  ///< nnz * lanes, lane-fastest
};

using SparseValueBatch = SparseValueBatchT<double>;
using ComplexSparseValueBatch = SparseValueBatchT<Complex>;

extern template class SparseValueBatchT<double>;
extern template class SparseValueBatchT<Complex>;

/// Symbolic pre-order family for SparseLuFactorizationT (structural only,
/// shared by both scalar instantiations; every choice is deterministic).
enum class SparseOrdering {
  kMinDegree,  ///< exact set-based minimum degree (the original O(n^2)-ish
               ///< path; kept for A/B gating and as a fill reference)
  kAmd,        ///< approximate minimum degree on a quotient graph
               ///< (supervariables + external-degree approximation);
               ///< near-linear analysis, the default
};

/// Symbolic-path configuration. The default is the scaled-up path: AMD
/// pre-ordering inside a block-triangular (BTF) permutation with the
/// fill-dense trailing columns routed through a dense supernode
/// microkernel. legacy() reproduces the pre-AMD engine exactly.
struct SparseOptions {
  SparseOrdering ordering = SparseOrdering::kAmd;
  /// Permute to block-triangular form first (maximum transversal + SCC
  /// condensation) and order/factor each diagonal block independently;
  /// pivoting is confined to the current block. Structurally singular
  /// matrices are rejected at the matching, before any numeric work.
  bool btf = true;
  /// Route the trailing dense part of the factor through the supernode
  /// microkernel when at least this many step-space columns qualify
  /// (0 disables the dense kernel entirely).
  int supernode_min = 32;
  /// Factor density (stored entries / B^2) a trailing block must reach to
  /// qualify as the dense supernode. Below ~0.7 the dense kernel's
  /// structural-zero arithmetic outweighs its locality win over the
  /// indexed sparse replay (measured on 1000-node meshes, where 0.5
  /// admitted a block ~40% slower than just replaying it sparse).
  double supernode_density = 0.8;

  /// The original engine: exact minimum degree, no BTF, no supernodes.
  [[nodiscard]] static SparseOptions legacy() noexcept {
    return SparseOptions{SparseOrdering::kMinDegree, false, 0, 0.0};
  }

  friend bool operator==(const SparseOptions&,
                         const SparseOptions&) = default;
};

/// Exact set-based minimum-degree row pre-ordering over the symmetrised
/// pattern (the original default; O(n^2)-ish). Deterministic: ties break
/// on the smallest node index. Exposed for the ordering test harness.
[[nodiscard]] std::vector<int> minimum_degree_order(
    const std::vector<int>& row_ptr, const std::vector<int>& col_index,
    std::size_t n);

/// Approximate minimum degree on a quotient graph over the symmetrised
/// pattern: supervariable detection (indistinguishable-node merging),
/// element absorption, and the external-degree approximation -- the
/// near-linear replacement for minimum_degree_order. Deterministic:
/// (degree, index) min-selection and index-ordered supervariable
/// emission. Exposed for the ordering test harness.
[[nodiscard]] std::vector<int> amd_order(const std::vector<int>& row_ptr,
                                         const std::vector<int>& col_index,
                                         std::size_t n);

/// Block-triangular decomposition of a square pattern: a maximum
/// transversal (row-perfect matching) followed by the SCC condensation of
/// the matched graph. Rows of block b have entries only in columns of
/// blocks >= b, so LU never creates fill across blocks and pivoting can
/// stay block-confined. Purely structural and deterministic.
struct BtfDecomposition {
  /// Rows concatenated block by block (within a block: ascending row id).
  std::vector<int> row_order;
  /// Offsets into row_order, size block_count() + 1.
  std::vector<int> block_ptr;
  /// Block id of each row (and of its matched column).
  std::vector<int> row_block;
  /// Matched column of each row (the maximum transversal).
  std::vector<int> match_col;

  [[nodiscard]] std::size_t block_count() const noexcept {
    return block_ptr.empty() ? 0 : block_ptr.size() - 1;
  }
};

/// Compute the BTF decomposition of a frozen square CSR pattern. Throws
/// NumericalError if the pattern is structurally singular (no perfect
/// matching exists -- no value assignment could make the matrix
/// non-singular).
[[nodiscard]] BtfDecomposition btf_decompose(const std::vector<int>& row_ptr,
                                             const std::vector<int>& col_index,
                                             std::size_t n);

/// Sparse LU with a reusable symbolic analysis, the SPICE-family engine
/// shape (Nagel's SPICE2 reordering, KLU-style refactorisation):
///
///  * analyse once: a block-triangular permutation plus a fill-reducing
///    row pre-ordering per diagonal block (AMD by default; the exact
///    minimum-degree path behind SparseOptions), then an up-looking row
///    factorisation with threshold column pivoting (Markowitz-flavoured:
///    among numerically acceptable pivots the sparsest column wins),
///    pivots confined to the current BTF block. The pivot order, the
///    complete fill-in pattern of L and U, and the trailing dense
///    supernode (if one qualifies) are cached. Pivot acceptability
///    compares magnitudes, so the analysis decisions are real-valued for
///    both scalar instantiations.
///  * refactor() per Newton iteration / AC frequency point: if the matrix
///    pattern matches the cached analysis, a purely numeric
///    re-factorisation runs along the frozen pivot order and pattern -- no
///    allocation, no searching. If a frozen pivot collapses numerically
///    the analysis is redone once with fresh pivoting (allocates; rare),
///    and NumericalError is thrown only if the matrix is genuinely
///    singular to working precision.
///  * unchanged input factors once: refactor() keeps a copy of the values
///    its last successful call factored and returns at once -- no screen,
///    no kernel -- when the analysis still stands, the pattern and
///    pivot_tol are the same and the values are bitwise identical. A
///    linear circuit's Jacobian is constant across a Newton loop and a DC
///    source sweep, so it pays one numeric factorisation per run, not one
///    per iteration. Identical input yields identical factors, so the
///    skip never changes a result.
///
/// Thread-safety: refactor() mutates the cached factors; solve_in_place()
/// is const but uses an internal permutation buffer, so concurrent solves
/// on ONE instance are racy. One instance per thread (the plan-worker
/// discipline) is safe.
template <typename Scalar>
class SparseLuFactorizationT {
 public:
  SparseLuFactorizationT() = default;

  /// Factor a frozen SparseMatrixT. First call (or pattern change) runs the
  /// symbolic analysis; later calls with the same pattern are
  /// allocation-free. Throws NumericalError if A is singular to working
  /// precision: no pivot candidate of some elimination step reaches
  /// pivot_tol times its own column's original max|A| (column-relative,
  /// like the dense engine, so AC systems whose columns legitimately span
  /// many decades are not misdiagnosed).
  /// \pre a.frozen(), a square and non-empty, all values finite (checked:
  ///      non-finite input throws NumericalError deterministically here,
  ///      never surfacing at the first solve).
  /// \post the factors match this matrix's values; a frozen-pivot
  ///       collapse (a pivot below ~sqrt(eps) of its column's max|A|) or
  ///       runaway element growth re-ran the analysis with fresh pivoting
  ///       (allocates; analysis_count() increments).
  /// Early return: if the last call succeeded, the cached analysis still
  /// stands (no invalidate_analysis() or option change since), `a` has the
  /// analysed pattern_stamp(), pivot_tol is the same and memcmp finds the
  /// values identical, the factors already match and nothing runs. The
  /// compare is bitwise, so +0.0 vs -0.0 or a different NaN payload counts
  /// as a change. A call that throws leaves no values to match, so the
  /// next call with the same input screens and factors (and throws) again.
  void refactor(const SparseMatrixT<Scalar>& a, double pivot_tol = 1e-14);

  /// Solve A x = rhs with the solution overwriting rhs; allocation-free.
  /// \pre refactor() has succeeded; rhs.size() == size().
  void solve_in_place(VectorT<Scalar>& rhs) const;

  /// Solve A x = b.
  [[nodiscard]] VectorT<Scalar> solve(const VectorT<Scalar>& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Entries stored in L + U (including fill-in) plus the raw
  /// off-diagonal-block entries a BTF factorisation keeps unfactored
  /// (diagnostic).
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return l_step_.size() + u_step_.size() + n_ + off_step_.size();
  }

  /// How many times the symbolic analysis has run (diagnostic; a steady
  /// Newton loop or AC sweep should see exactly 1).
  [[nodiscard]] int analysis_count() const noexcept {
    return analysis_count_;
  }

  /// How many refactor() calls ran the numeric factorisation rather than
  /// returning early on unchanged values (diagnostic; a collapse that
  /// re-analyses within one call still counts once). A linear circuit's
  /// Newton loop should see 1 per run, a nonlinear one 1 per iteration.
  [[nodiscard]] int numeric_refactor_count() const noexcept {
    return numeric_refactor_count_;
  }

  /// Drop the cached symbolic analysis: the next refactor() re-analyses
  /// with fresh pivoting (allocates), even on unchanged values. Lets a
  /// caller re-pin the analysis to a chosen reference matrix after a
  /// frozen-pivot collapse re-ordered it mid-sweep -- the discipline
  /// SimSession::solve_ac uses to keep every frequency point's
  /// factorisation a pure function of (operating point, frequency, prime
  /// frequency), independent of which sweep point (or parallel worker)
  /// tripped the collapse.
  void invalidate_analysis() noexcept { analyzed_ = false; }

  /// Select the symbolic path (ordering / BTF / supernode thresholds).
  /// Changing the options drops the cached analysis -- the next refactor()
  /// re-analyses under the new configuration. Same-value calls are no-ops,
  /// so sessions may set options unconditionally at rebind.
  void set_options(const SparseOptions& options) noexcept {
    if (!(options == options_)) analyzed_ = false;
    options_ = options;
  }
  [[nodiscard]] const SparseOptions& options() const noexcept {
    return options_;
  }

  /// Diagonal-block count of the analysed pattern (1 when BTF is off or
  /// the pattern is irreducible; diagnostic, valid after a refactor()).
  [[nodiscard]] std::size_t btf_block_count() const noexcept {
    return btf_blocks_;
  }
  /// Step-space columns the dense supernode microkernel covers (0 when no
  /// trailing block qualified; diagnostic, valid after a refactor()).
  [[nodiscard]] std::size_t supernode_size() const noexcept {
    return analyzed_ ? n_ - sn_start_ : 0;
  }

  /// Numeric refactorisation of K value lanes along the one cached pivot
  /// order -- the batched lot kernel. refactor() runs the same kernel with
  /// one lane, so each lane gets the factors refactor() would compute from
  /// its values, to the bit (same column-relative pivot screen, same
  /// growth guard); the inner loops carry all K lanes together through
  /// each elimination step (unit-stride across the lane, vectorisable).
  ///
  /// \pre a cached analysis for batch.pattern() exists: refactor() a
  ///      reference matrix sharing the pattern first. The analysis is
  ///      never redone here -- a lane whose values reject the frozen
  ///      pivots is *flagged*, not re-pivoted, so one bad die can never
  ///      perturb its lane mates' factors.
  /// \param lane_ok in: lanes to factor (non-zero entries); out: 1 iff
  ///        that lane factored cleanly -- finite values, non-zero matrix,
  ///        every frozen pivot above max(pivot_tol, ~sqrt(eps)) times
  ///        the lane's own column max, bounded element growth. Size must equal
  ///        batch.lanes(). The caller re-runs failed lanes through the
  ///        scalar path (which may re-analyse with fresh pivoting).
  /// Allocation-free once called with a given (analysis, lane-count)
  /// shape; the scalar factors from refactor() are left untouched.
  void refactor_batch(const SparseValueBatchT<Scalar>& batch,
                      std::vector<unsigned char>& lane_ok,
                      double pivot_tol = 1e-14);

  /// Solve A_l x_l = rhs_l for all K lanes of the last refactor_batch().
  /// rhs is lane-fastest (entry i of lane l at rhs[i * K + l], K * size()
  /// total) and is overwritten by the solutions. Lanes that failed (or
  /// were inactive in) refactor_batch() receive unspecified values -- the
  /// arithmetic still runs branch-free across all lanes, and a divide by
  /// a rejected pivot stays confined to its own lane. Allocation-free.
  void solve_batch(std::vector<Scalar>& rhs) const;

  /// Lane count of the last refactor_batch() (0 before the first).
  [[nodiscard]] std::size_t batch_lanes() const noexcept {
    return batch_.lanes;
  }

  /// Toggle the explicit-SIMD batched kernels at runtime (double scalar
  /// only; Complex always runs the scalar-lane loops). Defaults to on. The
  /// off position runs refactor_batch / solve_batch through the runtime-K
  /// scalar-lane policy -- results are bit-identical either way, so this
  /// is purely a measurement hook: bench_lot_statistics flips it for the
  /// same-build SIMD-vs-scalar A/B gate, and the equivalence tests pin the
  /// bitwise agreement. refactor() and solve_in_place() ignore it.
  void set_batch_simd(bool on) noexcept { batch_simd_ = on; }
  [[nodiscard]] bool batch_simd() const noexcept { return batch_simd_; }

  /// Rough 1-norm condition estimate via |A|_1 * |A^-1 e|_1 probing --
  /// the same +/-1-vector probe the dense LuFactorizationT uses, so the
  /// two engines report comparable numbers on the same system (held to
  /// within 10x by test_sparse).
  /// \pre refactor() has succeeded. Allocates two temporary vectors.
  [[nodiscard]] double condition_estimate() const;

 private:
  /// The numeric state of one elimination pass over the cached analysis,
  /// for `lanes` value lanes at once. Planes are lane-fastest: the values
  /// of factor slot i sit at [i * lanes, (i + 1) * lanes), so the kernels
  /// walk unit-stride across the lanes. Two instances run through the same
  /// kernels: factors_ is the K = 1 lane refactor() / solve_in_place() use,
  /// batch_ the K lanes of refactor_batch() / solve_batch(), so reference
  /// refactor() calls and batch passes coexist.
  struct ValuePlanes {
    std::size_t lanes = 0;
    std::vector<Scalar> l_val;    ///< L multipliers (unit diagonal implied)
    std::vector<Scalar> u_val;    ///< strict upper U
    std::vector<Scalar> udiag;    ///< U diagonal
    std::vector<Scalar> sn_val;   ///< B x B dense supernode block, row-major
    std::vector<Scalar> off_val;  ///< raw copies of the cross-block entries
    /// Dense scatter row (step space). All zero between passes: every
    /// slot a row scatters into is gathered back by the same row.
    std::vector<Scalar> work;
    std::vector<double> colmax;  ///< per-column max|A|, the pivot scale
    std::vector<double> cap;     ///< per-lane growth cap, 1e8 * max|A|
    std::vector<double> gmax;    ///< per-lane element-growth tracker
    mutable std::vector<Scalar> perm;  ///< solve permutation buffer

    /// Size every plane for `k` lanes of an analysis with the given factor
    /// counts. Same-shape calls change nothing and never allocate.
    void shape(std::size_t k, std::size_t n, std::size_t l_nnz,
               std::size_t u_nnz, std::size_t sn_nnz, std::size_t off_nnz);
  };

  /// Full factorisation with pivot search; caches order + pattern and
  /// shapes factors_ (refactor() then fills it through the kernel). Pivot
  /// acceptability is column-relative: pivot_tol * factors_.colmax.
  void analyze(const SparseMatrixT<Scalar>& a, double pivot_tol);
  [[nodiscard]] bool pattern_matches(const SparseMatrixT<Scalar>& a) const;

  /// Input screen of one pass over `vals` (lane-fastest, the pattern's
  /// nnz x p.lanes): clears lane_ok of every lane holding a non-finite
  /// value, and fills p.colmax and the per-lane growth cap.
  template <typename Ops>
  void screen_input(const SparseMatrixT<Scalar>& pattern, const Scalar* vals,
                    ValuePlanes& p, unsigned char* lane_ok) const;
  /// The one numeric elimination: the sparse replay along the cached
  /// order/pattern up to sn_start_, the dense supernode rows beyond, all
  /// p.lanes lanes per step. A lane fails (lane_ok cleared) on pivot
  /// breakdown (column-relative) or runaway element growth -- the frozen
  /// pivots were chosen for different numerics, e.g. a transient restamp
  /// whose companion conductances dwarf the values the analysis saw.
  /// `early_abort` (one lane only) stops at the first failure and returns
  /// false, with p.work still clean for the re-analysis; otherwise every
  /// step runs and the result is true. The Ops policy fixes the per-lane
  /// FP sequence, which is the same for every policy and lane count.
  template <typename Ops>
  bool refactor_batch_kernel(const SparseMatrixT<Scalar>& pattern,
                             const Scalar* vals, ValuePlanes& p,
                             unsigned char* lane_ok, double pivot_tol,
                             bool early_abort);
  /// Block back-substitution of the p.lanes right-hand sides in rhs
  /// (lane-fastest), overwritten by the solutions.
  template <typename Ops>
  void solve_batch_kernel(const ValuePlanes& p, Scalar* rhs) const;

  std::size_t n_ = 0;
  bool analyzed_ = false;
  int analysis_count_ = 0;
  int numeric_refactor_count_ = 0;
  SparseOptions options_{};
  std::size_t btf_blocks_ = 0;  ///< diagonal blocks of the analysed pattern

  // Identity of the analysed pattern (SparseMatrixT::pattern_stamp is
  // process-unique per freeze, so equality means the same frozen CSR).
  std::uint64_t pattern_stamp_ = 0;

  // Permutations: step k processes row rperm_[k]; the pivot of step k is
  // column cperm_[k] (cstep_ is its inverse).
  std::vector<int> rperm_;
  std::vector<int> cperm_;
  std::vector<int> cstep_;

  // Scatter map: A's CSR entry i lands in working slot astep_[i].
  std::vector<int> astep_;

  // Frozen factor pattern, indexed in pivot-step space (the values live in
  // the ValuePlanes). L has unit diagonal; U's diagonal is the udiag plane.
  std::vector<int> l_ptr_;
  std::vector<int> l_step_;
  std::vector<int> u_ptr_;
  std::vector<int> u_step_;

  // Block-triangular structure. Blocks occupy contiguous step ranges
  // [bstep_ptr_[b], bstep_ptr_[b+1]); the factor above is block-diagonal,
  // and A entries crossing into a *later* block's columns stay unfactored:
  // they are copied raw each refactor (off_val[t] = A value at CSR slot
  // off_a_idx_[t], astep_ is -1 there so the scatter skips them) and
  // applied during block back-substitution in solve (x of later blocks is
  // final by then). That is what makes BTF a fill *win*: cross-block
  // columns never join any elimination pattern. Without blocks,
  // bstep_ptr_ = {0, n} and the off arrays are empty.
  std::vector<int> bstep_ptr_;
  std::vector<int> off_ptr_;    ///< per step: range into the off arrays
  std::vector<int> off_a_idx_;  ///< CSR value slot of each off entry
  std::vector<int> off_step_;   ///< pivot step of the entry's column

  // Trailing dense supernode: steps [sn_start_, n_) of the factor are
  // dense enough that the numeric pass runs them through a row-major
  // B x B dense microkernel (B = n_ - sn_start_) instead of the sparse
  // replay, then mirrors the pattern positions back into the flat factor
  // planes so every solve/estimate path is oblivious to it. sn_start_ ==
  // n_ means no block qualified. The mirror maps are built once per
  // analysis.
  std::size_t sn_start_ = 0;
  std::vector<int> sn_l_idx_;  ///< l_val slots inside the block...
  std::vector<int> sn_l_pos_;  ///< ...and their dense positions
  std::vector<int> sn_u_idx_;  ///< u_val slots inside the block...
  std::vector<int> sn_u_pos_;  ///< ...and their dense positions

  // The input of the last successful refactor(), for its early return on
  // unchanged values. Sized by the analysis (one slot per CSR entry) so
  // the copy never allocates; factored_valid_ is cleared on entry to
  // refactor() and set only once factors_ holds these values' factors.
  std::vector<Scalar> factored_vals_;
  std::vector<int> factored_cols_;  ///< column of each factored_vals_ slot
  double factored_pivot_tol_ = 0.0;
  bool factored_valid_ = false;

  ValuePlanes factors_;  ///< the K = 1 lane: refactor() / solve_in_place()
  ValuePlanes batch_;    ///< refactor_batch() / solve_batch(); 0 lanes before
  bool batch_simd_ = true;  ///< runtime kernel toggle (see set_batch_simd)
};

using SparseLuFactorization = SparseLuFactorizationT<double>;
using ComplexSparseLuFactorization = SparseLuFactorizationT<Complex>;

extern template class SparseLuFactorizationT<double>;
extern template class SparseLuFactorizationT<Complex>;

}  // namespace icvbe::linalg
