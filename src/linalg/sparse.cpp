#include "icvbe/linalg/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <type_traits>

#include "icvbe/common/error.hpp"
#include "icvbe/common/simd.hpp"

namespace icvbe::linalg {

namespace {

/// Process-unique pattern stamps, shared across scalar instantiations so a
/// stamp value identifies one frozen CSR no matter which engine holds it.
std::atomic<std::uint64_t> g_next_pattern_stamp{1};

/// Stable sort of one CSR row's (column, value) pairs by column. MNA rows
/// are short, so insertion sort; a long row (a node many devices touch)
/// goes through std::stable_sort instead of paying the quadratic shifts.
template <typename Scalar>
void stable_sort_row(int* cols, Scalar* vals, std::size_t k) {
  constexpr std::size_t kInsertionMax = 32;
  if (k <= kInsertionMax) {
    for (std::size_t i = 1; i < k; ++i) {
      const int c = cols[i];
      const Scalar v = vals[i];
      std::size_t j = i;
      for (; j > 0 && cols[j - 1] > c; --j) {
        cols[j] = cols[j - 1];
        vals[j] = vals[j - 1];
      }
      cols[j] = c;
      vals[j] = v;
    }
    return;
  }
  std::vector<std::pair<int, Scalar>> row(k);
  for (std::size_t i = 0; i < k; ++i) row[i] = {cols[i], vals[i]};
  std::stable_sort(row.begin(), row.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  for (std::size_t i = 0; i < k; ++i) {
    cols[i] = row[i].first;
    vals[i] = row[i].second;
  }
}

}  // namespace

// ------------------------------------------------------ SparseMatrixT ---

template <typename Scalar>
void SparseMatrixT<Scalar>::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  frozen_ = false;
  coo_coords_.clear();
  coo_values_.clear();
  row_ptr_.clear();
  col_index_.clear();
  values_.clear();
}

template <typename Scalar>
void SparseMatrixT<Scalar>::add_building(std::size_t r, std::size_t c,
                                         Scalar v) {
  ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::add: out of range");
  coo_coords_.emplace_back(static_cast<int>(r), static_cast<int>(c));
  coo_values_.push_back(v);
}

template <typename Scalar>
void SparseMatrixT<Scalar>::outside_pattern() {
  throw Error("SparseMatrix::add: entry outside the frozen pattern");
}

template <typename Scalar>
void SparseMatrixT<Scalar>::freeze_pattern() {
  if (frozen_) return;

  // Stable bucket sort of the registrations: a counting pass by row drops
  // each (col, value) into its row's bucket in registration order, then a
  // stable per-row sort by column puts repeated registrations of one slot
  // next to each other, still in registration order, so merging sums them
  // in that order.
  const std::size_t n = coo_coords_.size();
  row_ptr_.assign(rows_ + 1, 0);
  for (const auto& rc : coo_coords_) {
    ++row_ptr_[static_cast<std::size_t>(rc.first) + 1];
  }
  for (std::size_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  std::vector<int> next(row_ptr_.begin(), row_ptr_.end() - 1);
  col_index_.resize(n);
  values_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [r, c] = coo_coords_[i];
    int& cursor = next[static_cast<std::size_t>(r)];
    const auto at = static_cast<std::size_t>(cursor++);
    col_index_[at] = c;
    values_[at] = coo_values_[i];
  }

  // Sort each row by column, then merge duplicates, compacting in place.
  std::size_t out = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto begin = static_cast<std::size_t>(row_ptr_[r]);
    const auto end = static_cast<std::size_t>(row_ptr_[r + 1]);
    stable_sort_row(col_index_.data() + begin, values_.data() + begin,
                    end - begin);
    row_ptr_[r] = static_cast<int>(out);
    for (std::size_t i = begin; i < end; ++i) {
      if (out > static_cast<std::size_t>(row_ptr_[r]) &&
          col_index_[out - 1] == col_index_[i]) {
        values_[out - 1] += values_[i];  // repeated registration of a slot
        continue;
      }
      col_index_[out] = col_index_[i];
      values_[out] = values_[i];
      ++out;
    }
  }
  row_ptr_[rows_] = static_cast<int>(out);
  col_index_.resize(out);
  values_.resize(out);

  coo_coords_.clear();
  coo_coords_.shrink_to_fit();
  coo_values_.clear();
  coo_values_.shrink_to_fit();
  frozen_ = true;
  pattern_stamp_ = g_next_pattern_stamp.fetch_add(1, std::memory_order_relaxed);
}

template <typename Scalar>
void SparseMatrixT<Scalar>::unfreeze() {
  if (!frozen_) return;
  coo_coords_.clear();
  coo_values_.clear();
  coo_coords_.reserve(values_.size());
  coo_values_.reserve(values_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      coo_coords_.emplace_back(static_cast<int>(r),
                               col_index_[static_cast<std::size_t>(i)]);
      coo_values_.push_back(values_[static_cast<std::size_t>(i)]);
    }
  }
  row_ptr_.clear();
  col_index_.clear();
  values_.clear();
  frozen_ = false;
}

template <typename Scalar>
void SparseMatrixT<Scalar>::fill(Scalar value) {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::fill: freeze_pattern() first");
  std::fill(values_.begin(), values_.end(), value);
}

template <typename Scalar>
Scalar SparseMatrixT<Scalar>::at(std::size_t r, std::size_t c) const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::at: freeze_pattern() first");
  ICVBE_REQUIRE(r < rows_ && c < cols_, "SparseMatrix::at: out of range");
  const int* first = col_index_.data() + row_ptr_[r];
  const int* last = col_index_.data() + row_ptr_[r + 1];
  const int* it = std::lower_bound(first, last, static_cast<int>(c));
  if (it == last || *it != static_cast<int>(c)) return Scalar{};
  return values_[static_cast<std::size_t>(it - col_index_.data())];
}

template <typename Scalar>
MatrixT<Scalar> SparseMatrixT<Scalar>::to_dense() const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::to_dense: freeze_pattern() first");
  MatrixT<Scalar> m(rows_, cols_, Scalar{});
  for (std::size_t r = 0; r < rows_; ++r) {
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      m(r, static_cast<std::size_t>(col_index_[static_cast<std::size_t>(i)])) =
          values_[static_cast<std::size_t>(i)];
    }
  }
  return m;
}

template <typename Scalar>
VectorT<Scalar> SparseMatrixT<Scalar>::multiply(
    const VectorT<Scalar>& v) const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::multiply: freeze_pattern() first");
  ICVBE_REQUIRE(v.size() == cols_, "SparseMatrix::multiply: size mismatch");
  VectorT<Scalar> out(rows_, Scalar{});
  for (std::size_t r = 0; r < rows_; ++r) {
    Scalar acc{};
    for (int i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      acc += values_[static_cast<std::size_t>(i)] *
             v[static_cast<std::size_t>(col_index_[static_cast<std::size_t>(i)])];
    }
    out[r] = acc;
  }
  return out;
}

template <typename Scalar>
double SparseMatrixT<Scalar>::max_abs() const {
  ICVBE_REQUIRE(frozen_, "SparseMatrix::max_abs: freeze_pattern() first");
  double m = 0.0;
  for (const Scalar& v : values_) m = std::max(m, scalar_abs(v));
  return m;
}

template class SparseMatrixT<double>;
template class SparseMatrixT<Complex>;

// ------------------------------------------------- SparseValueBatchT ---

template <typename Scalar>
void SparseValueBatchT<Scalar>::bind(const SparseMatrixT<Scalar>& pattern,
                                     std::size_t lanes) {
  ICVBE_REQUIRE(pattern.frozen(),
                "SparseValueBatch: freeze_pattern() before binding");
  ICVBE_REQUIRE(lanes > 0, "SparseValueBatch: need at least one lane");
  pattern_ = &pattern;
  lanes_ = lanes;
  values_.assign(pattern.nonzeros() * lanes, Scalar{});
}

template <typename Scalar>
const SparseMatrixT<Scalar>& SparseValueBatchT<Scalar>::pattern() const {
  ICVBE_REQUIRE(pattern_ != nullptr, "SparseValueBatch: bind() first");
  return *pattern_;
}

template <typename Scalar>
void SparseValueBatchT<Scalar>::clear_lane(std::size_t lane) {
  ICVBE_REQUIRE(lane < lanes_, "SparseValueBatch: lane out of range");
  // Blocked walk: one running pointer, four slots per trip. The naive
  // v[i * lanes_] form re-derives the address every element and carries a
  // loop-length dependency the compiler cannot break at runtime K; this
  // shape is measurably faster at campaign nnz (K = 8, ~4e5 entries).
  Scalar* v = values_.data() + lane;
  const std::size_t nnz = values_.size() / lanes_;
  const std::size_t k = lanes_;
  std::size_t i = 0;
  for (; i + 4 <= nnz; i += 4, v += 4 * k) {
    v[0] = Scalar{};
    v[k] = Scalar{};
    v[2 * k] = Scalar{};
    v[3 * k] = Scalar{};
  }
  for (; i < nnz; ++i, v += k) *v = Scalar{};
}

template <typename Scalar>
void SparseValueBatchT<Scalar>::load_lane(std::size_t lane,
                                          const SparseMatrixT<Scalar>& m) {
  ICVBE_REQUIRE(lane < lanes_, "SparseValueBatch: lane out of range");
  ICVBE_REQUIRE(pattern_ != nullptr && m.pattern_stamp() == pattern_stamp(),
                "SparseValueBatch::load_lane: pattern mismatch");
  const std::vector<Scalar>& src = m.values();
  Scalar* v = values_.data() + lane;
  const std::size_t k = lanes_;
  std::size_t i = 0;
  for (; i + 4 <= src.size(); i += 4, v += 4 * k) {  // blocked, as above
    v[0] = src[i];
    v[k] = src[i + 1];
    v[2 * k] = src[i + 2];
    v[3 * k] = src[i + 3];
  }
  for (; i < src.size(); ++i, v += k) *v = src[i];
}

template class SparseValueBatchT<double>;
template class SparseValueBatchT<Complex>;

// -------------------------------------------- SparseLuFactorizationT ---

namespace {

/// Relative numeric threshold for the Markowitz-flavoured pivot choice:
/// among candidates within this factor of the largest available pivot the
/// structurally sparsest column wins. SPICE tradition uses 0.1; 0.5 buys
/// roughly two digits of factor accuracy on 1000-node meshes (measured
/// dense-vs-sparse agreement 1e-14 vs 1e-10) for a modest fill increase,
/// which the tight-tolerance equivalence suite relies on.
constexpr double kPivotRelThreshold = 0.5;

/// Hard cap on the dense supernode edge: a B x B Scalar block is
/// materialised (and the batched kernel multiplies that by K lanes), so
/// the kernel stays within a few MB per instance no matter the matrix.
constexpr std::size_t kSupernodeMaxDim = 1024;

/// Symmetrised pattern as sorted, deduplicated adjacency lists (no self
/// loops) -- the graph both fill-reducing orderings run on.
std::vector<std::vector<int>> symmetrized_adjacency(
    const std::vector<int>& row_ptr, const std::vector<int>& col_index,
    std::size_t n) {
  std::vector<std::vector<int>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (static_cast<std::size_t>(c) != r) {
        adj[r].push_back(c);
        adj[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
      }
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

/// Exact minimum degree over explicit adjacency sets (the original
/// default's algorithm body, unchanged: one-time cost, so clarity beats
/// the quotient-graph refinements -- which is exactly why it is now the
/// legacy path). Ties break on the smallest node index, keeping the order
/// fully deterministic.
std::vector<int> md_order_core(std::size_t n, std::vector<std::set<int>> adj) {
  std::vector<char> eliminated(n, 0);
  std::vector<int> order;
  order.reserve(n);
  std::vector<int> clique;
  for (std::size_t step = 0; step < n; ++step) {
    int best = -1;
    std::size_t best_deg = n + 1;
    for (std::size_t v = 0; v < n; ++v) {
      if (!eliminated[v] && adj[v].size() < best_deg) {
        best = static_cast<int>(v);
        best_deg = adj[v].size();
      }
    }
    eliminated[static_cast<std::size_t>(best)] = 1;
    order.push_back(best);

    // Eliminating `best` couples its remaining neighbours into a clique.
    clique.assign(adj[static_cast<std::size_t>(best)].begin(),
                  adj[static_cast<std::size_t>(best)].end());
    for (int u : clique) adj[static_cast<std::size_t>(u)].erase(best);
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        adj[static_cast<std::size_t>(clique[i])].insert(clique[j]);
        adj[static_cast<std::size_t>(clique[j])].insert(clique[i]);
      }
    }
    adj[static_cast<std::size_t>(best)].clear();
  }
  return order;
}

std::vector<int> md_order_graph(std::size_t n,
                                const std::vector<std::vector<int>>& vadj) {
  std::vector<std::set<int>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    adj[v].insert(vadj[v].begin(), vadj[v].end());
  }
  return md_order_core(n, std::move(adj));
}

/// Approximate minimum degree on a quotient graph (Amestoy/Davis/Duff
/// shape): eliminated pivots survive as *elements* (their neighbourhood
/// clique represented implicitly), indistinguishable variables merge into
/// *supervariables* (one elimination covers all members), and degrees are
/// the external-degree approximation computed with the |Le \ Lp| counter
/// trick -- each pivot costs work proportional to the size of the
/// structures it touches instead of the clique it would materialise.
///
/// Determinism: pivot selection is exact (degree, index) min via a
/// lazy-deletion heap, supervariable candidates are scanned in sorted
/// (hash, index) order, and each supervariable emits its members in
/// ascending index order. Input adjacency must be sorted/deduplicated
/// (symmetrized_adjacency's output); it is consumed in place.
std::vector<int> amd_order_graph(std::size_t n,
                                 std::vector<std::vector<int>> vadj) {
  std::vector<int> order;
  order.reserve(n);
  if (n == 0) return order;

  std::vector<long long> nv(n, 1);  ///< supervariable weight
  std::vector<char> is_elem(n, 0);
  std::vector<char> absorbed(n, 0);
  std::vector<char> dead_elem(n, 0);
  std::vector<std::vector<int>> eadj(n);   ///< live var -> adjacent elements
  std::vector<std::vector<int>> elist(n);  ///< element -> member variables
  std::vector<long long> esize(n, 0);      ///< element -> live member weight
  std::vector<long long> degree(n, 0);     ///< external-degree approximation
  std::vector<long long> wde(n, -1);       ///< |Le \ Lp| scratch per element
  std::vector<char> mark(n, 0);
  std::vector<int> merge_head(n, -1);      ///< absorbed-children chain...
  std::vector<int> merge_next(n, -1);      ///< ...for supervariable emission
  std::vector<std::uint64_t> hash(n, 0);

  using Entry = std::pair<long long, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  for (std::size_t v = 0; v < n; ++v) {
    degree[v] = static_cast<long long>(vadj[v].size());
    pq.push({degree[v], static_cast<int>(v)});
  }

  // Sorted-list equality modulo {skip_a, skip_b} and absorbed entries --
  // the indistinguishability test (covers both adjacent supervariable
  // pairs, where each list holds the other, and non-adjacent twins).
  const auto filtered_equal = [&absorbed](const std::vector<int>& a,
                                          const std::vector<int>& b,
                                          int skip_a, int skip_b) {
    std::size_t x = 0;
    std::size_t y = 0;
    while (true) {
      while (x < a.size() &&
             (a[x] == skip_a || a[x] == skip_b ||
              absorbed[static_cast<std::size_t>(a[x])])) {
        ++x;
      }
      while (y < b.size() &&
             (b[y] == skip_a || b[y] == skip_b ||
              absorbed[static_cast<std::size_t>(b[y])])) {
        ++y;
      }
      if (x == a.size() || y == b.size()) {
        return x == a.size() && y == b.size();
      }
      if (a[x] != b[y]) return false;
      ++x;
      ++y;
    }
  };

  std::vector<int> lp;       ///< live neighbourhood of the pivot
  std::vector<int> touched;  ///< elements whose wde is set this round
  std::vector<int> emit;
  long long remaining = static_cast<long long>(n);

  while (order.size() < n) {
    // Lazy-deletion min-heap: entries are pushed on every degree change;
    // one is valid iff its node is live and the degree still matches.
    int p = -1;
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      const std::size_t sv = static_cast<std::size_t>(v);
      if (!is_elem[sv] && !absorbed[sv] && d == degree[sv]) {
        p = v;
        break;
      }
    }
    ICVBE_REQUIRE(p >= 0, "amd_order: no live pivot left");
    const std::size_t sp = static_cast<std::size_t>(p);

    // Lp: the pivot's live neighbourhood -- its variable neighbours plus
    // every live member of its adjacent elements. Each such element's
    // members all land in Lp, so the element is absorbed by the new one.
    lp.clear();
    mark[sp] = 1;
    for (int v : vadj[sp]) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
      mark[sv] = 1;
      lp.push_back(v);
    }
    for (int e : eadj[sp]) {
      const std::size_t se = static_cast<std::size_t>(e);
      if (dead_elem[se]) continue;
      for (int v : elist[se]) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
        mark[sv] = 1;
        lp.push_back(v);
      }
      dead_elem[se] = 1;  // Le is a subset of Lp + pivot: absorbed
      elist[se].clear();
    }
    long long lpw = 0;
    for (int v : lp) lpw += nv[static_cast<std::size_t>(v)];

    // w[e] = |Le \ Lp| in weight for every element adjacent to Lp (the
    // counter trick: start at the element's live weight, subtract each Lp
    // member it contains).
    touched.clear();
    for (int i : lp) {
      for (int e : eadj[static_cast<std::size_t>(i)]) {
        const std::size_t se = static_cast<std::size_t>(e);
        if (dead_elem[se]) continue;
        if (wde[se] < 0) {
          wde[se] = esize[se];
          touched.push_back(e);
        }
        wde[se] -= nv[static_cast<std::size_t>(i)];
      }
    }

    // Per-member update: prune dead state from the quotient graph and
    // recompute the approximate external degree
    //   d(i) ~ |A_i \ Lp| + |Lp \ i| + sum_e |Le \ Lp|,
    // clamped by the exact bounds (remaining weight; old degree + new
    // element contribution).
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      auto& va = vadj[si];
      std::size_t wv = 0;
      long long aw = 0;
      for (int v : va) {
        const std::size_t sv = static_cast<std::size_t>(v);
        if (absorbed[sv] || is_elem[sv] || mark[sv]) continue;
        va[wv++] = v;
        aw += nv[sv];
      }
      va.resize(wv);
      auto& ea = eadj[si];
      std::size_t we = 0;
      long long esum = 0;
      for (int e : ea) {
        const std::size_t se = static_cast<std::size_t>(e);
        if (dead_elem[se]) continue;
        if (wde[se] == 0) {
          // Everything the element covers is already in Lp: absorbed.
          dead_elem[se] = 1;
          elist[se].clear();
          continue;
        }
        ea[we++] = e;
        esum += wde[se];
      }
      ea.resize(we);
      ea.push_back(p);
      std::sort(ea.begin(), ea.end());
      long long d = aw + (lpw - nv[si]) + esum;
      d = std::min(d, remaining - nv[sp] - nv[si]);
      d = std::min(d, degree[si] + (lpw - nv[si]));
      degree[si] = std::max<long long>(d, 0);
    }

    // Supervariable detection among Lp's members: identical quotient-graph
    // adjacency (modulo each other) means the nodes are indistinguishable
    // and can be eliminated as one. Hash buckets keep the scan cheap; the
    // comparison itself is exact, so a hash miss only costs a merge.
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      std::uint64_t h =
          0x9e3779b97f4a7c15ull * (vadj[si].size() + 31 * eadj[si].size() + 1);
      for (int v : vadj[si]) {
        h += 0x100000001b3ull * static_cast<std::uint64_t>(v + 1);
      }
      for (int e : eadj[si]) {
        h += 0x100000001b3ull * static_cast<std::uint64_t>(e + 1);
      }
      hash[si] = h;
    }
    std::sort(lp.begin(), lp.end(), [&hash](int a, int b) {
      const std::uint64_t ha = hash[static_cast<std::size_t>(a)];
      const std::uint64_t hb = hash[static_cast<std::size_t>(b)];
      return ha != hb ? ha < hb : a < b;
    });
    for (std::size_t bi = 0; bi < lp.size();) {
      std::size_t bj = bi + 1;
      while (bj < lp.size() &&
             hash[static_cast<std::size_t>(lp[bj])] ==
                 hash[static_cast<std::size_t>(lp[bi])]) {
        ++bj;
      }
      for (std::size_t x = bi; x < bj; ++x) {
        const int i = lp[x];
        const std::size_t si = static_cast<std::size_t>(i);
        if (absorbed[si]) continue;
        for (std::size_t y = x + 1; y < bj; ++y) {
          const int j = lp[y];
          const std::size_t sj = static_cast<std::size_t>(j);
          if (absorbed[sj]) continue;
          if (eadj[si].size() != eadj[sj].size() ||
              !std::equal(eadj[si].begin(), eadj[si].end(),
                          eadj[sj].begin()) ||
              !filtered_equal(vadj[si], vadj[sj], i, j)) {
            continue;
          }
          // Merge j into i: i's one elimination will cover both.
          nv[si] += nv[sj];
          degree[si] -= nv[sj];
          absorbed[sj] = 1;
          merge_next[j] = merge_head[i];
          merge_head[i] = j;
          vadj[sj].clear();
          eadj[sj].clear();
        }
      }
      bi = bj;
    }

    // Re-queue the surviving members at their new degrees.
    for (int i : lp) {
      const std::size_t si = static_cast<std::size_t>(i);
      if (absorbed[si]) continue;
      pq.push({degree[si], i});
    }

    // The pivot becomes an element whose members are Lp's survivors (the
    // merges conserved the weight).
    is_elem[sp] = 1;
    elist[sp].clear();
    for (int v : lp) {
      if (!absorbed[static_cast<std::size_t>(v)]) elist[sp].push_back(v);
    }
    esize[sp] = lpw;
    vadj[sp].clear();
    eadj[sp].clear();

    // Reset the round's scratch.
    mark[sp] = 0;
    for (int v : lp) mark[static_cast<std::size_t>(v)] = 0;
    for (int e : touched) wde[static_cast<std::size_t>(e)] = -1;

    // Emit the pivot supervariable: p plus everything ever merged into it
    // (transitively), in ascending index order.
    emit.clear();
    emit.push_back(p);
    for (std::size_t head = 0; head < emit.size(); ++head) {
      for (int c = merge_head[emit[head]]; c >= 0; c = merge_next[c]) {
        emit.push_back(c);
      }
    }
    std::sort(emit.begin(), emit.end());
    order.insert(order.end(), emit.begin(), emit.end());
    remaining -= nv[sp];
  }
  return order;
}

}  // namespace

std::vector<int> minimum_degree_order(const std::vector<int>& row_ptr,
                                      const std::vector<int>& col_index,
                                      std::size_t n) {
  std::vector<std::set<int>> adj(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (static_cast<std::size_t>(c) != r) {
        adj[r].insert(c);
        adj[static_cast<std::size_t>(c)].insert(static_cast<int>(r));
      }
    }
  }
  return md_order_core(n, std::move(adj));
}

std::vector<int> amd_order(const std::vector<int>& row_ptr,
                           const std::vector<int>& col_index, std::size_t n) {
  return amd_order_graph(n, symmetrized_adjacency(row_ptr, col_index, n));
}

BtfDecomposition btf_decompose(const std::vector<int>& row_ptr,
                               const std::vector<int>& col_index,
                               std::size_t n) {
  // --- maximum transversal (Kuhn's augmenting paths, iterative) ---------
  std::vector<int> match_col(n, -1);  // column -> matched row
  std::vector<int> match_row(n, -1);  // row -> matched column
  // Cheap pass, diagonal first: MNA rows are structurally diagonal except
  // for source/aux equations, and an identity-heavy matching keeps the
  // row<->matched-column identification (which the per-block ordering
  // eliminates on) close to the matrix's natural symmetric structure.
  // Matching first-free-column instead shifts the whole matching by one
  // along chain topologies and costs ~10% factor fill on ladders.
  for (std::size_t r = 0; r < n; ++r) {
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      if (col_index[static_cast<std::size_t>(i)] == static_cast<int>(r)) {
        match_col[r] = static_cast<int>(r);
        match_row[r] = static_cast<int>(r);
        break;
      }
    }
  }
  for (std::size_t r = 0; r < n; ++r) {  // then first free column
    if (match_row[r] >= 0) continue;
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (match_col[static_cast<std::size_t>(c)] < 0) {
        match_col[static_cast<std::size_t>(c)] = static_cast<int>(r);
        match_row[r] = c;
        break;
      }
    }
  }
  std::vector<int> visited(n, -1);  // column -> DFS stamp
  std::vector<std::pair<int, int>> stack;  // (row, entry cursor)
  std::vector<int> via;  // column linking stack[d-1] to stack[d]
  for (std::size_t r0 = 0; r0 < n; ++r0) {
    if (match_row[r0] >= 0) continue;
    const int stamp = static_cast<int>(r0);
    stack.assign(1, {static_cast<int>(r0), row_ptr[r0]});
    via.assign(1, -1);
    bool found = false;
    while (!stack.empty() && !found) {
      auto& fr = stack.back();
      const int r = fr.first;
      if (fr.second >= row_ptr[static_cast<std::size_t>(r) + 1]) {
        stack.pop_back();
        via.pop_back();
        continue;
      }
      const int c = col_index[static_cast<std::size_t>(fr.second++)];
      if (visited[static_cast<std::size_t>(c)] == stamp) continue;
      visited[static_cast<std::size_t>(c)] = stamp;
      if (match_col[static_cast<std::size_t>(c)] < 0) {
        // Free column: flip the alternating path along the DFS stack.
        int col = c;
        for (std::size_t d = stack.size(); d-- > 0;) {
          const int rr = stack[d].first;
          match_row[static_cast<std::size_t>(rr)] = col;
          match_col[static_cast<std::size_t>(col)] = rr;
          if (d > 0) col = via[d];
        }
        found = true;
      } else {
        const int rnext = match_col[static_cast<std::size_t>(c)];
        stack.emplace_back(rnext, row_ptr[static_cast<std::size_t>(rnext)]);
        via.push_back(c);
      }
    }
    if (!found) {
      throw NumericalError(
          "sparse BTF: pattern is structurally singular (no perfect "
          "matching covers row " +
          std::to_string(r0) + ")");
    }
  }

  // --- SCC condensation of the matched graph (iterative Tarjan) ---------
  // Node r's successors are the matched rows of r's columns; an SCC is a
  // diagonal block. Tarjan emits SCCs in reverse topological order, so
  // block id = (count - 1 - emission index) makes every cross-block entry
  // land in a *later* block: block upper triangular.
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> on_stack(n, 0);
  std::vector<int> scc_stack;
  std::vector<int> comp(n, -1);
  std::vector<std::pair<int, int>> frames;  // (row, entry cursor)
  int index = 0;
  int ncomp = 0;
  for (std::size_t r0 = 0; r0 < n; ++r0) {
    if (disc[r0] >= 0) continue;
    disc[r0] = low[r0] = index++;
    scc_stack.push_back(static_cast<int>(r0));
    on_stack[r0] = 1;
    frames.assign(1, {static_cast<int>(r0), row_ptr[r0]});
    while (!frames.empty()) {
      auto& f = frames.back();
      const int r = f.first;
      if (f.second < row_ptr[static_cast<std::size_t>(r) + 1]) {
        const int c = col_index[static_cast<std::size_t>(f.second++)];
        const int s = match_col[static_cast<std::size_t>(c)];
        if (s == r) continue;
        if (disc[static_cast<std::size_t>(s)] < 0) {
          disc[static_cast<std::size_t>(s)] =
              low[static_cast<std::size_t>(s)] = index++;
          scc_stack.push_back(s);
          on_stack[static_cast<std::size_t>(s)] = 1;
          frames.emplace_back(s, row_ptr[static_cast<std::size_t>(s)]);
        } else if (on_stack[static_cast<std::size_t>(s)]) {
          low[static_cast<std::size_t>(r)] =
              std::min(low[static_cast<std::size_t>(r)],
                       disc[static_cast<std::size_t>(s)]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const int parent = frames.back().first;
        low[static_cast<std::size_t>(parent)] =
            std::min(low[static_cast<std::size_t>(parent)],
                     low[static_cast<std::size_t>(r)]);
      }
      if (low[static_cast<std::size_t>(r)] ==
          disc[static_cast<std::size_t>(r)]) {
        while (true) {
          const int v = scc_stack.back();
          scc_stack.pop_back();
          on_stack[static_cast<std::size_t>(v)] = 0;
          comp[static_cast<std::size_t>(v)] = ncomp;
          if (v == r) break;
        }
        ++ncomp;
      }
    }
  }

  BtfDecomposition btf;
  btf.row_block.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    btf.row_block[r] = ncomp - 1 - comp[r];
  }
  btf.block_ptr.assign(static_cast<std::size_t>(ncomp) + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    ++btf.block_ptr[static_cast<std::size_t>(btf.row_block[r]) + 1];
  }
  for (int b = 0; b < ncomp; ++b) {
    btf.block_ptr[static_cast<std::size_t>(b) + 1] +=
        btf.block_ptr[static_cast<std::size_t>(b)];
  }
  btf.row_order.resize(n);
  std::vector<int> cursor(btf.block_ptr.begin(), btf.block_ptr.end() - 1);
  for (std::size_t r = 0; r < n; ++r) {  // ascending row id within a block
    btf.row_order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(btf.row_block[r])]++)] =
        static_cast<int>(r);
  }
  btf.match_col = std::move(match_row);
  return btf;
}

template <typename Scalar>
bool SparseLuFactorizationT<Scalar>::pattern_matches(
    const SparseMatrixT<Scalar>& a) const {
  return analyzed_ && n_ == a.rows() && pattern_stamp_ == a.pattern_stamp();
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::analyze(const SparseMatrixT<Scalar>& a,
                                             double pivot_tol) {
  const std::size_t n = a.rows();
  const std::vector<int>& row_ptr = a.row_ptr();
  const std::vector<int>& col_index = a.col_index();
  const std::vector<Scalar>& values = a.values();

  const std::vector<double>& colmax = factors_.colmax;

  analyzed_ = false;
  n_ = n;

  // --- symbolic pre-order ------------------------------------------------
  // With BTF on, the matching rejects structurally singular patterns
  // before any numeric work, rows are grouped block by block (so LU never
  // fills across blocks), and the fill-reducing order runs per diagonal
  // block on the matched row<->column identification. With BTF off, one
  // global order over the whole symmetrised pattern (the original path).
  std::vector<int> row_block;  // block id per row (pivot confinement)
  std::vector<int> col_block;  // block id per column
  bool use_blocks = false;
  if (options_.btf) {
    const BtfDecomposition btf = btf_decompose(row_ptr, col_index, n);
    btf_blocks_ = btf.block_count();
    use_blocks = btf_blocks_ > 1;
    row_block = btf.row_block;
    col_block.assign(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      col_block[static_cast<std::size_t>(btf.match_col[r])] =
          btf.row_block[r];
    }
    rperm_.clear();
    rperm_.reserve(n);
    std::vector<int> local_of_col(n, -1);
    std::vector<std::vector<int>> adj;
    std::vector<int> block_rows;
    for (std::size_t b = 0; b < btf.block_count(); ++b) {
      const int lo = btf.block_ptr[b];
      const int hi = btf.block_ptr[b + 1];
      const std::size_t m = static_cast<std::size_t>(hi - lo);
      if (m == 1) {
        rperm_.push_back(btf.row_order[static_cast<std::size_t>(lo)]);
        continue;
      }
      block_rows.assign(btf.row_order.begin() + lo,
                        btf.row_order.begin() + hi);
      for (std::size_t k = 0; k < m; ++k) {
        local_of_col[static_cast<std::size_t>(
            btf.match_col[static_cast<std::size_t>(block_rows[k])])] =
            static_cast<int>(k);
      }
      // Local symmetrised graph: row k of the block is identified with
      // its matched column (the vertex the elimination merges them into).
      adj.assign(m, {});
      for (std::size_t k = 0; k < m; ++k) {
        const std::size_t r = static_cast<std::size_t>(block_rows[k]);
        for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
          const int lc =
              local_of_col[static_cast<std::size_t>(col_index[i])];
          if (lc >= 0 && lc != static_cast<int>(k)) {
            adj[k].push_back(lc);
            adj[static_cast<std::size_t>(lc)].push_back(static_cast<int>(k));
          }
        }
      }
      for (auto& al : adj) {
        std::sort(al.begin(), al.end());
        al.erase(std::unique(al.begin(), al.end()), al.end());
      }
      const std::vector<int> local =
          options_.ordering == SparseOrdering::kAmd
              ? amd_order_graph(m, std::move(adj))
              : md_order_graph(m, adj);
      for (int v : local) {
        rperm_.push_back(block_rows[static_cast<std::size_t>(v)]);
      }
      for (std::size_t k = 0; k < m; ++k) {
        local_of_col[static_cast<std::size_t>(
            btf.match_col[static_cast<std::size_t>(block_rows[k])])] = -1;
      }
    }
    // Blocks occupy contiguous step ranges (rperm_ was emitted block by
    // block), so the BTF block offsets are the solve-time step fences.
    bstep_ptr_.assign(btf.block_ptr.begin(), btf.block_ptr.end());
  } else {
    btf_blocks_ = 1;
    rperm_ = options_.ordering == SparseOrdering::kAmd
                 ? amd_order(row_ptr, col_index, n)
                 : minimum_degree_order(row_ptr, col_index, n);
    bstep_ptr_ = {0, static_cast<int>(n)};
  }

  cstep_.assign(n, -1);
  cperm_.assign(n, -1);
  std::vector<Scalar> udiag(n, Scalar{});  // this elimination's pivots

  // Static column degrees of A: the sparsity half of the Markowitz cost.
  std::vector<int> coldeg(n, 0);
  for (int c : col_index) ++coldeg[static_cast<std::size_t>(c)];

  // Growing factor rows; frozen into flat arrays afterwards.
  std::vector<std::vector<int>> lrows(n);  // steps
  std::vector<std::vector<std::pair<int, Scalar>>> urows(n);  // (col, val)

  std::vector<Scalar> w(n, Scalar{});  // dense scatter row, by column id
  std::vector<char> inpat(n, 0);
  std::vector<int> pattern;
  std::vector<char> step_seen(n, 0);
  std::vector<int> steps_touched;
  std::priority_queue<int, std::vector<int>, std::greater<int>> heap;

  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = static_cast<std::size_t>(rperm_[k]);
    // With blocks, only the row's own BTF block participates: its columns
    // are exactly what its rows can eliminate (earlier blocks are fully
    // pivoted, later blocks belong to later rows), so filtering the
    // scatter below confines the pattern -- and hence the pivot search --
    // to the block.
    const int cur_block = use_blocks ? row_block[r] : 0;
    // Scatter row r of A. Entries whose column belongs to a *later* BTF
    // block stay out of the elimination entirely (block-diagonal factor;
    // they are applied raw during block back-substitution), so neither
    // they nor any fill they would cascade ever enter the pattern.
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      const int c = col_index[static_cast<std::size_t>(i)];
      if (use_blocks && col_block[static_cast<std::size_t>(c)] != cur_block) {
        continue;
      }
      inpat[static_cast<std::size_t>(c)] = 1;
      pattern.push_back(c);
      w[static_cast<std::size_t>(c)] = values[static_cast<std::size_t>(i)];
      const int js = cstep_[static_cast<std::size_t>(c)];
      if (js >= 0 && !step_seen[static_cast<std::size_t>(js)]) {
        step_seen[static_cast<std::size_t>(js)] = 1;
        steps_touched.push_back(js);
        heap.push(js);
      }
    }

    // Eliminate against earlier pivot rows in ascending step order. An
    // update from step j only reaches steps > j, so the heap pops each
    // dependency exactly when its value is final.
    while (!heap.empty()) {
      const int j = heap.top();
      heap.pop();
      const std::size_t cj = static_cast<std::size_t>(cperm_[j]);
      const Scalar lv = w[cj] / udiag[static_cast<std::size_t>(j)];
      w[cj] = lv;  // L multiplier, kept in place for the gather below
      lrows[k].push_back(j);
      for (const auto& [uc, uv] : urows[static_cast<std::size_t>(j)]) {
        const std::size_t u = static_cast<std::size_t>(uc);
        if (!inpat[u]) {
          inpat[u] = 1;
          pattern.push_back(uc);
          w[u] = Scalar{};
          const int us = cstep_[u];
          if (us >= 0 && !step_seen[static_cast<std::size_t>(us)]) {
            step_seen[static_cast<std::size_t>(us)] = 1;
            steps_touched.push_back(us);
            heap.push(us);
          }
        }
        w[u] -= lv * uv;
      }
    }

    // Pivot choice among the not-yet-pivoted columns: numerically
    // acceptable (column-relative magnitude floor, then threshold partial
    // pivoting against the largest acceptable candidate), then
    // structurally sparsest. The inverted comparisons reject NaN, and
    // 0 > 0 being false keeps an exactly zero pivot out even when the
    // tolerance product underflows to 0.
    double umax = 0.0;
    for (int c : pattern) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (cstep_[ci] >= 0) continue;
      if (!(scalar_abs(w[ci]) > pivot_tol * colmax[ci])) continue;
      umax = std::max(umax, scalar_abs(w[ci]));
    }
    if (!(umax > 0.0)) {
      throw NumericalError(
          "sparse LU: matrix is singular to working precision at "
          "elimination step " +
          std::to_string(k) + " of " + std::to_string(n));
    }
    int best_col = -1;
    for (int c : pattern) {
      const std::size_t ci = static_cast<std::size_t>(c);
      if (cstep_[ci] >= 0) continue;
      if (!(scalar_abs(w[ci]) > pivot_tol * colmax[ci])) continue;
      if (scalar_abs(w[ci]) < kPivotRelThreshold * umax) continue;
      if (best_col < 0 ||
          coldeg[ci] < coldeg[static_cast<std::size_t>(best_col)] ||
          (coldeg[ci] == coldeg[static_cast<std::size_t>(best_col)] &&
           c < best_col)) {
        best_col = c;
      }
    }
    cstep_[static_cast<std::size_t>(best_col)] = static_cast<int>(k);
    cperm_[k] = best_col;
    udiag[k] = w[static_cast<std::size_t>(best_col)];

    // Record this row's U part -- every pattern position, including exact
    // numeric zeros: the fill pattern must not depend on the operating
    // point the analysis happened to run at.
    for (int c : pattern) {
      if (cstep_[static_cast<std::size_t>(c)] < 0) {
        urows[k].emplace_back(c, w[static_cast<std::size_t>(c)]);
      }
    }

    // Reset scratch state for the next row.
    for (int c : pattern) {
      inpat[static_cast<std::size_t>(c)] = 0;
      w[static_cast<std::size_t>(c)] = Scalar{};
    }
    pattern.clear();
    for (int s : steps_touched) step_seen[static_cast<std::size_t>(s)] = 0;
    steps_touched.clear();
  }

  // Freeze into flat step-space arrays for the allocation-free refactor.
  l_ptr_.assign(n + 1, 0);
  u_ptr_.assign(n + 1, 0);
  std::size_t l_nnz = 0;
  std::size_t u_nnz = 0;
  for (std::size_t k = 0; k < n; ++k) {
    l_nnz += lrows[k].size();
    u_nnz += urows[k].size();
    l_ptr_[k + 1] = static_cast<int>(l_nnz);
    u_ptr_[k + 1] = static_cast<int>(u_nnz);
  }
  l_step_.resize(l_nnz);
  u_step_.resize(u_nnz);
  for (std::size_t k = 0; k < n; ++k) {
    // L rows were emitted in ascending step order already.
    std::copy(lrows[k].begin(), lrows[k].end(),
              l_step_.begin() + l_ptr_[k]);
    // U rows were recorded by column id; remap to the (now complete) pivot
    // steps and sort ascending.
    const auto urow = u_step_.begin() + u_ptr_[k];
    for (std::size_t i = 0; i < urows[k].size(); ++i) {
      urow[static_cast<std::ptrdiff_t>(i)] =
          cstep_[static_cast<std::size_t>(urows[k][i].first)];
    }
    std::sort(urow, u_step_.begin() + u_ptr_[k + 1]);
  }

  // Scatter map: A entry i lands in step-space slot astep_[i]. Cross-block
  // entries get a -1 sentinel (the scatter skips them) and are indexed per
  // step for the raw copy + solve-time application instead.
  astep_.resize(col_index.size());
  for (std::size_t i = 0; i < col_index.size(); ++i) {
    astep_[i] = cstep_[static_cast<std::size_t>(col_index[i])];
  }
  off_ptr_.assign(n + 1, 0);
  off_a_idx_.clear();
  off_step_.clear();
  if (use_blocks) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t r = static_cast<std::size_t>(rperm_[k]);
      const int b = row_block[r];
      for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
        const std::size_t c = static_cast<std::size_t>(col_index[i]);
        if (col_block[c] == b) continue;
        astep_[static_cast<std::size_t>(i)] = -1;
        off_a_idx_.push_back(i);
        off_step_.push_back(cstep_[c]);
      }
      off_ptr_[k + 1] = static_cast<int>(off_a_idx_.size());
    }
  }

  // --- trailing dense supernode -----------------------------------------
  // Factors of fill-heavy systems end dense: the last columns of the
  // elimination accumulate nearly every remaining position. Find the
  // largest trailing step range [s, n) whose factor density qualifies and
  // route it through the dense microkernel; mirror maps let the numeric
  // passes copy the pattern positions back so solve / condition paths
  // never know. D(s) counts factor entries with both coordinates >= s,
  // accumulated by suffix scan: row s contributes its diagonal, its whole
  // U row (steps > s), and every L entry *at* step s (their rows are > s).
  sn_start_ = n;
  sn_l_idx_.clear();
  sn_l_pos_.clear();
  sn_u_idx_.clear();
  sn_u_pos_.clear();
  if (options_.supernode_min > 0) {
    const std::size_t min_b =
        std::max<std::size_t>(static_cast<std::size_t>(options_.supernode_min),
                              2);
    std::vector<long long> l_hist(n, 0);
    for (int j : l_step_) ++l_hist[static_cast<std::size_t>(j)];
    long long inblk = 0;
    std::size_t best = n;
    for (std::size_t s = n; s-- > 0;) {
      inblk += 1 + (u_ptr_[s + 1] - u_ptr_[s]) + l_hist[s];
      const std::size_t b = n - s;
      if (b > kSupernodeMaxDim) break;
      if (b < min_b) continue;
      if (static_cast<double>(inblk) >= options_.supernode_density *
                                            static_cast<double>(b) *
                                            static_cast<double>(b)) {
        best = s;  // keep scanning: prefer the largest qualifying block
      }
    }
    if (best < n) {
      sn_start_ = best;
      const std::size_t bdim = n - best;
      for (std::size_t k = best; k < n; ++k) {
        const std::size_t kb = k - best;
        for (int li = l_ptr_[k]; li < l_ptr_[k + 1]; ++li) {
          const int j = l_step_[static_cast<std::size_t>(li)];
          if (j < static_cast<int>(best)) continue;
          sn_l_idx_.push_back(li);
          sn_l_pos_.push_back(static_cast<int>(
              kb * bdim + (static_cast<std::size_t>(j) - best)));
        }
        for (int ui = u_ptr_[k]; ui < u_ptr_[k + 1]; ++ui) {
          sn_u_idx_.push_back(ui);
          sn_u_pos_.push_back(static_cast<int>(
              kb * bdim +
              (static_cast<std::size_t>(u_step_[static_cast<std::size_t>(ui)]) -
               best)));
        }
      }
    }
  }

  const std::size_t bdim = n - sn_start_;
  factors_.work.assign(n, Scalar{});
  factors_.shape(1, n, l_nnz, u_nnz, bdim * bdim, off_a_idx_.size());
  factored_vals_.resize(values.size());
  factored_cols_ = a.col_index();
  pattern_stamp_ = a.pattern_stamp();
  analyzed_ = true;
  ++analysis_count_;
}

namespace {

/// Element-growth guard of the frozen pass: with the pivot order frozen
/// there is no numerical pivoting left, so a restamp whose value
/// distribution differs wildly from the analysed one (a transient step's
/// huge companion conductances, or an AC restamp decades away in
/// frequency, say) can blow the factors up and yield a finite but garbage
/// solution. Growth beyond this factor over max|A| fails the pass; the
/// scalar caller re-analyses with fresh pivoting (partial pivoting keeps
/// growth within ~2^n theory, single digits in practice).
constexpr double kGrowthLimit = 1e8;

/// Pivot floor of the frozen pass, relative to the pivot's column max|A|
/// (about sqrt(eps)). The analysis picked each pivot at >= 0.5 of its
/// active column; a restamp that shrinks a frozen pivot below this floor
/// costs the solve about half its working digits (a Newton loop on a
/// high-gain amplifier cell then wanders instead of converging), so the
/// pass fails and the caller pivots afresh, as dense partial pivoting
/// would. pivot_tol stays the analysis's singularity floor.
constexpr double kFrozenPivotFloor = 1e-8;

/// Lane-op policy: plain per-lane loops, one op per inner loop of the
/// elimination kernels. KC > 0 pins the lane count at compile time; KC ==
/// 0 reads it at run time. The runtime-K instance is the measurable
/// baseline the explicit-SIMD policy is gated against
/// (set_batch_simd(false) routes the batched kernels through it) and the
/// complex batch policy; KC == 1 is the complex refactor() / solve lane.
template <typename Scalar, std::size_t KC = 0>
struct ScalarLaneOps {
  static constexpr std::size_t kLanes = KC;
  /// Straight row-major supernode replay (no register tiling).
  static constexpr bool kTiled = false;

  static constexpr std::size_t lanes(std::size_t K) noexcept {
    return KC != 0 ? KC : K;
  }

  static void copy(Scalar* dst, const Scalar* src, std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) dst[l] = src[l];
  }
  /// dst[l] += src[l] -- the scatter accumulation.
  static void add(Scalar* dst, const Scalar* src, std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) dst[l] += src[l];
  }
  /// dst[t] = src[t]; src[t] = 0 over a flat range (the supernode row
  /// harvest, length bdim * K).
  static void take_flat(Scalar* dst, Scalar* src, std::size_t len) noexcept {
    for (std::size_t t = 0; t < len; ++t) {
      dst[t] = src[t];
      src[t] = Scalar{};
    }
  }
  /// lv[l] = wj[l] / dj[l]; wj[l] = 0 -- multiplier harvest.
  static void div_take(Scalar* lv, Scalar* wj, const Scalar* dj,
                       std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      lv[l] = wj[l] / dj[l];
      wj[l] = Scalar{};
    }
  }
  /// w[l] -= lv[l] * uv[l] -- the elimination update.
  static void submul(Scalar* w, const Scalar* lv, const Scalar* uv,
                     std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) w[l] -= lv[l] * uv[l];
  }
  static void div_inplace(Scalar* p, const Scalar* d,
                          std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) p[l] /= d[l];
  }
  /// dst[l] = src[l]; src[l] = 0; g[l] = max(g[l], |dst[l]|) -- diagonal
  /// and U-row harvest with the growth tracker.
  static void take_absmax(Scalar* dst, Scalar* src, double* g,
                          std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      dst[l] = src[l];
      src[l] = Scalar{};
      g[l] = std::max(g[l], scalar_abs(dst[l]));
    }
  }
  static void copy_absmax(Scalar* dst, const Scalar* src, double* g,
                          std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      dst[l] = src[l];
      g[l] = std::max(g[l], scalar_abs(dst[l]));
    }
  }
  static void absmax(double* g, const Scalar* x, std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      g[l] = std::max(g[l], scalar_abs(x[l]));
    }
  }
  /// Input screen: finiteness into ok, magnitude maxima into amax / cm.
  static void screen_input(unsigned char* ok, const Scalar* v, double* amax,
                           double* cm, std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      ok[l] = static_cast<unsigned char>(
          ok[l] & static_cast<unsigned char>(scalar_is_finite(v[l])));
      const double m = scalar_abs(v[l]);
      amax[l] = std::max(amax[l], m);
      cm[l] = std::max(cm[l], m);
    }
  }
  /// Per-step acceptance: pivot above its column's scale, growth bounded.
  /// The inverted comparison rejects NaN.
  static void screen_pivot(unsigned char* ok, const Scalar* dk,
                           const double* cm, const double* g,
                           const double* cap, double pivot_tol,
                           std::size_t K) noexcept {
    for (std::size_t l = 0; l < lanes(K); ++l) {
      ok[l] = static_cast<unsigned char>(
          ok[l] &
          static_cast<unsigned char>(scalar_abs(dk[l]) > pivot_tol * cm[l]) &
          static_cast<unsigned char>(!(g[l] > cap[l])));
    }
  }
};

/// Lane-op policy: explicit SIMD over the lane-fastest planes, double
/// scalar only. Each op walks the lane dimension in DPack packs with a
/// scalar tail; all pack arithmetic is elementwise and FMA-free (see
/// simd.hpp), so every lane's FP sequence is exactly ScalarLaneOps' and
/// the planes come out bit-identical.
///
/// KC > 0 pins the lane count at compile time: refactor_batch dispatches
/// the common K = 4 / 8 / 16 shapes so these loops fully unroll. At
/// bandgap-cell sizes (n ~ 7, rows of 2-3 entries) the runtime-K loop
/// control -- counter, compare, and the alias versioning the
/// auto-vectorizer has to emit -- costs as much as the arithmetic, and
/// unrolling is where most of the batched SIMD win comes from. KC == 0
/// serves any other lane count. KC == 1 is the refactor() / solve lane:
/// every lane op is its scalar tail, and the supernode tiles along the row
/// instead of across lanes.
template <std::size_t KC>
struct PackLaneOps {
  static constexpr std::size_t kLanes = KC;
  /// Supernode rows run the register-tiled phase-split replay.
  static constexpr bool kTiled = true;
  using P = common::DPack;
  static constexpr std::size_t W = common::kPackWidth;

  static constexpr std::size_t lanes(std::size_t K) noexcept {
    return KC != 0 ? KC : K;
  }
  static constexpr std::size_t packed(std::size_t K) noexcept {
    return lanes(K) & ~(W - 1);
  }

  static void copy(double* dst, const double* src, std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t p = 0; p < m; p += W) P::load(src + p).store(dst + p);
    for (std::size_t l = m; l < n; ++l) dst[l] = src[l];
  }
  static void add(double* dst, const double* src, std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t p = 0; p < m; p += W) {
      (P::load(dst + p) + P::load(src + p)).store(dst + p);
    }
    for (std::size_t l = m; l < n; ++l) dst[l] += src[l];
  }
  static void take_flat(double* dst, double* src, std::size_t len) noexcept {
    const std::size_t m = len & ~(W - 1);
    const P z = P::zero();
    for (std::size_t t = 0; t < m; t += W) {
      P::load(src + t).store(dst + t);
      z.store(src + t);
    }
    for (std::size_t t = m; t < len; ++t) {
      dst[t] = src[t];
      src[t] = 0.0;
    }
  }
  static void div_take(double* lv, double* wj, const double* dj,
                       std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    const P z = P::zero();
    for (std::size_t p = 0; p < m; p += W) {
      (P::load(wj + p) / P::load(dj + p)).store(lv + p);
      z.store(wj + p);
    }
    for (std::size_t l = m; l < n; ++l) {
      lv[l] = wj[l] / dj[l];
      wj[l] = 0.0;
    }
  }
  static void submul(double* w, const double* lv, const double* uv,
                     std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t p = 0; p < m; p += W) {
      (P::load(w + p) - P::load(lv + p) * P::load(uv + p)).store(w + p);
    }
    for (std::size_t l = m; l < n; ++l) w[l] -= lv[l] * uv[l];
  }
  static void div_inplace(double* p, const double* d,
                          std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t q = 0; q < m; q += W) {
      (P::load(p + q) / P::load(d + q)).store(p + q);
    }
    for (std::size_t l = m; l < n; ++l) p[l] /= d[l];
  }
  static void take_absmax(double* dst, double* src, double* g,
                          std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    const P z = P::zero();
    for (std::size_t p = 0; p < m; p += W) {
      const P v = P::load(src + p);
      v.store(dst + p);
      z.store(src + p);
      P::max(P::load(g + p), P::abs(v)).store(g + p);
    }
    for (std::size_t l = m; l < n; ++l) {
      dst[l] = src[l];
      src[l] = 0.0;
      g[l] = std::max(g[l], std::abs(dst[l]));
    }
  }
  static void copy_absmax(double* dst, const double* src, double* g,
                          std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t p = 0; p < m; p += W) {
      const P v = P::load(src + p);
      v.store(dst + p);
      P::max(P::load(g + p), P::abs(v)).store(g + p);
    }
    for (std::size_t l = m; l < n; ++l) {
      dst[l] = src[l];
      g[l] = std::max(g[l], std::abs(dst[l]));
    }
  }
  static void absmax(double* g, const double* x, std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    for (std::size_t p = 0; p < m; p += W) {
      P::max(P::load(g + p), P::abs(P::load(x + p))).store(g + p);
    }
    for (std::size_t l = m; l < n; ++l) {
      g[l] = std::max(g[l], std::abs(x[l]));
    }
  }
  static void screen_input(unsigned char* ok, const double* v, double* amax,
                           double* cm, std::size_t K) noexcept {
    const std::size_t n = lanes(K);
    const std::size_t m = packed(K);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < m; p += W) {
      const P a = P::abs(P::load(v + p));
      P::max(P::load(amax + p), a).store(amax + p);
      P::max(P::load(cm + p), a).store(cm + p);
      for (std::size_t i = 0; i < W; ++i) {
        // |v| < inf is the finiteness test (|NaN| < inf is false).
        ok[p + i] = static_cast<unsigned char>(
            ok[p + i] & static_cast<unsigned char>(a[i] < kInf));
      }
    }
    for (std::size_t l = m; l < n; ++l) {
      ok[l] = static_cast<unsigned char>(
          ok[l] & static_cast<unsigned char>(std::isfinite(v[l])));
      const double x = std::abs(v[l]);
      amax[l] = std::max(amax[l], x);
      cm[l] = std::max(cm[l], x);
    }
  }
  static void screen_pivot(unsigned char* ok, const double* dk,
                           const double* cm, const double* g,
                           const double* cap, double pivot_tol,
                           std::size_t K) noexcept {
    // Once per elimination step, result is bytes: scalar is the right tool.
    const std::size_t n = lanes(K);
    for (std::size_t l = 0; l < n; ++l) {
      ok[l] = static_cast<unsigned char>(
          ok[l] &
          static_cast<unsigned char>(std::abs(dk[l]) > pivot_tol * cm[l]) &
          static_cast<unsigned char>(!(g[l] > cap[l])));
    }
  }

  /// Register-tiled trailing supernode update (t >= kb), the BLAS-3-style
  /// half of the phase-split replay: t-outer / jb-inner with the row kept
  /// in pack accumulators across the whole jb sweep, so each element is
  /// loaded and stored once instead of once per jb. Per element the
  /// subtraction sequence is jb ascending -- exactly the j-outer loop's
  /// order -- so the phase split does not move a single rounding.
  static void supernode_trailing(double* drow, const double* snb,
                                 std::size_t kb, std::size_t bdim,
                                 std::size_t K) noexcept {
    if constexpr (KC == 1) {
      // One lane: the packs run along the row instead, a 2W-wide t-tile
      // per jb sweep, then a scalar tail.
      std::size_t t = kb;
      for (; t + 2 * W <= bdim; t += 2 * W) {
        P a0 = P::load(drow + t);
        P a1 = P::load(drow + t + W);
        for (std::size_t jb = 0; jb < kb; ++jb) {
          const P lv = P::broadcast(drow[jb]);
          const double* urow = snb + jb * bdim;
          a0 = a0 - lv * P::load(urow + t);
          a1 = a1 - lv * P::load(urow + t + W);
        }
        a0.store(drow + t);
        a1.store(drow + t + W);
      }
      for (; t < bdim; ++t) {
        double acc = drow[t];
        for (std::size_t jb = 0; jb < kb; ++jb) {
          acc -= drow[jb] * snb[jb * bdim + t];
        }
        drow[t] = acc;
      }
    } else if constexpr (KC != 0) {
      static_assert(KC % W == 0);
      constexpr std::size_t Q = KC / W;
      // 2-wide t-tile: each multiplier pack serves two output elements, so
      // the jb sweep loads lv once instead of twice. Lanes stay elementwise
      // and each element's jb order is still ascending -- no rounding moves.
      std::size_t t = kb;
      for (; t + 2 <= bdim; t += 2) {
        double* w0 = drow + t * KC;
        double* w1 = w0 + KC;
        P a0[Q];
        P a1[Q];
        for (std::size_t q = 0; q < Q; ++q) {
          a0[q] = P::load(w0 + q * W);
          a1[q] = P::load(w1 + q * W);
        }
        for (std::size_t jb = 0; jb < kb; ++jb) {
          const double* lv = drow + jb * KC;
          const double* uv = snb + (jb * bdim + t) * KC;
          for (std::size_t q = 0; q < Q; ++q) {
            const P m = P::load(lv + q * W);
            a0[q] = a0[q] - m * P::load(uv + q * W);
            a1[q] = a1[q] - m * P::load(uv + KC + q * W);
          }
        }
        for (std::size_t q = 0; q < Q; ++q) {
          a0[q].store(w0 + q * W);
          a1[q].store(w1 + q * W);
        }
      }
      for (; t < bdim; ++t) {
        double* wt = drow + t * KC;
        P acc[Q];
        for (std::size_t q = 0; q < Q; ++q) acc[q] = P::load(wt + q * W);
        for (std::size_t jb = 0; jb < kb; ++jb) {
          const double* lv = drow + jb * KC;
          const double* uv = snb + (jb * bdim + t) * KC;
          for (std::size_t q = 0; q < Q; ++q) {
            acc[q] = acc[q] - P::load(lv + q * W) * P::load(uv + q * W);
          }
        }
        for (std::size_t q = 0; q < Q; ++q) acc[q].store(wt + q * W);
      }
    } else {
      // Runtime K: no compile-time accumulator count, so accumulate in
      // place -- same per-element op order, one extra load/store per jb.
      for (std::size_t t = kb; t < bdim; ++t) {
        double* wt = drow + t * K;
        for (std::size_t jb = 0; jb < kb; ++jb) {
          submul(wt, drow + jb * K, snb + (jb * bdim + t) * K, K);
        }
      }
    }
  }
};

/// The policy of the K = 1 lane refactor() and solve_in_place() run: the
/// pack policy for double (its row-tiled supernode), the plain loops for
/// Complex.
template <typename Scalar>
struct UnitLane {
  using type = ScalarLaneOps<Scalar, 1>;
};
template <>
struct UnitLane<double> {
  using type = PackLaneOps<1>;
};

/// Calls f with the policy a K-lane batch pass runs. Real-valued batches
/// take the pack policy (explicit SIMD across the lane planes) with the
/// common lane counts pinned at compile time so the per-slot K-loops
/// unroll flat -- at bandgap-cell row sizes the loop control would
/// otherwise cost as much as the arithmetic. Complex batches and the
/// runtime A/B baseline (simd off) take the runtime-K scalar-lane policy.
/// Every policy runs the identical per-lane FP sequence, so the choice
/// never changes a bit of the factors.
template <typename Scalar, typename F>
void with_batch_ops(std::size_t K, bool simd, F&& f) {
  if constexpr (std::is_same_v<Scalar, double>) {
    if (simd) {
      switch (K) {
        case 4:
          return f(PackLaneOps<4>{});
        case 8:
          return f(PackLaneOps<8>{});
        case 16:
          return f(PackLaneOps<16>{});
        default:
          return f(PackLaneOps<0>{});
      }
    }
  }
  f(ScalarLaneOps<Scalar>{});
}

// Row loops of the kernels, K lanes per slot.

/// w[t] -= lv * u[t] for t in [lo, hi): a dense supernode row update.
template <typename Ops, typename Scalar>
void sub_axpy(Scalar* w, const Scalar* lv, const Scalar* u, std::size_t lo,
              std::size_t hi, std::size_t K) noexcept {
  for (std::size_t t = lo; t < hi; ++t) {
    Ops::submul(w + t * K, lv, u + t * K, K);
  }
}

/// w[idx[i]] -= lv * val[i] for i in [lo, hi): a sparse U-row update.
template <typename Ops, typename Scalar>
void sub_scatter(Scalar* w, const Scalar* lv, const Scalar* val,
                 const int* idx, int lo, int hi, std::size_t K) noexcept {
  for (int i = lo; i < hi; ++i) {
    Ops::submul(w + static_cast<std::size_t>(idx[i]) * K, lv,
                val + static_cast<std::size_t>(i) * K, K);
  }
}

/// x -= val[i] * z[idx[i]] for i ascending in [lo, hi): one solve row.
template <typename Ops, typename Scalar>
void sub_gather(Scalar* x, const Scalar* val, const int* idx, int lo, int hi,
                const Scalar* z, std::size_t K) noexcept {
  for (int i = lo; i < hi; ++i) {
    Ops::submul(x, val + static_cast<std::size_t>(i) * K,
                z + static_cast<std::size_t>(idx[i]) * K, K);
  }
}

/// The input screen over every stored slot: ok cleared for a non-finite
/// value, amax and the per-column maxima of |v| raised.
template <typename Ops, typename Scalar>
void screen_values(unsigned char* ok, const Scalar* v,
                   const std::vector<int>& cols, double* amax, double* colmax,
                   std::size_t K) noexcept {
  for (std::size_t i = 0; i < cols.size(); ++i) {
    Ops::screen_input(ok, v + i * K, amax,
                      colmax + static_cast<std::size_t>(cols[i]) * K, K);
  }
}

/// val[i] = w[idx[i]]; w[idx[i]] = 0; g = max(g, |val[i]|) for i in
/// [lo, hi): the U-row harvest with the growth tracker.
template <typename Ops, typename Scalar>
void take_row(Scalar* val, Scalar* w, const int* idx, int lo, int hi,
              double* g, std::size_t K) noexcept {
  for (int i = lo; i < hi; ++i) {
    Ops::take_absmax(val + static_cast<std::size_t>(i) * K,
                     w + static_cast<std::size_t>(idx[i]) * K, g, K);
  }
}

}  // namespace

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::ValuePlanes::shape(
    std::size_t k, std::size_t n, std::size_t l_nnz, std::size_t u_nnz,
    std::size_t sn_nnz, std::size_t off_nnz) {
  lanes = k;
  l_val.resize(l_nnz * k);
  u_val.resize(u_nnz * k);
  udiag.resize(n * k);
  sn_val.resize(sn_nnz * k);
  off_val.resize(off_nnz * k);
  work.resize(n * k);  // grows with zeros; the live part is already zero
  colmax.resize(n * k);
  cap.resize(k);
  gmax.resize(k);
  perm.resize(n * k);
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::refactor(const SparseMatrixT<Scalar>& a,
                                              double pivot_tol) {
  ICVBE_REQUIRE(a.frozen(),
                "sparse LU: freeze_pattern() before factoring");
  ICVBE_REQUIRE(a.rows() == a.cols(), "sparse LU: matrix must be square");
  ICVBE_REQUIRE(a.rows() > 0, "sparse LU: empty matrix");
  using Unit = typename UnitLane<Scalar>::type;
  const Scalar* vals = a.values().data();
  const std::size_t nnz = a.values().size();

  // Unchanged input: the factors in factors_ are already this matrix's
  // (a pattern match implies nnz == factored_vals_.size()).
  if (factored_valid_ && pattern_matches(a) &&
      pivot_tol == factored_pivot_tol_ &&
      std::memcmp(vals, factored_vals_.data(), nnz * sizeof(Scalar)) == 0) {
    return;
  }
  factored_valid_ = false;

  // Deterministic input screening: a NaN would otherwise win or lose every
  // pivot comparison silently and only surface at the first solve. The
  // same pass fills the per-column maxima the column-relative pivot test
  // uses (AC systems legitimately span many decades across columns, so a
  // global max|A| threshold would misdiagnose them as singular).
  unsigned char ok = 1;
  screen_input<Unit>(a, vals, factors_, &ok);
  if (!ok) {
    throw NumericalError("sparse LU: matrix has non-finite entries");
  }
  if (!(factors_.cap[0] > 0.0)) {
    // Maximally singular, not API misuse: stay inside the Newton fallback
    // machinery like any other singular Jacobian (dense engine agrees).
    throw NumericalError("sparse LU: zero matrix");
  }

  ++numeric_refactor_count_;
  if (!(pattern_matches(a) &&
        refactor_batch_kernel<Unit>(a, vals, factors_, &ok,
                                    std::max(pivot_tol, kFrozenPivotFloor),
                                    /*early_abort=*/true))) {
    // First factorisation, new pattern, or a frozen pivot collapsed: run
    // the full analysis with fresh pivoting. The analysis fixes the pivot
    // order and the pattern only; the factor values always come from the
    // kernel, so a factorisation right after an analysis equals every
    // later frozen one to the bit. (The analysis's own elimination can
    // differ in the sign of an exact zero against the dense supernode, and
    // in the last bit where the compiler fuses complex products
    // differently, e.g. into FMA add-subs on x86-64-v3.) The pivots it
    // chose stand, so the screens are not judged again.
    analyze(a, pivot_tol);
    (void)refactor_batch_kernel<Unit>(a, vals, factors_, &ok, pivot_tol,
                                      /*early_abort=*/false);
  }

  std::memcpy(factored_vals_.data(), vals, nnz * sizeof(Scalar));
  factored_pivot_tol_ = pivot_tol;
  factored_valid_ = true;
}

template <typename Scalar>
template <typename Ops>
void SparseLuFactorizationT<Scalar>::screen_input(
    const SparseMatrixT<Scalar>& pattern, const Scalar* vals, ValuePlanes& p,
    unsigned char* lane_ok) const {
  const std::size_t K = Ops::lanes(p.lanes);
  p.colmax.assign(pattern.cols() * K, 0.0);
  p.cap.assign(K, 0.0);
  screen_values<Ops>(lane_ok, vals, pattern.col_index(), p.cap.data(),
                     p.colmax.data(), K);
  // cap held max|A| per lane; it becomes the growth cap (still 0 exactly
  // for an all-zero lane).
  for (double& c : p.cap) c *= kGrowthLimit;
}

template <typename Scalar>
template <typename Ops>
bool SparseLuFactorizationT<Scalar>::refactor_batch_kernel(
    const SparseMatrixT<Scalar>& pattern, const Scalar* vals, ValuePlanes& p,
    unsigned char* lane_ok, double pivot_tol, bool early_abort) {
  const std::size_t K = Ops::lanes(p.lanes);
  const std::size_t sn = sn_start_;
  const std::size_t bdim = n_ - sn;
  // Plain pointers: the byte-wide lane_ok stores below may alias any
  // object, so vector members would be re-read after every step.
  const int* row_ptr = pattern.row_ptr().data();
  const int* astep = astep_.data();
  const int* l_ptr = l_ptr_.data();
  const int* l_step = l_step_.data();
  const int* u_ptr = u_ptr_.data();
  const int* u_step = u_step_.data();
  Scalar* l_val = p.l_val.data();
  Scalar* u_val = p.u_val.data();
  Scalar* udiag = p.udiag.data();
  Scalar* work = p.work.data();
  Scalar* snb = p.sn_val.data();
  double* gmax = p.gmax.data();
  std::fill(p.gmax.begin(), p.gmax.end(), 0.0);

  // Cross-block entries never join the elimination: refresh their raw
  // copies for the solve's block back-substitution and skip them below
  // (their astep_ is -1).
  for (std::size_t t = 0; t < off_a_idx_.size(); ++t) {
    Ops::copy(p.off_val.data() + t * K,
              vals + static_cast<std::size_t>(off_a_idx_[t]) * K, K);
  }
  // All lanes per elimination step. Lanes are arithmetically independent:
  // a rejected pivot only poisons its own plane.
  for (std::size_t k = 0; k < n_; ++k) {
    const int r = rperm_[k];
    for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      if (astep[i] < 0) continue;
      Ops::add(work + static_cast<std::size_t>(astep[i]) * K,
               vals + static_cast<std::size_t>(i) * K, K);
    }
    // Sparse replay of the L row along the cached pattern. A supernode row
    // replays only its out-of-block prefix (ascending steps, so the prefix
    // ends at the first in-block entry).
    for (int li = l_ptr[k]; li < l_ptr[k + 1]; ++li) {
      const std::size_t j = static_cast<std::size_t>(l_step[li]);
      if (j >= sn) break;
      Scalar* lv = l_val + static_cast<std::size_t>(li) * K;
      Ops::div_take(lv, work + j * K, udiag + j * K, K);
      sub_scatter<Ops>(work, lv, u_val, u_step, u_ptr[j], u_ptr[j + 1], K);
    }
    Scalar* dk = udiag + k * K;
    if (k < sn) {
      Ops::take_absmax(dk, work + k * K, gmax, K);
      take_row<Ops>(u_val, work, u_step, u_ptr[k], u_ptr[k + 1], gmax, K);
    } else {
      // Dense supernode row: eliminate inside the B x B block with
      // contiguous loops. The per-position arithmetic matches the sparse
      // replay exactly except on structural zeros, where only the sign of
      // an exact zero can differ -- which is why every stored factor value
      // comes from this kernel (see the post-analysis pass in refactor()).
      const std::size_t kb = k - sn;
      Scalar* drow = snb + kb * bdim * K;
      Ops::take_flat(drow, work + sn * K, bdim * K);
      // Tiled policies split the row: multipliers and the leading (t < kb)
      // updates j-outer here, the trailing block register-tiled t-outer in
      // supernode_trailing (see there for the bit-identity argument).
      const std::size_t lead_end = Ops::kTiled ? kb : bdim;
      for (std::size_t jb = 0; jb < kb; ++jb) {
        Scalar* lv = drow + jb * K;
        Ops::div_inplace(lv, snb + (jb * bdim + jb) * K, K);
        sub_axpy<Ops>(drow, lv, snb + jb * bdim * K, jb + 1, lead_end, K);
      }
      if constexpr (Ops::kTiled) {
        Ops::supernode_trailing(drow, snb, kb, bdim, K);
      }
      Ops::copy_absmax(dk, drow + kb * K, gmax, K);
      for (std::size_t t = kb + 1; t < bdim; ++t) {
        Ops::absmax(gmax, drow + t * K, K);
      }
    }
    // Pivot above its own column's current scale, growth bounded. Both
    // checks run after this row's gather, so an early abort leaves the
    // work plane clean (a supernode row's dirt lives in the block).
    Ops::screen_pivot(lane_ok, dk,
                      p.colmax.data() +
                          static_cast<std::size_t>(cperm_[k]) * K,
                      gmax, p.cap.data(), pivot_tol, K);
    if (early_abort && !lane_ok[0]) return false;
  }
  // Mirror the dense block's pattern positions back into the flat factor
  // planes: the solve / condition / diagnostic paths stay oblivious to
  // the supernode.
  for (std::size_t t = 0; t < sn_l_idx_.size(); ++t) {
    Ops::copy(l_val + static_cast<std::size_t>(sn_l_idx_[t]) * K,
              snb + static_cast<std::size_t>(sn_l_pos_[t]) * K, K);
  }
  for (std::size_t t = 0; t < sn_u_idx_.size(); ++t) {
    Ops::copy(u_val + static_cast<std::size_t>(sn_u_idx_[t]) * K,
              snb + static_cast<std::size_t>(sn_u_pos_[t]) * K, K);
  }
  return true;
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::refactor_batch(
    const SparseValueBatchT<Scalar>& batch,
    std::vector<unsigned char>& lane_ok, double pivot_tol) {
  ICVBE_REQUIRE(batch.bound(), "sparse LU batch: bind the value batch first");
  ICVBE_REQUIRE(analyzed_ && pattern_stamp_ == batch.pattern_stamp() &&
                    n_ == batch.rows(),
                "sparse LU batch: refactor() a reference matrix sharing the "
                "batch's pattern before refactor_batch()");
  const std::size_t K = batch.lanes();
  ICVBE_REQUIRE(lane_ok.size() == K,
                "sparse LU batch: lane_ok size must equal the lane count");
  // Steady state re-enters with the same (analysis, K) and never allocates.
  batch_.shape(K, n_, l_step_.size(), u_step_.size(),
               factors_.sn_val.size(), off_a_idx_.size());
  const Scalar* vals = batch.values().data();
  with_batch_ops<Scalar>(K, batch_simd_, [&](auto ops) {
    using Ops = decltype(ops);
    // Non-finite values or an all-zero matrix fail the lane (where
    // refactor() throws).
    screen_input<Ops>(batch.pattern(), vals, batch_, lane_ok.data());
    for (std::size_t l = 0; l < K; ++l) {
      lane_ok[l] = static_cast<unsigned char>(
          lane_ok[l] & (batch_.cap[l] > 0.0 ? 1 : 0));
    }
    (void)refactor_batch_kernel<Ops>(
        batch.pattern(), vals, batch_, lane_ok.data(),
        std::max(pivot_tol, kFrozenPivotFloor), /*early_abort=*/false);
  });
}

template <typename Scalar>
template <typename Ops>
void SparseLuFactorizationT<Scalar>::solve_batch_kernel(const ValuePlanes& p,
                                                        Scalar* rhs) const {
  const std::size_t K = Ops::lanes(p.lanes);
  Scalar* z = p.perm.data();
  // z = P b (step space).
  for (std::size_t k = 0; k < n_; ++k) {
    Ops::copy(z + k * K, rhs + static_cast<std::size_t>(rperm_[k]) * K, K);
  }
  // Block back-substitution, last block first: the factor is
  // block-diagonal, so each block is an independent L/U solve once the
  // raw cross-block entries (columns of *later* blocks, whose x is final
  // by then) are deducted from its right-hand side. A single block is
  // exactly the classic forward/backward pass.
  for (std::size_t b = bstep_ptr_.size() - 1; b-- > 0;) {
    const std::size_t lo = static_cast<std::size_t>(bstep_ptr_[b]);
    const std::size_t hi = static_cast<std::size_t>(bstep_ptr_[b + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      sub_gather<Ops>(z + k * K, p.off_val.data(), off_step_.data(),
                      off_ptr_[k], off_ptr_[k + 1], z, K);
    }
    // Forward substitution with unit-lower L.
    for (std::size_t k = lo; k < hi; ++k) {
      sub_gather<Ops>(z + k * K, p.l_val.data(), l_step_.data(), l_ptr_[k],
                      l_ptr_[k + 1], z, K);
    }
    // Back substitution with U.
    for (std::size_t ki = hi; ki-- > lo;) {
      sub_gather<Ops>(z + ki * K, p.u_val.data(), u_step_.data(), u_ptr_[ki],
                      u_ptr_[ki + 1], z, K);
      Ops::div_inplace(z + ki * K, p.udiag.data() + ki * K, K);
    }
  }
  // x = Q w (undo the column permutation).
  for (std::size_t k = 0; k < n_; ++k) {
    Ops::copy(rhs + static_cast<std::size_t>(cperm_[k]) * K, z + k * K, K);
  }
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::solve_batch(
    std::vector<Scalar>& rhs) const {
  ICVBE_REQUIRE(batch_.lanes > 0, "sparse LU batch: refactor_batch() first");
  ICVBE_REQUIRE(rhs.size() == n_ * batch_.lanes,
                "sparse LU batch solve: rhs size mismatch");
  with_batch_ops<Scalar>(batch_.lanes, batch_simd_, [&](auto ops) {
    solve_batch_kernel<decltype(ops)>(batch_, rhs.data());
  });
}

template <typename Scalar>
void SparseLuFactorizationT<Scalar>::solve_in_place(
    VectorT<Scalar>& rhs) const {
  ICVBE_REQUIRE(analyzed_, "sparse LU: refactor() before solving");
  ICVBE_REQUIRE(rhs.size() == n_, "sparse LU solve: rhs size mismatch");
  solve_batch_kernel<typename UnitLane<Scalar>::type>(factors_, rhs.data());
}

template <typename Scalar>
VectorT<Scalar> SparseLuFactorizationT<Scalar>::solve(
    const VectorT<Scalar>& b) const {
  VectorT<Scalar> x = b;
  solve_in_place(x);
  return x;
}

template <typename Scalar>
double SparseLuFactorizationT<Scalar>::condition_estimate() const {
  ICVBE_REQUIRE(analyzed_ && factored_valid_,
                "sparse LU: refactor() before condition_estimate");
  // 1-norm of the factored A, from the copy refactor() keeps of its input.
  std::vector<double> colsum(n_, 0.0);
  for (std::size_t i = 0; i < factored_vals_.size(); ++i) {
    colsum[static_cast<std::size_t>(factored_cols_[i])] +=
        scalar_abs(factored_vals_[i]);
  }
  const double a_norm1 = *std::max_element(colsum.begin(), colsum.end());
  // Probe |A^-1| by solving against the same +/-1 vectors the dense
  // LuFactorizationT uses and taking the largest column-sum growth; cheap
  // and adequate for diagnostics, and directly comparable across engines.
  double inv_norm = 0.0;
  VectorT<Scalar> e(n_, Scalar(1.0));
  for (int probe = 0; probe < 2; ++probe) {
    for (std::size_t i = 0; i < n_; ++i) {
      e[i] = (probe == 0) ? Scalar(1.0)
                          : ((i % 2) ? Scalar(-1.0) : Scalar(1.0));
    }
    const VectorT<Scalar> x = solve(e);
    double s = 0.0;
    for (const Scalar& v : x) s += scalar_abs(v);
    inv_norm = std::max(inv_norm, s / static_cast<double>(n_));
  }
  return a_norm1 * inv_norm;
}

template class SparseLuFactorizationT<double>;
template class SparseLuFactorizationT<Complex>;

}  // namespace icvbe::linalg
