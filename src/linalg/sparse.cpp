#include "icvbe/linalg/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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

/// Symmetrised pattern as a CSR graph: rows deduplicated, in no
/// particular order, no self loops -- the graph both fill-reducing
/// orderings run on.
struct SymmetricGraph {
  std::vector<int> ptr{0};  ///< row offsets, size n + 1
  std::vector<int> adj;     ///< neighbours, row by row

  [[nodiscard]] std::size_t size() const noexcept { return ptr.size() - 1; }
};

/// Build the symmetrised graph of `m` rows of a square CSR pattern:
/// vertex k stands for row row_of(k) and for the column c with
/// local_of(c) == k; entries whose column maps below 0 are dropped. One
/// counting pass sizes the rows, a second places every edge in both
/// directions, and a third squeezes out each row's repeats in place.
template <typename RowOf, typename LocalOf>
SymmetricGraph symmetrize(const std::vector<int>& row_ptr,
                          const std::vector<int>& col_index, std::size_t m,
                          RowOf row_of, LocalOf local_of) {
  SymmetricGraph g;
  g.ptr.assign(m + 1, 0);
  const auto for_each_edge = [&](auto&& visit) {
    for (std::size_t k = 0; k < m; ++k) {
      const auto r = static_cast<std::size_t>(row_of(k));
      for (int i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
        const int lc = local_of(col_index[static_cast<std::size_t>(i)]);
        if (lc >= 0 && lc != static_cast<int>(k)) {
          visit(static_cast<std::size_t>(k), static_cast<std::size_t>(lc));
        }
      }
    }
  };
  for_each_edge([&](std::size_t a, std::size_t b) {
    ++g.ptr[a + 1];
    ++g.ptr[b + 1];
  });
  for (std::size_t k = 0; k < m; ++k) g.ptr[k + 1] += g.ptr[k];

  g.adj.resize(static_cast<std::size_t>(g.ptr[m]));
  std::vector<int> cursor(g.ptr.begin(), g.ptr.end() - 1);
  for_each_edge([&](std::size_t a, std::size_t b) {
    g.adj[static_cast<std::size_t>(cursor[a]++)] = static_cast<int>(b);
    g.adj[static_cast<std::size_t>(cursor[b]++)] = static_cast<int>(a);
  });

  // cursor now records, per vertex, the last row that listed it.
  std::fill(cursor.begin(), cursor.end(), -1);
  int out = 0;
  int lo = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const int hi = g.ptr[k + 1];
    g.ptr[k] = out;
    for (int i = lo; i < hi; ++i) {
      const int v = g.adj[static_cast<std::size_t>(i)];
      int& last = cursor[static_cast<std::size_t>(v)];
      if (last == static_cast<int>(k)) continue;
      last = static_cast<int>(k);
      g.adj[static_cast<std::size_t>(out++)] = v;
    }
    lo = hi;
  }
  g.ptr[m] = out;
  g.adj.resize(static_cast<std::size_t>(out));
  return g;
}

/// The whole pattern's symmetrised graph.
SymmetricGraph symmetrize(const std::vector<int>& row_ptr,
                          const std::vector<int>& col_index, std::size_t n) {
  const auto identity = [](auto v) { return static_cast<int>(v); };
  return symmetrize(row_ptr, col_index, n, identity, identity);
}

/// Exact minimum degree over explicit adjacency sets (the original
/// default's algorithm body, unchanged: one-time cost, so clarity beats
/// the quotient-graph refinements -- which is exactly why it is now the
/// legacy path). Ties break on the smallest node index, keeping the order
/// fully deterministic.
std::vector<int> md_order_graph(const SymmetricGraph& g) {
  const std::size_t n = g.size();
  std::vector<std::set<int>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    adj[v].insert(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
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

/// Binary min-heap of vertex ids on packed (degree, index) keys with a
/// position index, so a removal is one sift: DegreeQueue's overflow for
/// the degrees its buckets do not cover.
class KeyHeap {
 public:
  explicit KeyHeap(std::size_t n) : pos_(n, -1) { heap_.reserve(n); }

  /// Degree in the high word (offset so a negative one still orders
  /// below), index in the low word: integer order is (degree, index).
  static std::uint64_t key(int degree, int v) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(degree) ^
                                       0x80000000u)
            << 32) |
           static_cast<std::uint32_t>(v);
  }
  static int degree_of(std::uint64_t k) {
    return static_cast<int>(static_cast<std::uint32_t>(k >> 32) ^
                            0x80000000u);
  }
  static int vertex_of(std::uint64_t k) {
    return static_cast<int>(static_cast<std::uint32_t>(k));
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t top() const { return heap_.front(); }

  void push(int degree, int v) {
    heap_.push_back(key(degree, v));
    sift_up(heap_.size() - 1);
  }

  void remove(int v) {
    const auto i = static_cast<std::size_t>(pos_[static_cast<std::size_t>(v)]);
    pos_[static_cast<std::size_t>(v)] = -1;
    const std::uint64_t last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    sift_up(i);
    sift_down(static_cast<std::size_t>(
        pos_[static_cast<std::size_t>(vertex_of(last))]));
  }

 private:
  void place(std::size_t i, std::uint64_t k) {
    heap_[i] = k;
    pos_[static_cast<std::size_t>(vertex_of(k))] = static_cast<int>(i);
  }
  void sift_up(std::size_t i) {
    const std::uint64_t k = heap_[i];
    while (i > 0 && k < heap_[(i - 1) / 2]) {
      place(i, heap_[(i - 1) / 2]);
      i = (i - 1) / 2;
    }
    place(i, k);
  }
  void sift_down(std::size_t i) {
    const std::uint64_t k = heap_[i];
    const std::size_t size = heap_.size();
    for (std::size_t c = 2 * i + 1; c < size; c = 2 * i + 1) {
      if (c + 1 < size && heap_[c + 1] < heap_[c]) ++c;
      if (!(heap_[c] < k)) break;
      place(i, heap_[c]);
      i = c;
    }
    place(i, k);
  }

  std::vector<std::uint64_t> heap_;
  std::vector<int> pos_;
};

/// The live variables keyed on (degree, index), for AMD's exact
/// minimum. Degrees 0..kBuckets-1 -- where nearly every pivot is found --
/// each keep a set of vertex indices as a 64-ary bit tree: insert, erase
/// and smallest member walk one word per level with a count-trailing-
/// zeros, so an update costs a few instructions whatever n is. A mask says
/// which buckets are non-empty. Every other degree (large, or negative
/// after a supervariable merge) goes to the KeyHeap.
class DegreeQueue {
 public:
  /// All n vertices of a CSR graph, each at its degree.
  DegreeQueue(std::size_t n, const int* ptr) : degree_(n), heap_(n) {
    level_.reserve(kMaxLevels);  // one allocation whatever n is
    std::size_t words = n;
    do {
      words = (words + 63) / 64;
      level_.push_back(stride_);
      stride_ += words;
    } while (words > 1);
    bits_.assign(stride_ * kBuckets, 0);
    for (std::size_t v = 0; v < n; ++v) {
      insert(static_cast<int>(v), ptr[v + 1] - ptr[v]);
    }
  }

  [[nodiscard]] bool empty() const noexcept {
    return buckets_ == 0 && heap_.empty();
  }

  /// Remove and return the (degree, index)-smallest vertex.
  int pop() {
    int v;
    if (!heap_.empty() && KeyHeap::degree_of(heap_.top()) < 0) {
      v = KeyHeap::vertex_of(heap_.top());
    } else if (buckets_ != 0) {
      v = smallest(std::countr_zero(buckets_));
    } else {
      v = KeyHeap::vertex_of(heap_.top());
    }
    remove(v);
    return v;
  }

  /// Re-key v (queued) at `degree`.
  void update(int v, int degree) {
    if (degree_[static_cast<std::size_t>(v)] == degree) return;
    remove(v);
    insert(v, degree);
  }

  /// Take v (queued) out.
  void remove(int v) {
    const int d = degree_[static_cast<std::size_t>(v)];
    if (!in_buckets(d)) {
      heap_.remove(v);
      return;
    }
    std::uint64_t* set = bits_.data() + static_cast<std::size_t>(d) * stride_;
    auto i = static_cast<std::size_t>(v);
    for (const std::size_t off : level_) {
      std::uint64_t& w = set[off + i / 64];
      w &= ~(std::uint64_t{1} << (i % 64));
      if (w != 0) return;
      i /= 64;
    }
    buckets_ &= ~(std::uint32_t{1} << d);  // the top word emptied
  }

 private:
  static constexpr int kBuckets = 32;
  /// 64^6 > INT_MAX: enough bit-tree levels for any int-indexed graph.
  static constexpr std::size_t kMaxLevels = 6;

  static bool in_buckets(int degree) {
    return degree >= 0 && degree < kBuckets;
  }

  void insert(int v, int degree) {
    degree_[static_cast<std::size_t>(v)] = degree;
    if (!in_buckets(degree)) {
      heap_.push(degree, v);
      return;
    }
    buckets_ |= std::uint32_t{1} << degree;
    std::uint64_t* set =
        bits_.data() + static_cast<std::size_t>(degree) * stride_;
    auto i = static_cast<std::size_t>(v);
    for (const std::size_t off : level_) {
      std::uint64_t& w = set[off + i / 64];
      const bool had = w != 0;
      w |= std::uint64_t{1} << (i % 64);
      if (had) return;
      i /= 64;
    }
  }

  /// Smallest member of bucket d (non-empty): down from the top word.
  [[nodiscard]] int smallest(int d) const {
    const std::uint64_t* set =
        bits_.data() + static_cast<std::size_t>(d) * stride_;
    std::size_t i = 0;
    for (auto l = level_.size(); l-- > 0;) {
      i = i * 64 + static_cast<std::size_t>(
                       std::countr_zero(set[level_[l] + i]));
    }
    return static_cast<int>(i);
  }

  std::vector<int> degree_;         ///< queued degree per vertex
  std::vector<std::size_t> level_;  ///< bit-tree level -> word offset
  std::size_t stride_ = 0;          ///< words per bucket
  std::vector<std::uint64_t> bits_;  ///< kBuckets bit trees
  std::uint32_t buckets_ = 0;       ///< bit d: bucket d is non-empty
  KeyHeap heap_;
};

/// Approximate minimum degree on a quotient graph (Amestoy, Davis & Duff,
/// "An approximate minimum degree ordering algorithm", SIMAX 1996):
/// eliminated pivots survive as *elements* (their neighbourhood clique
/// represented implicitly), indistinguishable variables merge into
/// *supervariables* (one elimination covers all members), and degrees are
/// the external-degree approximation computed with the |Le \ Lp| counter
/// trick -- each pivot costs work proportional to the size of the
/// structures it touches instead of the clique it would materialise.
///
/// Layout: a handful of flat arrays sized once from the graph, no
/// per-vertex container; a vertex's scalars share one record. Vertex i
/// owns the slice [start, start + deg0(i)) of the graph's own adjacency
/// array: its variable list from the front, its element list (ascending)
/// against the back. The two never outgrow the slice, because every
/// elimination that adds an element to i's list first removes the pivot
/// or an absorbed element from it. Element member lists live in one pool,
/// appended at creation and compacted in place when full. The live lists
/// fit in the graph's size: a live element lists v only while it is in
/// v's element list, or was when v was absorbed, so v appears in at most
/// deg0(v) of them.
///
/// Determinism: pivot selection is the exact (degree, index) minimum
/// (DegreeQueue), supervariable candidates are scanned in sorted
/// (hash, index) order, and each supervariable emits its members in
/// ascending index order. tests/amd_oracle.hpp keeps the per-vertex
/// vector form this replaced; both emit the same permutation.
std::vector<int> amd_order_graph(SymmetricGraph g) {
  const std::size_t n = g.size();
  std::vector<int> order;
  order.reserve(n);
  if (n == 0) return order;

  enum : unsigned char { kVariable, kAbsorbed, kElement, kDeadElement };
  struct Vertex {
    int nv = 1;           ///< supervariable weight
    int degree = 0;       ///< external-degree approximation
    int nvar = 0;         ///< variable-list length
    int nel = 0;          ///< element-list length
    int esize = 0;        ///< element: live member weight
    int wde = -1;         ///< element: |Le \ Lp| scratch
    int epos = 0;         ///< element: offset of its members in the pool
    int elen = 0;         ///< element: member count
    int merge_head = -1;  ///< absorbed-children chain...
    int merge_next = -1;  ///< ...for supervariable emission
    unsigned char state = kVariable;
    unsigned char mark = 0;
  };
  int* const iw = g.adj.data();
  const int* const start = g.ptr.data();
  std::vector<Vertex> vx(n);
  for (std::size_t v = 0; v < n; ++v) {
    vx[v].degree = vx[v].nvar = start[v + 1] - start[v];
  }
  DegreeQueue queue(n, start);
  // Scratch written before it is read: no initialisation pass.
  const std::size_t pool_size = g.adj.size() + n;
  const auto pool = std::make_unique_for_overwrite<int[]>(pool_size);
  const auto lp = std::make_unique_for_overwrite<int[]>(n);  ///< Lp
  const auto touched = std::make_unique_for_overwrite<int[]>(n);
  const auto hash = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  std::vector<int> elems_made;  ///< elements in pool order
  elems_made.reserve(n);

  const auto at = [&vx](int v) -> Vertex& {
    return vx[static_cast<std::size_t>(v)];
  };
  const auto vars_of = [&](int v) { return iw + start[v]; };
  const auto elems_of = [&](int v) { return iw + start[v + 1] - at(v).nel; };
  const auto dead_var = [&](int v) {
    const Vertex& x = at(v);
    return x.state != kVariable || x.mark;
  };

  // Set equality of two variable lists modulo {i, j} and absorbed
  // entries -- the indistinguishability test (covers both adjacent
  // supervariable pairs, where each list holds the other, and
  // non-adjacent twins). Lists hold no repeats, and Lp's members have
  // pruned every marked vertex from theirs, so mark 2 tags i's entries.
  const auto same_vars = [&](int i, int j) {
    const auto counts = [&](int v) {
      return v != i && v != j && at(v).state != kAbsorbed;
    };
    const int* vi = vars_of(i);
    const int* vj = vars_of(j);
    int left = 0;
    for (int k = 0; k < at(i).nvar; ++k) {
      if (counts(vi[k])) {
        at(vi[k]).mark = 2;
        ++left;
      }
    }
    bool same = true;
    for (int k = 0; k < at(j).nvar && same; ++k) {
      if (!counts(vj[k])) continue;
      same = at(vj[k]).mark == 2;
      --left;
    }
    for (int k = 0; k < at(i).nvar; ++k) {
      if (counts(vi[k])) at(vi[k]).mark = 0;
    }
    return same && left == 0;
  };

  std::size_t pool_end = 0;
  long long remaining = static_cast<long long>(n);

  while (order.size() < n) {
    ICVBE_REQUIRE(!queue.empty(), "amd_order: no live pivot left");
    const int p = queue.pop();
    Vertex& pv = at(p);

    // Lp: the pivot's live neighbourhood -- its variable neighbours plus
    // every live member of its adjacent elements. Each such element's
    // members all land in Lp, so the element is absorbed by the new one.
    int* const lp_begin = lp.get();
    int* lp_end = lp_begin;
    pv.mark = 1;
    for (const int* v = vars_of(p); v != vars_of(p) + pv.nvar; ++v) {
      if (dead_var(*v)) continue;
      at(*v).mark = 1;
      *lp_end++ = *v;
    }
    for (const int* e = elems_of(p); e != elems_of(p) + pv.nel; ++e) {
      Vertex& ev = at(*e);
      if (ev.state == kDeadElement) continue;
      const int* members = pool.get() + ev.epos;
      for (int k = 0; k < ev.elen; ++k) {
        if (dead_var(members[k])) continue;
        at(members[k]).mark = 1;
        *lp_end++ = members[k];
      }
      ev.state = kDeadElement;  // Le is a subset of Lp + pivot: absorbed
      ev.elen = 0;
    }
    int lpw = 0;
    for (const int* i = lp_begin; i != lp_end; ++i) lpw += at(*i).nv;

    // w[e] = |Le \ Lp| in weight for every element adjacent to Lp (the
    // counter trick: start at the element's live weight, subtract each Lp
    // member it contains).
    int ntouched = 0;
    for (const int* i = lp_begin; i != lp_end; ++i) {
      const int* es = elems_of(*i);
      const int nvi = at(*i).nv;
      for (int k = 0; k < at(*i).nel; ++k) {
        Vertex& ev = at(es[k]);
        if (ev.state == kDeadElement) continue;
        if (ev.wde < 0) {
          ev.wde = ev.esize;
          touched[static_cast<std::size_t>(ntouched++)] = es[k];
        }
        ev.wde -= nvi;
      }
    }

    // Per-member update: prune dead state from the quotient graph and
    // recompute the approximate external degree
    //   d(i) ~ |A_i \ Lp| + |Lp \ i| + sum_e |Le \ Lp|,
    // clamped by the exact bounds (remaining weight; old degree + new
    // element contribution).
    for (const int* ip = lp_begin; ip != lp_end; ++ip) {
      const int i = *ip;
      Vertex& iv = at(i);
      int* const va = vars_of(i);
      int wv = 0;
      long long aw = 0;
      for (int k = 0; k < iv.nvar; ++k) {
        if (dead_var(va[k])) continue;
        aw += at(va[k]).nv;
        va[wv++] = va[k];
      }
      iv.nvar = wv;
      // Elements are compacted towards the slice's end (order kept), then
      // the new element p is inserted at its ascending position.
      int* const end = iw + start[i + 1];
      int we = 0;
      long long esum = 0;
      for (int k = iv.nel - 1; k >= 0; --k) {
        const int e = end[k - iv.nel];
        Vertex& ev = at(e);
        if (ev.state == kDeadElement) continue;
        if (ev.wde == 0) {
          // Everything the element covers is already in Lp: absorbed.
          ev.state = kDeadElement;
          ev.elen = 0;
          continue;
        }
        end[-1 - we++] = e;
        esum += ev.wde;
      }
      ICVBE_ASSERT(wv + we < start[i + 1] - start[i],
                   "amd_order: vertex list outgrew its slice");
      int* slot = end - we - 1;
      while (slot + 1 != end && slot[1] < p) {
        slot[0] = slot[1];
        ++slot;
      }
      *slot = p;
      iv.nel = we + 1;
      long long d = aw + (lpw - iv.nv) + esum;
      d = std::min(d, remaining - pv.nv - iv.nv);
      d = std::min(d, static_cast<long long>(iv.degree) + (lpw - iv.nv));
      iv.degree = static_cast<int>(std::max<long long>(d, 0));
    }

    // Supervariable detection among Lp's members: identical quotient-graph
    // adjacency (modulo each other) means the nodes are indistinguishable
    // and can be eliminated as one. Hash buckets keep the scan cheap; the
    // comparison itself is exact, so a hash miss only costs a merge. A
    // lone member has no twin.
    if (lp_end - lp_begin > 1) {
      for (const int* ip = lp_begin; ip != lp_end; ++ip) {
        const Vertex& iv = at(*ip);
        std::uint64_t h = 0x9e3779b97f4a7c15ull *
                          (static_cast<std::uint64_t>(iv.nvar) +
                           31 * static_cast<std::uint64_t>(iv.nel) + 1);
        const int* va = vars_of(*ip);
        for (int k = 0; k < iv.nvar; ++k) {
          h += 0x100000001b3ull * static_cast<std::uint64_t>(va[k] + 1);
        }
        const int* ea = elems_of(*ip);
        for (int k = 0; k < iv.nel; ++k) {
          h += 0x100000001b3ull * static_cast<std::uint64_t>(ea[k] + 1);
        }
        hash[static_cast<std::size_t>(*ip)] = h;
      }
      const auto hash_of = [&hash](int v) {
        return hash[static_cast<std::size_t>(v)];
      };
      std::sort(lp_begin, lp_end, [&hash_of](int a, int b) {
        const std::uint64_t ha = hash_of(a);
        const std::uint64_t hb = hash_of(b);
        return ha != hb ? ha < hb : a < b;
      });
      for (const int* bi = lp_begin; bi != lp_end;) {
        const int* bj = bi + 1;
        while (bj != lp_end && hash_of(*bj) == hash_of(*bi)) ++bj;
        for (const int* x = bi; x != bj; ++x) {
          const int i = *x;
          Vertex& iv = at(i);
          if (iv.state == kAbsorbed) continue;
          for (const int* y = x + 1; y != bj; ++y) {
            const int j = *y;
            Vertex& jv = at(j);
            if (jv.state == kAbsorbed) continue;
            if (iv.nel != jv.nel ||
                !std::equal(elems_of(i), elems_of(i) + iv.nel, elems_of(j)) ||
                !same_vars(i, j)) {
              continue;
            }
            // Merge j into i: i's one elimination will cover both.
            iv.nv += jv.nv;
            iv.degree -= jv.nv;
            jv.state = kAbsorbed;
            jv.merge_next = iv.merge_head;
            iv.merge_head = j;
            jv.nvar = 0;
            jv.nel = 0;
          }
        }
        bi = bj;
      }
    }

    // Re-key the surviving members at their new degrees; drop the merged.
    int survivors = 0;
    for (const int* ip = lp_begin; ip != lp_end; ++ip) {
      const Vertex& iv = at(*ip);
      if (iv.state == kAbsorbed) {
        queue.remove(*ip);
      } else {
        queue.update(*ip, iv.degree);
        ++survivors;
      }
    }

    // The pivot becomes an element whose members are Lp's survivors (the
    // merges conserved the weight), appended to the pool -- compacted
    // first if it is full.
    if (pool_end + static_cast<std::size_t>(survivors) > pool_size) {
      std::size_t kept = 0;
      pool_end = 0;
      for (int e : elems_made) {
        Vertex& ev = at(e);
        if (ev.state == kDeadElement) continue;
        for (int k = 0; k < ev.elen; ++k) {
          pool[pool_end + static_cast<std::size_t>(k)] =
              pool[static_cast<std::size_t>(ev.epos + k)];
        }
        ev.epos = static_cast<int>(pool_end);
        pool_end += static_cast<std::size_t>(ev.elen);
        elems_made[kept++] = e;
      }
      elems_made.resize(kept);
      ICVBE_ASSERT(pool_end + static_cast<std::size_t>(survivors) <= pool_size,
                   "amd_order: element pool overflow");
    }
    pv.state = kElement;
    pv.epos = static_cast<int>(pool_end);
    for (const int* ip = lp_begin; ip != lp_end; ++ip) {
      if (at(*ip).state != kAbsorbed) pool[pool_end++] = *ip;
    }
    pv.elen = survivors;
    elems_made.push_back(p);
    pv.esize = lpw;
    pv.nvar = 0;
    pv.nel = 0;

    // Reset the round's scratch.
    pv.mark = 0;
    for (const int* ip = lp_begin; ip != lp_end; ++ip) at(*ip).mark = 0;
    for (int k = 0; k < ntouched; ++k) {
      at(touched[static_cast<std::size_t>(k)]).wde = -1;
    }

    // Emit the pivot supervariable: p plus everything ever merged into it
    // (transitively), in ascending index order.
    const std::size_t first = order.size();
    order.push_back(p);
    for (std::size_t head = first; head < order.size(); ++head) {
      for (int c = at(order[head]).merge_head; c >= 0;
           c = at(c).merge_next) {
        order.push_back(c);
      }
    }
    if (order.size() - first > 1) {
      std::sort(order.begin() + static_cast<std::ptrdiff_t>(first),
                order.end());
    }
    remaining -= pv.nv;
  }
  return order;
}

}  // namespace

std::vector<int> minimum_degree_order(const std::vector<int>& row_ptr,
                                      const std::vector<int>& col_index,
                                      std::size_t n) {
  return md_order_graph(symmetrize(row_ptr, col_index, n));
}

std::vector<int> amd_order(const std::vector<int>& row_ptr,
                           const std::vector<int>& col_index, std::size_t n) {
  return amd_order_graph(symmetrize(row_ptr, col_index, n));
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
      SymmetricGraph g = symmetrize(
          row_ptr, col_index, m,
          [&](std::size_t k) { return block_rows[k]; },
          [&](int c) { return local_of_col[static_cast<std::size_t>(c)]; });
      const std::vector<int> local =
          options_.ordering == SparseOrdering::kAmd
              ? amd_order_graph(std::move(g))
              : md_order_graph(g);
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
