#pragma once
// The quotient-graph AMD ordering as it stood on per-vertex std::vectors
// behind a lazy-deletion priority_queue, kept verbatim as the oracle of
// the flat-array amd_order (test and bench support; not linked into the
// library). The flat implementation must emit this exact permutation.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "icvbe/common/error.hpp"

namespace icvbe::linalg::oracle {

/// Symmetrised pattern as sorted, deduplicated adjacency lists (no self
/// loops) -- the graph both fill-reducing orderings run on.
inline std::vector<std::vector<int>> symmetrized_adjacency(
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
inline std::vector<int> amd_order_graph(std::size_t n,
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

/// The oracle's amd_order: the same symmetrised pattern, then the
/// vector-based ordering.
inline std::vector<int> amd_order(const std::vector<int>& row_ptr,
                                  const std::vector<int>& col_index,
                                  std::size_t n) {
  return amd_order_graph(n, symmetrized_adjacency(row_ptr, col_index, n));
}

}  // namespace icvbe::linalg::oracle
