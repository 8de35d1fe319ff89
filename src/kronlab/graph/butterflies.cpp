#include "kronlab/graph/butterflies.hpp"

#include <vector>

#include "kronlab/common/error.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::graph {

namespace {

void require_simple(const Adjacency& a, const char* where) {
  KRONLAB_REQUIRE(a.nrows() == a.ncols(), "adjacency must be square");
  if (!grb::has_no_self_loops(a)) {
    throw domain_error(std::string(where) +
                       ": adjacency must have no self loops");
  }
}

/// Worker-local wedge-count table.  Allocated once per worker by the
/// dynamic dispatcher and reused across every chunk that worker claims —
/// the O(n) zero-fill happens per worker, not per chunk.
struct WedgeScratch {
  explicit WedgeScratch(index_t n)
      : cnt(static_cast<std::size_t>(n), 0) {}
  std::vector<count_t> cnt;     ///< cnt[k] = |N(i) ∩ N(k)|, zeroed between i's
  std::vector<index_t> touched; ///< nonzero entries of cnt
};

/// Visit each vertex i in [lo, hi), building the wedge-count table
/// cnt[k] = |N(i) ∩ N(k)| over i's second neighborhood, then hand
/// (i, cnt, touched) to `use`.  cnt entries are zeroed before return.
template <typename Use>
void for_each_wedge_table(const Adjacency& a, WedgeScratch& ws, index_t lo,
                          index_t hi, Use&& use) {
  auto& cnt = ws.cnt;
  auto& touched = ws.touched;
  for (index_t i = lo; i < hi; ++i) {
    touched.clear();
    for (const index_t j : a.row_cols(i)) {
      for (const index_t k : a.row_cols(j)) {
        if (k == i) continue;
        if (cnt[static_cast<std::size_t>(k)] == 0) touched.push_back(k);
        ++cnt[static_cast<std::size_t>(k)];
      }
    }
    use(i, cnt, touched);
    for (const index_t k : touched) cnt[static_cast<std::size_t>(k)] = 0;
  }
}

} // namespace

grb::Vector<count_t> vertex_butterflies(const Adjacency& a) {
  obs::KernelScope scope("graph/vertex_butterflies");
  return vertex_butterflies_blocked(a);
}

grb::Csr<count_t> edge_butterflies(const Adjacency& a) {
  obs::KernelScope scope("graph/edge_butterflies");
  return edge_butterflies_blocked(a);
}

grb::Vector<count_t> vertex_butterflies_reference(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_reference");
  obs::KernelScope scope("graph/vertex_butterflies_reference");
  grb::Vector<count_t> s(a.nrows(), 0);
  parallel_for_range_dynamic_scratch(
      0, a.nrows(), [&](std::size_t) { return WedgeScratch(a.nrows()); },
      [&](WedgeScratch& ws, index_t lo, index_t hi) {
        for_each_wedge_table(
            a, ws, lo, hi,
            [&](index_t i, const std::vector<count_t>& cnt,
                const std::vector<index_t>& touched) {
              count_t acc = 0;
              for (const index_t k : touched) {
                const count_t c = cnt[static_cast<std::size_t>(k)];
                acc += c * (c - 1) / 2;
              }
              s[i] = acc;
            });
      });
  return s;
}

grb::Csr<count_t> edge_butterflies_reference(const Adjacency& a) {
  require_simple(a, "edge_butterflies_reference");
  obs::KernelScope scope("graph/edge_butterflies_reference");
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  parallel_for_range_dynamic_scratch(
      0, a.nrows(), [&](std::size_t) { return WedgeScratch(a.nrows()); },
      [&](WedgeScratch& ws, index_t lo, index_t hi) {
        for_each_wedge_table(
            a, ws, lo, hi,
            [&](index_t i, const std::vector<count_t>& cnt,
                const std::vector<index_t>&) {
              const auto cols = a.row_cols(i);
              for (std::size_t e = 0; e < cols.size(); ++e) {
                const index_t j = cols[e];
                count_t acc = 0;
                for (const index_t k : a.row_cols(j)) {
                  if (k == i) continue;
                  acc += cnt[static_cast<std::size_t>(k)] - 1;
                }
                vals[static_cast<std::size_t>(
                         rp[static_cast<std::size_t>(i)]) +
                     e] = acc;
              }
            });
      });
  return out;
}

count_t global_butterflies(const Adjacency& a) {
  // Each square has 4 vertices, each participating once.
  return grb::reduce(vertex_butterflies(a)) / 4;
}

count_t global_butterflies_naive(const Adjacency& a) {
  require_simple(a, "global_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  count_t total = 0;
  // Count each 4-cycle exactly once: anchor at its smallest vertex p0 and
  // kill the reflection symmetry by requiring p1 < p3.
  for (index_t p0 = 0; p0 < n; ++p0) {
    for (const index_t p1 : a.row_cols(p0)) {
      if (p1 <= p0) continue;
      for (const index_t p2 : a.row_cols(p1)) {
        if (p2 <= p0) continue; // p2 != p0 and p0 minimal
        for (const index_t p3 : a.row_cols(p2)) {
          if (p3 <= p1 || p3 == p2) continue; // p1 < p3, distinctness
          if (a.has(p3, p0)) ++total;
        }
      }
    }
  }
  return total;
}

grb::Vector<count_t> vertex_butterflies_naive(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  grb::Vector<count_t> s(n, 0);
  for (index_t p0 = 0; p0 < n; ++p0) {
    for (const index_t p1 : a.row_cols(p0)) {
      for (const index_t p2 : a.row_cols(p1)) {
        if (p2 == p0) continue;
        for (const index_t p3 : a.row_cols(p2)) {
          if (p3 == p1 || p3 == p0) continue;
          if (a.has(p3, p0)) ++s[p0];
        }
      }
    }
  }
  // Each 4-cycle through p0 was traversed in both directions.
  for (index_t i = 0; i < n; ++i) s[i] /= 2;
  return s;
}

grb::Csr<count_t> edge_butterflies_naive(const Adjacency& a) {
  require_simple(a, "edge_butterflies_naive");
  const index_t n = a.nrows();
  KRONLAB_REQUIRE(n <= 128, "naive counter is for tiny graphs only");
  grb::Csr<count_t> out = a;
  auto& vals = out.vals();
  const auto& rp = out.row_ptr();
  for (index_t i = 0; i < n; ++i) {
    const auto cols = out.row_cols(i);
    for (std::size_t e = 0; e < cols.size(); ++e) {
      const index_t j = cols[e];
      count_t c = 0;
      // Squares i–j–x–y–i with all four distinct.
      for (const index_t x : a.row_cols(j)) {
        if (x == i) continue;
        for (const index_t y : a.row_cols(x)) {
          if (y == j || y == i) continue;
          if (a.has(y, i)) ++c;
        }
      }
      vals[static_cast<std::size_t>(rp[static_cast<std::size_t>(i)]) + e] =
          c;
    }
  }
  return out;
}

} // namespace kronlab::graph
