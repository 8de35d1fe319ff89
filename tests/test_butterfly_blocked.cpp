// Randomized cross-checks for the degree-ordered, cache-blocked counting
// kernels (graph/blocked.*): blocked vs retained reference kernels vs the
// factored ground truth (Thms 3–5), at every pool width the CI sanitizer
// jobs exercise.  The blocked kernels are the repo's default dispatch, so
// any relabeling bug (wrong mirror slot, cursor drift, rank collision) or
// scheduling bug (scratch leakage between chunks, dropped chunk) breaks
// bit-exact agreement here.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "kronlab/common/random.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/gen/rmat.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/ops.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/parallel/thread_pool.hpp"

namespace kronlab {
namespace {

using graph::Adjacency;

Adjacency seeded_graph(int id) {
  Rng rng(7100 + static_cast<std::uint64_t>(id));
  switch (id % 6) {
    case 0: return gen::connected_random_bipartite(20, 24, 90, rng);
    case 1: return gen::preferential_bipartite(30, 36, 180, rng);
    case 2: return gen::random_bipartite(24, 24, 110, rng);
    case 3: return gen::random_nonbipartite_connected(40, 140, rng);
    case 4: {
      gen::RmatParams p;
      p.scale_u = 5;
      p.scale_w = 5;
      p.edges = 160;
      return gen::rmat_bipartite(p, rng);
    }
    default: return gen::preferential_bipartite(48, 40, 260, rng);
  }
}

// A sparse bipartite graph whose 4-cycles reach the wedge accumulator's
// hash tail.  The kernels enumerate wedges i–j–k only from a start i that
// ranks below both j and k, and keep a dense block for the ends k within
// wedge_block_entries ranks above i; farther ends go to the tail.  So the
// graph needs ends ranked more than wedge_block_entries above a start,
// reached through centres that rank above that start.  Here vertex 0 is a
// hub joined to `centres` mid-degree centres, and each of `leaves` leaves
// joins two distinct centres.  The hub's degree (512) beats every
// centre's (1 + 2·68000/512 ≈ 267 on average), and a leaf has degree 2, so
// the hub ranks 0, the centres rank 1..512 and the leaves rank above them
// in id order.  From the hub, every leaf is a wedge end with count 2 (one
// 4-cycle hub–centre–leaf–centre), and the ~3000 leaves ranked more than
// wedge_block_entries above the hub land in the tail, which grows from
// 1024 to 8192 slots on the way.
constexpr index_t centres = 512;
constexpr index_t leaves = 68000;

Adjacency hub_tail_graph() {
  Rng rng(7177);
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t c = 1; c <= centres; ++c) edges.emplace_back(0, c);
  for (index_t l = 0; l < leaves; ++l) {
    const index_t leaf = centres + 1 + l;
    const index_t c = rng.uniform(1, centres);
    const index_t c2 = rng.uniform(1, centres - 1);
    edges.emplace_back(leaf, c);
    edges.emplace_back(leaf, c2 < c ? c2 : c2 + 1); // a second, distinct centre
  }
  return graph::from_undirected_edges(centres + 1 + leaves, edges);
}

/// Wedges i–j–k the blocked kernels enumerate (j and k ranked above i)
/// whose end k lies past the dense block, so it is counted in the tail.
count_t tail_wedges(const graph::DegreeOrder& ord) {
  const auto& g = ord.relabeled;
  count_t tail = 0;
  for (index_t i = 0; i < g.nrows(); ++i) {
    for (const index_t j : g.row_cols(i)) {
      if (j <= i) continue;
      for (const index_t k : g.row_cols(j)) {
        if (k > i && k - (i + 1) >= graph::wedge_block_entries) ++tail;
      }
    }
  }
  return tail;
}

// -------------------------------------------------------------------------
// Relabeling layer: DegreeOrder must be a degree-sorted permutation whose
// entry map really is the CSR mirror involution.

TEST(DegreeOrder, RanksSortByDegreeAndRoundTrip) {
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const graph::DegreeOrder ord(a);
    const auto& g = ord.relabeled;
    ASSERT_EQ(g.nrows(), a.nrows());
    ASSERT_EQ(g.nnz(), a.nnz());
    for (index_t c = 0; c + 1 < g.nrows(); ++c) {
      // Rank order is non-increasing degree.
      ASSERT_GE(g.row_cols(c).size(), g.row_cols(c + 1).size())
          << "graph " << id << " rank " << c;
    }
    for (index_t v = 0; v < a.nrows(); ++v) {
      ASSERT_EQ(ord.orig[ord.rank[v]], v) << "graph " << id;
      ASSERT_EQ(g.row_cols(ord.rank[v]).size(), a.row_cols(v).size())
          << "graph " << id;
    }
  }
}

TEST(DegreeOrder, EntryMapScattersRankEntriesToOriginalOffsets) {
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const graph::DegreeOrder ord(a, /*with_entry_map=*/true);
    const auto& g = ord.relabeled;
    ASSERT_EQ(ord.entry_map.size(), static_cast<std::size_t>(g.nnz()));

    // Original row of every original stored-entry offset.
    const auto& arp = a.row_ptr();
    std::vector<index_t> orig_row(static_cast<std::size_t>(a.nnz()));
    for (index_t u = 0; u < a.nrows(); ++u) {
      for (offset_t p = arp[static_cast<std::size_t>(u)];
           p < arp[static_cast<std::size_t>(u) + 1]; ++p) {
        orig_row[static_cast<std::size_t>(p)] = u;
      }
    }

    // entry_map must be a bijection: relabeled entry (r, c) ↦ the original
    // stored entry (orig[r], orig[c]).
    std::vector<char> seen(static_cast<std::size_t>(a.nnz()), 0);
    const auto& grp = g.row_ptr();
    for (index_t r = 0; r < g.nrows(); ++r) {
      for (offset_t p = grp[static_cast<std::size_t>(r)];
           p < grp[static_cast<std::size_t>(r) + 1]; ++p) {
        const auto q = static_cast<std::size_t>(
            ord.entry_map[static_cast<std::size_t>(p)]);
        ASSERT_FALSE(seen[q]) << "graph " << id << " entry " << p;
        seen[q] = 1;
        ASSERT_EQ(orig_row[q], ord.orig[static_cast<std::size_t>(r)])
            << "graph " << id << " entry " << p;
        ASSERT_EQ(a.col_idx()[q],
                  ord.orig[static_cast<std::size_t>(
                      g.col_idx()[static_cast<std::size_t>(p)])])
            << "graph " << id << " entry " << p;
      }
    }
  }
}

TEST(DegreeOrder, TiesKeepIdOrderAndBuildIsWidthIndependent) {
  for (const auto& a : {seeded_graph(1), seeded_graph(5), hub_tail_graph()}) {
    std::vector<graph::DegreeOrder> orders;
    for (const std::size_t width : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(width);
      ScopedPoolOverride guard(pool);
      orders.emplace_back(a, /*with_entry_map=*/true);
      const auto& ord = orders.back();
      for (index_t r = 0; r + 1 < a.nrows(); ++r) {
        const index_t v = ord.orig[static_cast<std::size_t>(r)];
        const index_t w = ord.orig[static_cast<std::size_t>(r) + 1];
        if (a.row_degree(v) == a.row_degree(w)) {
          ASSERT_LT(v, w) << "rank " << r << " width " << width;
        }
      }
      // The plain relabel builds the same rows as the one with the map.
      const graph::DegreeOrder plain(a);
      ASSERT_EQ(plain.rank, ord.rank) << "width " << width;
      ASSERT_EQ(plain.relabeled, ord.relabeled) << "width " << width;
    }
    for (std::size_t k = 1; k < orders.size(); ++k) {
      EXPECT_EQ(orders[k].rank, orders[0].rank) << "order " << k;
      EXPECT_EQ(orders[k].orig, orders[0].orig) << "order " << k;
      EXPECT_EQ(orders[k].relabeled.col_idx(), orders[0].relabeled.col_idx())
          << "order " << k;
      EXPECT_EQ(orders[k].entry_map, orders[0].entry_map) << "order " << k;
    }
  }
}

// -------------------------------------------------------------------------
// Kernel layer: blocked == reference, bit for bit, at every pool width.

class BlockedWidthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedWidthTest, VertexBlockedMatchesReference) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 12; ++id) {
    const auto a = seeded_graph(id);
    const auto ref = graph::vertex_butterflies_reference(a);
    const auto blk = graph::vertex_butterflies_blocked(a);
    ASSERT_EQ(ref, blk) << "graph " << id << " width " << GetParam();
  }
}

TEST_P(BlockedWidthTest, EdgeBlockedMatchesReference) {
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 12; ++id) {
    const auto a = seeded_graph(id);
    const auto ref = graph::edge_butterflies_reference(a);
    const auto blk = graph::edge_butterflies_blocked(a);
    ASSERT_EQ(ref.nrows(), blk.nrows()) << "graph " << id;
    for (index_t i = 0; i < ref.nrows(); ++i) {
      const auto rc = ref.row_cols(i);
      const auto bc = blk.row_cols(i);
      const auto rv = ref.row_vals(i);
      const auto bv = blk.row_vals(i);
      ASSERT_EQ(rc.size(), bc.size()) << "graph " << id << " row " << i;
      for (std::size_t e = 0; e < rc.size(); ++e) {
        ASSERT_EQ(rc[e], bc[e]) << "graph " << id << " row " << i;
        ASSERT_EQ(rv[e], bv[e])
            << "graph " << id << " edge (" << i << "," << rc[e]
            << ") width " << GetParam();
      }
    }
  }
}

TEST_P(BlockedWidthTest, DispatchersUseBlockedAndStayExact) {
  // The public entry points dispatch to the blocked kernels; they must
  // still satisfy the Def. 8 / Def. 9 identity s = ½ ◇ 1.
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  for (int id = 0; id < 6; ++id) {
    const auto a = seeded_graph(id);
    const auto s = graph::vertex_butterflies(a);
    const auto row_sums = grb::reduce_rows(graph::edge_butterflies(a));
    for (index_t i = 0; i < a.nrows(); ++i) {
      ASSERT_EQ(2 * s[i], row_sums[i]) << "graph " << id << " vertex " << i;
    }
  }
}

// Expect both blocked kernels to agree with the references on `a`.
void expect_blocked_matches_reference(const Adjacency& a, const char* what) {
  EXPECT_EQ(graph::vertex_butterflies_blocked(a),
            graph::vertex_butterflies_reference(a))
      << what;
  EXPECT_EQ(graph::edge_butterflies_blocked(a),
            graph::edge_butterflies_reference(a))
      << what;
}

TEST_P(BlockedWidthTest, RegularGraphsLetTheIdTieBreakDecide) {
  // Every degree ties, so the rank order is the id order.  Q_d has C(d,2)
  // 4-cycles at each vertex and d − 1 through each edge.
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  constexpr int d = 6;
  const auto q = gen::hypercube(d);
  const auto s = graph::vertex_butterflies_blocked(q);
  for (index_t v = 0; v < q.nrows(); ++v) {
    ASSERT_EQ(s[v], d * (d - 1) / 2) << "vertex " << v;
  }
  const auto e = graph::edge_butterflies_blocked(q);
  for (const count_t c : e.vals()) ASSERT_EQ(c, d - 1);
  expect_blocked_matches_reference(q, "hypercube");
  expect_blocked_matches_reference(gen::crown_graph(9), "crown");
}

TEST_P(BlockedWidthTest, CompleteBipartiteMatchesClosedForms) {
  // K_{a,b}: a left vertex lies on (a−1)·C(b,2) 4-cycles, a right vertex
  // on (b−1)·C(a,2), and an edge on (a−1)(b−1).
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  constexpr index_t na = 5;
  constexpr index_t nb = 7;
  const auto k = gen::complete_bipartite(na, nb);
  const auto s = graph::vertex_butterflies_blocked(k);
  for (index_t v = 0; v < na; ++v) {
    EXPECT_EQ(s[v], (na - 1) * nb * (nb - 1) / 2) << "left " << v;
  }
  for (index_t v = na; v < na + nb; ++v) {
    EXPECT_EQ(s[v], (nb - 1) * na * (na - 1) / 2) << "right " << v;
  }
  const auto e = graph::edge_butterflies_blocked(k);
  ASSERT_EQ(e.nnz(), 2 * na * nb);
  for (const count_t c : e.vals()) EXPECT_EQ(c, (na - 1) * (nb - 1));
}

TEST_P(BlockedWidthTest, StarWithIsolatedVerticesHasNoSquares) {
  // Isolated ids on both sides of the hub and its leaves: degree 0 ranks
  // last, and no wedge closes.
  ThreadPool pool(GetParam());
  ScopedPoolOverride guard(pool);
  const index_t hub = 7;
  std::vector<std::pair<index_t, index_t>> edges;
  for (const index_t leaf : {1, 3, 4, 9, 12, 13, 15}) {
    edges.emplace_back(hub, leaf);
  }
  const auto a = graph::from_undirected_edges(18, edges);
  EXPECT_EQ(graph::vertex_butterflies_blocked(a),
            grb::Vector<count_t>(a.nrows(), 0));
  const auto e = graph::edge_butterflies_blocked(a);
  EXPECT_EQ(e.col_idx(), a.col_idx());
  for (const count_t c : e.vals()) EXPECT_EQ(c, 0);
  expect_blocked_matches_reference(a, "star");
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, BlockedWidthTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(BlockedHashTail, MatchesReferenceBeyondTheDenseBlock) {
  const auto a = hub_tail_graph();
  ASSERT_GT(a.nrows(), graph::wedge_block_entries);
  // The hub must rank first and outrank every centre, or the wedges from
  // it miss the tail and the tail goes untested.
  const graph::DegreeOrder ord(a);
  ASSERT_EQ(ord.rank[0], 0);
  for (index_t c = 1; c <= centres; ++c) {
    ASSERT_LE(ord.rank[static_cast<std::size_t>(c)], centres) << "centre " << c;
  }
  ASSERT_GT(tail_wedges(ord), 2 * 1024) << "too few tail ends to rehash";
  const auto vref = graph::vertex_butterflies_reference(a);
  const auto eref = graph::edge_butterflies_reference(a);
  count_t tail_squares = 0;
  for (index_t v = 0; v < a.nrows(); ++v) {
    if (ord.rank[static_cast<std::size_t>(v)] > graph::wedge_block_entries) {
      tail_squares += vref[v];
    }
  }
  ASSERT_GT(tail_squares, 0) << "no 4-cycle reaches the tail";
  for (const std::size_t width : {1u, 4u}) {
    ThreadPool pool(width);
    ScopedPoolOverride guard(pool);
    EXPECT_EQ(graph::vertex_butterflies_blocked(a), vref) << "width " << width;
    EXPECT_EQ(graph::edge_butterflies_blocked(a), eref) << "width " << width;
  }
}

// -------------------------------------------------------------------------
// Ground-truth layer: the paper's mutual-validation loop (Thms 3–5 vs the
// blocked direct counters on materialized products) at several widths.

TEST(BlockedGroundTruth, FactoredTruthMatchesBlockedCountersAcrossWidths) {
  Rng rng(88);
  const auto a = gen::connected_random_bipartite(6, 7, 20, rng);
  const auto b = gen::connected_random_bipartite(5, 6, 16, rng);
  const auto kp = kron::BipartiteKronecker::assumption_ii(a, b);
  for (const std::size_t width : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(width);
    ScopedPoolOverride guard(pool);
    const auto check = kron::verify_ground_truth(kp);
    EXPECT_TRUE(check.vertex_ok) << "width " << width;
    EXPECT_TRUE(check.edge_ok) << "width " << width;
    EXPECT_TRUE(check.global_ok)
        << "width " << width << ": factored " << check.global_factored
        << " vs direct " << check.global_direct;
    EXPECT_GT(check.edges_checked, 0) << "width " << width;
  }
}

TEST(BlockedGroundTruth, RawLoopyProductStaysExact) {
  // M = A + I_A exercises the loop-aware branch of the factored forms and
  // a denser product than the loop-free cases above.
  Rng rng(89);
  const auto a = gen::connected_random_bipartite(5, 5, 14, rng);
  const auto b = gen::connected_random_bipartite(6, 5, 18, rng);
  const auto kp =
      kron::BipartiteKronecker::raw(grb::add_identity(a), b);
  const auto check = kron::verify_ground_truth(kp);
  EXPECT_TRUE(check.ok()) << "factored " << check.global_factored
                          << " vs direct " << check.global_direct;
}

} // namespace
} // namespace kronlab
