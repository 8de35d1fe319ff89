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

// A sparse, hub-heavy bipartite graph with more than wedge_block_entries
// vertices, so the lowest-degree ranks fall in the wedge accumulator's
// hash tail.  Vertices [0, small_hubs) are hubs of degree ~67, vertex
// big_hub is a hub of degree 2000, and every leaf has degree 2.  Ties
// rank in id order, so the last leaves — all adjacent to the big hub —
// get the highest ranks: each of them walks past up to 1999 distinct tail
// endpoints in one row, which makes the tail table rehash twice.
constexpr index_t small_hubs = 2000;
constexpr index_t big_hub = small_hubs;
constexpr index_t leaves = 68000;
constexpr index_t big_hub_leaves = 2000;

Adjacency hub_tail_graph() {
  Rng rng(7177);
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t l = 0; l < leaves; ++l) {
    const index_t leaf = big_hub + 1 + l;
    const index_t h = rng.uniform(0, small_hubs - 1);
    edges.emplace_back(leaf, h);
    if (l >= leaves - big_hub_leaves) {
      edges.emplace_back(leaf, big_hub);
    } else {
      const index_t h2 = rng.uniform(0, small_hubs - 2);
      edges.emplace_back(leaf, h2 < h ? h2 : h2 + 1); // a second, distinct hub
    }
  }
  return graph::from_undirected_edges(big_hub + 1 + leaves, edges);
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

INSTANTIATE_TEST_SUITE_P(PoolWidths, BlockedWidthTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(BlockedHashTail, MatchesReferenceBeyondTheDenseBlock) {
  const auto a = hub_tail_graph();
  ASSERT_GT(a.nrows(), graph::wedge_block_entries);
  {
    // Every big-hub leaf must rank in the tail, or the tail goes untested.
    const graph::DegreeOrder ord(a);
    for (index_t v = a.nrows() - big_hub_leaves; v < a.nrows(); ++v) {
      ASSERT_GE(ord.rank[static_cast<std::size_t>(v)],
                graph::wedge_block_entries)
          << "vertex " << v;
    }
  }
  const auto vref = graph::vertex_butterflies_reference(a);
  const auto eref = graph::edge_butterflies_reference(a);
  count_t tail_squares = 0;
  for (index_t v = a.nrows() - big_hub_leaves; v < a.nrows(); ++v) {
    tail_squares += vref[v];
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
