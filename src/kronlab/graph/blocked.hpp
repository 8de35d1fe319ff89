// kronlab/graph/blocked.hpp
//
// Degree-ordered, cache-blocked 4-cycle counting kernels.
//
// The reference counters in butterflies.hpp walk wedges i–j–k with a dense
// n-sized accumulator indexed by the *original* vertex ids.  On the
// heavy-tailed factors the paper cares about, wedge endpoints are wildly
// non-uniform — a few hub vertices absorb most increments — but their ids
// are scattered across the whole array, so nearly every increment is an L2
// miss.  The kernels here restructure that hot path three ways:
//
//  1. Degree ordering.  Vertices are relabeled by non-increasing degree
//     (ties by original id), so the hubs take the lowest ids and the
//     wedge rule of item 3 is one integer comparison.  The relabel runs on
//     the pool: a stable counting sort over per-worker id ranges assigns
//     the ranks, then every relabeled row gathers its neighbours' ranks
//     and sorts them on its own.
//
//  2. Blocked accumulation.  The per-worker accumulator is a dense
//     L2-sized block over the ranks just above the current start vertex,
//     with an open-addressing hash map catching the ends beyond the block.
//     The dense block uses 32-bit counters: a wedge count |N(i) ∩ N(k)|
//     never exceeds the vertex count of a factor.
//
//  3. Vertex-priority wedge enumeration (Chiba–Nishizeki, Wang et al.).
//     In relabeled order, id comparison IS degree comparison, and a wedge
//     i–j–k is enumerated only when the centre j and the end k both rank
//     above the start i.  Every 4-cycle is then counted once, from its
//     lowest-rank (highest-degree) vertex, and a wedge's centre never has
//     a higher degree than its start.  Rows are sorted, so the entries above i are a row's suffix:
//     each scan walks it backwards and stops at the first entry ≤ i.  Pass
//     A counts cnt[k] per end; pass B replays the same, now cache-warm,
//     wedges.  The vertex kernel credits Σ (cnt[k] − 1) to each centre and
//     C(c,2) to the start and to each end.  The edge kernel credits c − 1
//     to both edges of each wedge at stored-entry offsets known from the
//     row walk, which reaches each edge of each 4-cycle once, then sums
//     each edge's two mirror CSR slots with one cursor sweep.
//
// All kernels return counts bit-identical to the reference implementations
// (exact integer combinatorics — the cross-check suite and the factored
// ground truth of Thms 3–5 enforce this).

#pragma once

#include <vector>

#include "kronlab/graph/graph.hpp"

namespace kronlab::graph {

/// Degree-ordered relabeling of an undirected adjacency: `rank[v]` is v's
/// position in non-increasing degree order (ties broken by original id),
/// `orig[r]` inverts it, and `relabeled` is the adjacency re-indexed by
/// rank with rows sorted.  Relabeling is a similarity permutation, so every
/// count computed on `relabeled` maps back through `orig`.  Built on the
/// global pool; the result is the same at every pool width.
struct DegreeOrder {
  std::vector<index_t> rank; ///< original id → degree rank
  std::vector<index_t> orig; ///< degree rank → original id
  Adjacency relabeled;       ///< adjacency over ranks, rows sorted
  /// Stored-entry offset in the original matrix of each relabeled entry:
  /// entry (r, c) of `relabeled` maps to the offset of (orig[r], orig[c])
  /// in `a` (built only with `with_entry_map`; lets per-edge results
  /// computed in rank space scatter back without any binary search).
  std::vector<offset_t> entry_map;

  explicit DegreeOrder(const Adjacency& a, bool with_entry_map = false);
};

/// Number of dense 32-bit slots in the blocked wedge accumulator: 1<<16
/// entries = 256 KiB, sized to sit in a typical L2 alongside the CSR rows
/// being scanned.
inline constexpr index_t wedge_block_entries = index_t{1} << 16;

/// Per-vertex 4-cycle participation (Def. 8) via the degree-ordered
/// blocked kernel.  Bit-identical to vertex_butterflies_reference.
grb::Vector<count_t> vertex_butterflies_blocked(const Adjacency& a);

/// Per-edge 4-cycle participation (Def. 9) via the degree-ordered blocked
/// kernel; result has `a`'s structure.  Bit-identical to
/// edge_butterflies_reference.
grb::Csr<count_t> edge_butterflies_blocked(const Adjacency& a);

} // namespace kronlab::graph
