#include "kronlab/graph/blocked.hpp"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "kronlab/common/error.hpp"
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

/// Blocked wedge accumulator: dense 32-bit counters over relabeled ids
/// [0, block), open-addressing hash for the tail.  A wedge count is at
/// most min(d_i, d_k) < n, so 32 bits suffice for any factor this library
/// materializes (products beyond 2^32 vertices are never counted
/// directly).
class WedgeAccumulator {
public:
  explicit WedgeAccumulator(index_t n)
      : block_(std::min(n, wedge_block_entries)),
        dense_(static_cast<std::size_t>(block_), 0),
        touched_dense_(static_cast<std::size_t>(block_) + 1) {}

  void add(index_t k) {
    if (k < block_) {
      // Branchless append: always write k past the touched prefix, and
      // keep it only when this is k's first wedge.
      auto& slot = dense_[static_cast<std::size_t>(k)];
      touched_dense_[touched_count_] = static_cast<std::uint32_t>(k);
      touched_count_ += static_cast<std::size_t>(slot == 0);
      ++slot;
    } else {
      add_tail(k);
    }
  }

  [[nodiscard]] count_t get(index_t k) const {
    if (k < block_) {
      return static_cast<count_t>(dense_[static_cast<std::size_t>(k)]);
    }
    if (tail_keys_.empty()) return 0;
    const std::size_t mask = tail_keys_.size() - 1;
    std::size_t slot = hash_of(k) & mask;
    while (tail_keys_[slot] != empty_key) {
      if (tail_keys_[slot] == k) {
        return static_cast<count_t>(tail_vals_[slot]);
      }
      slot = (slot + 1) & mask;
    }
    return 0;
  }

  /// Visit every nonzero (endpoint, count) pair, then zero the table.
  template <typename Use>
  void drain(Use&& use) {
    for (std::size_t t = 0; t < touched_count_; ++t) {
      const std::uint32_t k = touched_dense_[t];
      use(static_cast<index_t>(k), static_cast<count_t>(dense_[k]));
      dense_[k] = 0;
    }
    touched_count_ = 0;
    for (const std::size_t s : touched_tail_) {
      use(tail_keys_[s], static_cast<count_t>(tail_vals_[s]));
      tail_keys_[s] = empty_key;
      tail_vals_[s] = 0;
    }
    touched_tail_.clear();
  }

  /// Zero the table without visiting (edge kernel's per-row reset).
  void clear() {
    drain([](index_t, count_t) {});
  }

  [[nodiscard]] bool empty() const {
    return touched_count_ == 0 && touched_tail_.empty();
  }

private:
  static constexpr index_t empty_key = -1;

  [[nodiscard]] static std::size_t hash_of(index_t k) {
    // Fibonacci hashing; keys are ≥ block_ so low bits alone are biased.
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(k) * 0x9e3779b97f4a7c15ull >> 32);
  }

  void add_tail(index_t k) {
    if (tail_keys_.empty()) rehash(1024);
    // Grow at 2/3 load so probe chains stay short.
    if (3 * (touched_tail_.size() + 1) > 2 * tail_keys_.size()) {
      rehash(tail_keys_.size() * 2);
    }
    const std::size_t mask = tail_keys_.size() - 1;
    std::size_t slot = hash_of(k) & mask;
    while (tail_keys_[slot] != empty_key && tail_keys_[slot] != k) {
      slot = (slot + 1) & mask;
    }
    if (tail_keys_[slot] == empty_key) {
      tail_keys_[slot] = k;
      tail_vals_[slot] = 0;
      touched_tail_.push_back(slot);
    }
    ++tail_vals_[slot];
  }

  void rehash(std::size_t capacity) {
    std::vector<index_t> old_keys = std::move(tail_keys_);
    std::vector<std::uint32_t> old_vals = std::move(tail_vals_);
    std::vector<std::size_t> old_touched = std::move(touched_tail_);
    tail_keys_.assign(capacity, empty_key);
    tail_vals_.assign(capacity, 0);
    touched_tail_.clear();
    touched_tail_.reserve(capacity);
    const std::size_t mask = capacity - 1;
    for (const std::size_t s : old_touched) {
      std::size_t slot = hash_of(old_keys[s]) & mask;
      while (tail_keys_[slot] != empty_key) slot = (slot + 1) & mask;
      tail_keys_[slot] = old_keys[s];
      tail_vals_[slot] = old_vals[s];
      touched_tail_.push_back(slot);
    }
  }

  index_t block_;
  std::vector<std::uint32_t> dense_;  ///< counts for ids < block_
  /// Ids touched since the last drain, in [0, touched_count_); one slot
  /// more than block_ for the speculative write of add().
  std::vector<std::uint32_t> touched_dense_;
  std::size_t touched_count_ = 0;
  std::vector<index_t> tail_keys_;    ///< open addressing, power-of-two
  std::vector<std::uint32_t> tail_vals_;
  std::vector<std::size_t> touched_tail_; ///< occupied slots, for drain
};

} // namespace

DegreeOrder::DegreeOrder(const Adjacency& a, bool with_entry_map) {
  obs::KernelScope scope("graph/degree_order");
  const index_t n = a.nrows();
  const auto un = static_cast<std::size_t>(n);
  rank.resize(un);
  orig.resize(un);
  std::vector<offset_t> row_ptr(un + 1);
  row_ptr[un] = a.nnz();

  // Ranks: a stable counting sort by non-increasing degree over one
  // contiguous id range per pool worker.  Each part counts its degrees; a
  // serial pass over (degree descending, part ascending) turns the counts
  // into each part's first rank per degree; each part then hands out ranks
  // to its vertices in id order.  Ties therefore keep id order at any pool
  // width.  Every rank of degree class d is followed by d entries, so a
  // row's offset is its class's first offset plus d per earlier rank.
  const offset_t max_degree = parallel_reduce(
      0, n, offset_t{0}, [&](index_t v) { return a.row_degree(v); },
      [](offset_t x, offset_t y) { return std::max(x, y); });
  const auto classes = static_cast<std::size_t>(max_degree) + 1;
  // Below parallel_grain vertices, dispatch costs more than these passes.
  const bool serial = n < parallel_grain;
  const index_t parts =
      serial ? 1 : static_cast<index_t>(global_pool().size());
  const index_t part_len = (n + parts - 1) / parts;
  std::vector<offset_t> next(static_cast<std::size_t>(parts) * classes, 0);
  const auto for_each_part = [&](auto&& body) {
    parallel_for_dynamic(
        0, parts,
        [&](index_t t) {
          body(&next[static_cast<std::size_t>(t) * classes], t * part_len,
               std::min(n, (t + 1) * part_len));
        },
        global_pool(), /*grain=*/1);
  };
  for_each_part([&](offset_t* count, index_t lo, index_t hi) {
    for (index_t v = lo; v < hi; ++v) ++count[a.row_degree(v)];
  });
  std::vector<offset_t> class_rank(classes);
  std::vector<offset_t> class_offset(classes);
  offset_t ranked = 0;
  offset_t entries = 0;
  for (std::size_t d = classes; d-- > 0;) {
    class_rank[d] = ranked;
    class_offset[d] = entries;
    for (index_t t = 0; t < parts; ++t) {
      auto& slot = next[static_cast<std::size_t>(t) * classes + d];
      const offset_t count = slot;
      slot = ranked;
      ranked += count;
    }
    entries += (ranked - class_rank[d]) * static_cast<offset_t>(d);
  }
  for_each_part([&](offset_t* next_rank, index_t lo, index_t hi) {
    for (index_t v = lo; v < hi; ++v) {
      const offset_t d = a.row_degree(v);
      const index_t r = next_rank[d]++;
      rank[static_cast<std::size_t>(v)] = r;
      orig[static_cast<std::size_t>(r)] = v;
      row_ptr[static_cast<std::size_t>(r)] =
          class_offset[static_cast<std::size_t>(d)] +
          (r - class_rank[static_cast<std::size_t>(d)]) * d;
    }
  });

  // Rows: relabeled row r gathers the ranks of orig[r]'s neighbours and
  // sorts them.  With the entry map, each rank is packed above its
  // position e in the original row, so relabeled entry (r, c) maps to the
  // stored offset arp[orig[r]] + e of original entry (orig[r], orig[c]).
  const auto nnz = static_cast<std::size_t>(a.nnz());
  KRONLAB_REQUIRE(!with_entry_map || n <= index_t{1} << 32,
                  "entry map packs ranks and row positions in 32 bits");
  // A fresh nnz-sized array costs mostly its first-touch page faults;
  // value-initializing each array on its own worker overlaps them.
  std::vector<index_t> col_idx;
  std::vector<count_t> ones;
  const index_t arrays = with_entry_map ? 3 : 2;
  parallel_for_dynamic(
      0, arrays,
      [&](index_t k) {
        if (k == 0) col_idx.resize(nnz);
        if (k == 1) ones.assign(nnz, 1);
        if (k == 2) entry_map.resize(nnz);
      },
      global_pool(), /*grain=*/serial ? arrays : 1);
  const auto& arp = a.row_ptr();
  parallel_for_range_dynamic_scratch(
      0, n, [](std::size_t) { return std::vector<std::uint64_t>(); },
      [&](std::vector<std::uint64_t>& keys, index_t lo, index_t hi) {
        for (index_t r = lo; r < hi; ++r) {
          const index_t v = orig[static_cast<std::size_t>(r)];
          const auto cols = a.row_cols(v);
          const auto base =
              static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
          if (!with_entry_map) {
            index_t* const row = col_idx.data() + base;
            for (std::size_t e = 0; e < cols.size(); ++e) {
              row[e] = rank[static_cast<std::size_t>(cols[e])];
            }
            std::sort(row, row + cols.size());
            continue;
          }
          keys.resize(cols.size());
          for (std::size_t e = 0; e < cols.size(); ++e) {
            const auto c = static_cast<std::uint64_t>(
                rank[static_cast<std::size_t>(cols[e])]);
            keys[e] = c << 32 | e;
          }
          std::sort(keys.begin(), keys.end());
          const offset_t orig_base = arp[static_cast<std::size_t>(v)];
          for (std::size_t e = 0; e < keys.size(); ++e) {
            col_idx[base + e] = static_cast<index_t>(keys[e] >> 32);
            entry_map[base + e] =
                orig_base + static_cast<offset_t>(keys[e] & 0xffffffffu);
          }
        }
      });
  relabeled = Adjacency(n, n, std::move(row_ptr), std::move(col_idx),
                        std::move(ones));
}

grb::Vector<count_t> vertex_butterflies_blocked(const Adjacency& a) {
  require_simple(a, "vertex_butterflies_blocked");
  obs::KernelScope scope("graph/vertex_butterflies_blocked");
  const index_t n = a.nrows();
  grb::Vector<count_t> out(n, 0);
  if (n == 0) return out;
  const DegreeOrder ord(a);
  const Adjacency& g = ord.relabeled;

  // Per-worker partial per-vertex sums (in rank space): each unordered
  // endpoint pair {i, k} is visited once, from the higher-rank (lower
  // degree) side, and credits both endpoints.
  struct Scratch {
    WedgeAccumulator acc;
    std::vector<count_t>* partial;
  };
  std::vector<std::vector<count_t>> partials(global_pool().size());
  parallel_for_range_dynamic_scratch(
      0, n,
      [&](std::size_t id) {
        partials[id].assign(static_cast<std::size_t>(n), 0);
        return Scratch{WedgeAccumulator(n), &partials[id]};
      },
      [&](Scratch& ws, index_t lo, index_t hi) {
        auto& partial = *ws.partial;
        for (index_t i = lo; i < hi; ++i) {
          for (const index_t j : g.row_cols(i)) {
            for (const index_t k : g.row_cols(j)) {
              if (k >= i) break; // row sorted: rest is higher-rank pairs
              ws.acc.add(k);
            }
          }
          count_t own = 0;
          ws.acc.drain([&](index_t k, count_t c) {
            const count_t pairs = c * (c - 1) / 2;
            own += pairs;
            partial[static_cast<std::size_t>(k)] += pairs;
          });
          partial[static_cast<std::size_t>(i)] += own;
        }
      });

  parallel_for_dynamic(0, n, [&](index_t r) {
    count_t acc = 0;
    for (const auto& p : partials) {
      if (!p.empty()) acc += p[static_cast<std::size_t>(r)];
    }
    out[ord.orig[static_cast<std::size_t>(r)]] = acc;
  });
  return out;
}

grb::Csr<count_t> edge_butterflies_blocked(const Adjacency& a) {
  require_simple(a, "edge_butterflies_blocked");
  obs::KernelScope scope("graph/edge_butterflies_blocked");
  if (a.nrows() == 0 || a.nnz() == 0) return a;
  const DegreeOrder ord(a, /*with_entry_map=*/true);
  const Adjacency& g = ord.relabeled;
  const auto& grp = g.row_ptr();
  const index_t n = g.nrows();

  // Phase 1: rank-halved pair enumeration, the same work-halving the
  // vertex kernel uses.  Each endpoint pair {i, k} is materialized once,
  // from its higher-rank side i: pass A builds cnt[k] = |N(i) ∩ N(k)|
  // scanning only the sorted k < i prefix of each N(j) (j ranges over all
  // of N(i), so the counts are the full intersections), then pass B
  // replays the identical — now cache-warm — wedge prefix and credits the
  // (c − 1) butterflies pair {i, k} contributes through wedge i–j–k to
  // both of the wedge's edges: entry (i, j) of row i and entry (j, k) of
  // row j, stored-entry offsets known directly from the row walks.  Each
  // undirected edge thus accumulates across its two mirror slots — phase 2
  // folds them.  Row j is shared across many i, so workers accumulate
  // into private images of rvals, reduced once at the end into worker
  // 0's image (the calling thread always participates as worker 0).
  std::vector<std::vector<count_t>> partials(global_pool().size());
  std::vector<count_t>& rvals = partials[0];
  {
    obs::KernelScope phase1("graph/edge_blocked_phase1");
    struct Scratch {
      WedgeAccumulator acc;
      std::vector<count_t>* rpart;
    };
    parallel_for_range_dynamic_scratch(
        0, n,
        [&](std::size_t id) {
          partials[id].assign(static_cast<std::size_t>(g.nnz()), 0);
          return Scratch{WedgeAccumulator(n), &partials[id]};
        },
        [&](Scratch& ws, index_t lo, index_t hi) {
          auto& rpart = *ws.rpart;
          for (index_t i = lo; i < hi; ++i) {
            const auto cols = g.row_cols(i);
            for (const index_t j : cols) {
              for (const index_t k : g.row_cols(j)) {
                if (k >= i) break; // sorted row: rest pairs with ranks ≥ i
                ws.acc.add(k);
              }
            }
            if (ws.acc.empty()) continue; // no pair has i as upper end
            const auto base = static_cast<std::size_t>(grp[i]);
            for (std::size_t e = 0; e < cols.size(); ++e) {
              const index_t j = cols[e];
              const auto jcols = g.row_cols(j);
              const auto jbase = static_cast<std::size_t>(grp[j]);
              count_t own = 0;
              for (std::size_t f = 0; f < jcols.size(); ++f) {
                const index_t k = jcols[f];
                if (k >= i) break;
                // k was added in pass A through this very wedge, so
                // cnt[k] ≥ 1 and the credit is never negative.
                const count_t c = ws.acc.get(k) - 1;
                own += c;
                rpart[jbase + f] += c;
              }
              rpart[base + e] += own;
            }
            ws.acc.clear();
          }
        });
    parallel_for_range_dynamic(
        0, static_cast<index_t>(g.nnz()), [&](index_t lo, index_t hi) {
          for (std::size_t w = 1; w < partials.size(); ++w) {
            const auto& p = partials[w];
            if (p.empty()) continue;
            for (index_t q = lo; q < hi; ++q) {
              rvals[static_cast<std::size_t>(q)] +=
                  p[static_cast<std::size_t>(q)];
            }
          }
        });
  }

  // Phase 2: fold each edge's two mirror slots with one O(nnz) cursor
  // sweep — for each row i, upper entries (i, j) appear in ascending j,
  // and sweeping rows j in ascending order visits each i's mirrors in the
  // same order, so a per-row cursor pairs them without searching.
  {
    obs::KernelScope phase2("graph/edge_blocked_phase2");
    std::vector<offset_t> cursor(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      const auto cols = g.row_cols(i);
      const auto it = std::upper_bound(cols.begin(), cols.end(), i);
      cursor[static_cast<std::size_t>(i)] =
          grp[static_cast<std::size_t>(i)] +
          static_cast<offset_t>(it - cols.begin());
    }
    for (index_t j = 0; j < n; ++j) {
      const auto cols = g.row_cols(j);
      const auto base = static_cast<std::size_t>(grp[j]);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const index_t i = cols[e];
        if (i >= j) break;
        const auto mirror = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(i)]++);
        // Every 4-cycle through edge {i, j} was credited twice in phase
        // 1 — once per diagonal pair it contains — with the two credits
        // split across the mirror slots, so the folded sum is exactly
        // 2·◇_ij (always even).
        const count_t v = (rvals[base + e] + rvals[mirror]) / 2;
        rvals[base + e] = v;
        rvals[mirror] = v;
      }
    }
  }

  // Phase 3: scatter rank-space values back to the original structure
  // and copy that structure.  The output's col_idx and vals are nnz-sized
  // int64 arrays, as are the spent worker images of phase 1; reusing
  // those, already resident, skips a serial first-touch pass over fresh
  // pages.  entry_map is a bijection, so the scatter writes every value.
  obs::KernelScope phase3("graph/edge_blocked_phase3");
  static_assert(std::is_same_v<index_t, count_t>);
  const auto take_buffer = [&] {
    if (partials.size() > 1 && !partials.back().empty()) {
      std::vector<count_t> spent = std::move(partials.back());
      partials.pop_back();
      return spent;
    }
    return std::vector<count_t>(static_cast<std::size_t>(g.nnz()));
  };
  std::vector<count_t> vals = take_buffer();
  std::vector<index_t> col_idx = take_buffer();
  const auto& acol = a.col_idx();
  parallel_for_range_dynamic(
      0, static_cast<index_t>(g.nnz()), [&](index_t lo, index_t hi) {
        for (index_t p = lo; p < hi; ++p) {
          const auto q = static_cast<std::size_t>(p);
          vals[static_cast<std::size_t>(ord.entry_map[q])] = rvals[q];
          col_idx[q] = acol[q];
        }
      });
  return {a.nrows(), a.ncols(), a.row_ptr(), std::move(col_idx),
          std::move(vals)};
}

} // namespace kronlab::graph
