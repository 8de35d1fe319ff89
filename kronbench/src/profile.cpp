#include "profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "kronlab/common/random.hpp"

namespace kronbench {
namespace {

using Edge = std::pair<index_t, index_t>;

Edge norm(index_t a, index_t b) { return {std::min(a, b), std::max(a, b)}; }

/// n degrees proportional to (i+1)^-beta, summing exactly to `total`.
std::vector<index_t> power_law(index_t n, count_t total, double beta) {
  std::vector<double> w(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = std::pow(static_cast<double>(i + 1), -beta);
  }
  const double scale = static_cast<double>(total) /
                       std::accumulate(w.begin(), w.end(), 0.0);
  std::vector<index_t> d(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    d[i] = std::max<index_t>(1, std::llround(w[i] * scale));
  }
  // Rounding leaves the sum a few off; settle it on the largest degrees.
  count_t sum = std::accumulate(d.begin(), d.end(), count_t{0});
  for (std::size_t i = 0; sum != total; i = (i + 1) % d.size()) {
    const index_t step = sum < total ? 1 : -1;
    if (d[i] + step < 1) continue;
    d[i] += step;
    sum += step;
  }
  return d;
}

/// n degrees as equal as integers allow, summing exactly to `total`.
std::vector<index_t> flat(index_t n, count_t total) {
  std::vector<index_t> d(static_cast<std::size_t>(n), total / n);
  for (count_t i = 0; i < total % n; ++i) ++d[static_cast<std::size_t>(i)];
  return d;
}

/// A random simple graph with exactly the given degrees: the
/// configuration model, with self loops and repeated edges removed by
/// degree-preserving swaps.  With `right` empty the graph is general on
/// left.size() vertices; otherwise it is bipartite, left vertices first.
kronlab::graph::Adjacency fixed_degrees(const std::vector<index_t>& left,
                                        const std::vector<index_t>& right,
                                        kronlab::Rng& rng) {
  const auto nl = static_cast<index_t>(left.size());
  const bool bip = !right.empty();
  std::vector<index_t> a, b;
  for (index_t v = 0; v < nl; ++v) {
    a.insert(a.end(), static_cast<std::size_t>(left[v]), v);
  }
  for (index_t v = 0; v < static_cast<index_t>(right.size()); ++v) {
    b.insert(b.end(), static_cast<std::size_t>(right[v]), nl + v);
  }
  const auto shuffle = [&](std::vector<index_t>& s) {
    for (std::size_t i = s.size(); i > 1; --i) {
      std::swap(s[i - 1], s[rng.next_below(i)]);
    }
  };
  std::vector<Edge> edges;
  if (bip) {
    if (a.size() != b.size()) throw std::logic_error("degree sums differ");
    shuffle(b);
    for (std::size_t i = 0; i < a.size(); ++i) edges.emplace_back(a[i], b[i]);
  } else {
    if (a.size() % 2 != 0) throw std::logic_error("odd degree sum");
    shuffle(a);
    for (std::size_t i = 0; i < a.size(); i += 2) {
      edges.emplace_back(a[i], a[i + 1]);
    }
  }
  std::map<Edge, int> seen;
  for (const auto& [u, v] : edges) ++seen[norm(u, v)];
  const auto bad = [&](const Edge& e) {
    return e.first == e.second || seen[norm(e.first, e.second)] > 1;
  };
  for (std::size_t i = 0, tries = 0; i < edges.size(); ++i) {
    while (bad(edges[i])) {
      if (++tries > 100 * edges.size()) {
        throw std::runtime_error("cannot realize the degree sequence");
      }
      // Swap endpoints with a random edge: (u,v),(x,y) -> (u,y),(x,v).
      const std::size_t j = rng.next_below(edges.size());
      auto [u, v] = edges[i];
      auto [x, y] = edges[j];
      const Edge e1 = norm(u, y), e2 = norm(x, v);
      if (j == i || e1.first == e1.second || e2.first == e2.second ||
          e1 == e2 || seen[e1] > 0 || seen[e2] > 0) {
        continue;
      }
      --seen[norm(u, v)];
      --seen[norm(x, y)];
      ++seen[e1];
      ++seen[e2];
      edges[i] = {u, y};
      edges[j] = {x, v};
    }
  }
  return kronlab::graph::from_undirected_edges(
      nl + static_cast<index_t>(right.size()), edges);
}

} // namespace

bool skewed(const Options& o) {
  if (o.profile == "skewed") return true;
  if (o.profile == "uniform") return false;
  throw std::invalid_argument("unknown profile " + o.profile);
}

std::pair<kronlab::graph::Adjacency, kronlab::graph::Adjacency>
count_factors(const Options& o) {
  const index_t n = o.tiny ? 8 : 30, d = o.tiny ? 3 : 8;
  const index_t nu = o.tiny ? 20 : 300, nw = o.tiny ? 30 : 450;
  const count_t m = o.tiny ? 100 : 3000;
  kronlab::Rng rl(input_seed(o, 21)), rr(input_seed(o, 22));
  auto left = fixed_degrees(flat(n, n * d), {}, rl);
  auto right = skewed(o) ? fixed_degrees(power_law(nu, m, 0.5),
                                         power_law(nw, m, 0.5), rr)
                         : fixed_degrees(flat(nu, m), flat(nw, m), rr);
  return {std::move(left), std::move(right)};
}

} // namespace kronbench
