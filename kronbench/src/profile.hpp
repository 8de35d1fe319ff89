// The input profiles of the count_verify / serve_probe product.
//
// A profile fixes the degree sequences the layers depend on; the seed
// only chooses the wiring.  Every factor is a random simple graph with
// an exact degree sequence, so every seed gives the product the same
// vertex count, edge count and wedge count, and the run-to-run spread
// measures kronlab and the machine rather than how big the hubs of one
// draw happened to be (with preferential attachment, the product's
// sum of squared degrees varies by 6% between quartiles of 10 seeds).
//
//   left factor   30 vertices, 8-regular (120 edges), both profiles;
//   right factor  300 + 450 bipartite, 3000 edges:
//                   skewed   power-law degrees, d_i ~ (i+1)^-1/2, the
//                            largest 89 (left side) and 72 (right side);
//                   uniform  every degree 10 (left) or 6-7 (right);
//   product       22,500 vertices, 720,000 edges.
//
// Under skewed, serve_probe also draws half of its vertex ids from a
// 1024-vertex hot set; under uniform it draws all of them uniformly.

#pragma once

#include <utility>
#include <vector>

#include "bench.hpp"
#include "kronlab/graph/graph.hpp"

namespace kronbench {

/// True for the skewed profile, false for uniform; throws otherwise.
[[nodiscard]] bool skewed(const Options& o);

/// The count_verify / serve_probe factors (--tiny: 8 x (20 + 30)).
[[nodiscard]] std::pair<kronlab::graph::Adjacency, kronlab::graph::Adjacency>
count_factors(const Options& o);

} // namespace kronbench
