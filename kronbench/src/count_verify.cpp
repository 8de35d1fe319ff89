// count_verify: count vertex and edge butterflies on a materialized
// product with the blocked kernels, at the full thread width and on one
// thread, check every count against the factored truth, then count the
// global total again with the simulated 4-rank distributed runtime.
//
// Compute-bound in graph, parallel, kron truth and dist; no io, no serve.

#include <algorithm>
#include <memory>
#include <mutex>

#include "bench.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/graph/blocked.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/product.hpp"
#include "kronlab/kron/stream.hpp"
#include "kronlab/parallel/thread_pool.hpp"
#include "profile.hpp"

namespace kronbench {
namespace {

namespace kron = kronlab::kron;
namespace graph = kronlab::graph;
namespace dist = kronlab::dist;

constexpr index_t kRanks = 4;
constexpr int kTruthReps = 20;

struct Counts {
  kronlab::grb::Vector<count_t> vertex;
  kronlab::grb::Csr<count_t> edge;
  double vertex_s = 0, edge_s = 0, total_s = 0;
};

Counts count_blocked(const graph::Adjacency& c, kronlab::ThreadPool& pool,
                     const char* name) {
  const kronlab::ScopedPoolOverride width(pool);
  Counts out;
  Span all(name);
  Span v("graph.vertex_butterflies_blocked");
  out.vertex = graph::vertex_butterflies_blocked(c);
  out.vertex_s = v.stop();
  Span e("graph.edge_butterflies_blocked");
  out.edge = graph::edge_butterflies_blocked(c);
  out.edge_s = e.stop();
  out.total_s = all.stop();
  return out;
}

} // namespace

void run_count_verify(const Options& o, Report& r) {
  kronlab::ThreadPool pool_n(o.threads);
  kronlab::ThreadPool pool_1(1);
  r.config("count_verify.threads", static_cast<double>(pool_n.size()));
  // Everything not pinned to one thread below runs at the full width.
  const kronlab::ScopedPoolOverride width(pool_n);

  std::vector<double> factor_s, materialize_s, setup_s;
  std::unique_ptr<kron::BipartiteKronecker> kp;
  graph::Adjacency c;
  set_tracing(o.trace);
  run_for(0, kSetups, [&](int) {
    Span setup("setup");
    Span f("gen.factors");
    auto [left, right] = count_factors(o);
    factor_s.push_back(f.stop());
    Span m("kron.materialize");
    kp = std::make_unique<kron::BipartiteKronecker>(
        kron::BipartiteKronecker::raw(std::move(left), std::move(right)));
    c = kp->materialize();
    materialize_s.push_back(m.stop());
    setup_s.push_back(setup.stop());
  });
  r.config("count_verify.vertices", static_cast<double>(c.nrows()));
  r.config("count_verify.edges", static_cast<double>(c.nnz() / 2));

  // Expected values, computed once outside any timed region.
  const count_t global_truth = kron::global_squares(*kp) + (o.corrupt ? 1 : 0);
  double wedges = 0;
  for (index_t p = 0; p < c.nrows(); ++p) {
    const auto d = static_cast<double>(c.row_degree(p));
    wedges += d * (d - 1) / 2;
  }

  struct Sample {
    double count_s, count_1t_s, dist_s;
    double vertex_s, edge_s, vertex_1t_s, edge_1t_s;
    std::vector<double> truth_s, vertex_truth_s, edge_truth_s;
    double shard_s, exchange_s, rank_skew;
    dist::ExchangeStats xs;
  };
  std::uint64_t ops = 0;

  const auto iteration = [&](int turn) {
    Sample s{};
    Span op("count_verify.iteration");
    const Counts n = count_blocked(c, pool_n, "graph.count");
    const Counts one = [&] {
      const PinnedCpu pin(turn);
      return count_blocked(c, pool_1, "graph.count_1t");
    }();
    s.count_s = n.total_s;
    s.count_1t_s = one.total_s;
    s.vertex_s = n.vertex_s;
    s.edge_s = n.edge_s;
    s.vertex_1t_s = one.vertex_s;
    s.edge_1t_s = one.edge_s;
    gate(n.vertex == one.vertex && n.edge.vals() == one.edge.vals() &&
             n.edge.col_idx() == one.edge.col_idx(),
         "1-thread and full-width blocked counts differ");

    // The check takes ~10 ms, so it runs kTruthReps times per iteration
    // to give its median as many samples as the longer steps have.
    for (int rep = 0; rep < kTruthReps; ++rep) {
      Span t("kron.truth_check");
      Span vt("kron.vertex_truth");
      auto truth = kron::vertex_squares(*kp).materialize();
      s.vertex_truth_s.push_back(vt.stop());
      if (o.corrupt) truth[0] += 1;
      for (index_t p = 0; p < truth.size(); ++p) {
        gate(truth[p] == n.vertex[p],
             "vertex " + std::to_string(p) + ": blocked count " +
                 std::to_string(n.vertex[p]) + " != factored truth " +
                 std::to_string(truth[p]));
      }
      // The edge truth streams in the product's CSR order, so it is
      // compared with the blocked counts in lockstep as it is computed.
      Span et("kron.edge_truth");
      const kron::GroundTruthStream gts(*kp);
      const auto& cols = n.edge.col_idx();
      const auto& vals = n.edge.vals();
      std::size_t at = 0;
      bool ok = true;
      gts.for_each_entry([&](index_t, index_t q, count_t sq) {
        ok = ok && at < cols.size() && cols[at] == q && vals[at] == sq;
        ++at;
      });
      s.edge_truth_s.push_back(et.stop());
      gate(ok && at == vals.size(),
           "edge butterfly counts differ from the factored truth");
      s.truth_s.push_back(t.stop());
    }

    {
      Span d("dist.count");
      const kron::PartitionedStream ps(*kp, kRanks);
      std::vector<double> shard_s(kRanks), exchange_s(kRanks);
      std::vector<count_t> counted(kRanks, -1);
      std::mutex mu;
      dist::ExchangeStats sum;
      dist::run(kRanks, [&](dist::Comm& comm) {
        // Each rank is a thread of its own; its kronlab calls get a
        // one-wide pool rather than sharing the full-width one.
        kronlab::ThreadPool solo(1);
        const kronlab::ScopedPoolOverride rank_width(solo);
        const auto rank = static_cast<std::size_t>(comm.rank());
        Span g("dist.generate_shard", d);
        const auto shard = dist::generate_shard(*kp, ps, comm.rank());
        shard_s[rank] = g.stop();
        dist::ExchangeStats xs;
        Span x("dist.exchange", d);
        counted[rank] = dist::distributed_global_butterflies(
            comm, shard, dist::RetryConfig{}, &xs, dist::AggregatorOptions{});
        exchange_s[rank] = x.stop();
        const std::lock_guard<std::mutex> lock(mu);
        sum.retries += xs.retries;
        sum.agg.merge(xs.agg);
      });
      s.dist_s = d.stop();
      gate(counted[0] == global_truth,
           "distributed count " + std::to_string(counted[0]) +
               " != global_squares " + std::to_string(global_truth));
      s.shard_s = *std::max_element(shard_s.begin(), shard_s.end());
      s.exchange_s = *std::max_element(exchange_s.begin(), exchange_s.end());
      double total = 0, worst = 0;
      for (std::size_t k = 0; k < shard_s.size(); ++k) {
        total += shard_s[k] + exchange_s[k];
        worst = std::max(worst, shard_s[k] + exchange_s[k]);
      }
      s.rank_skew = worst / (total / static_cast<double>(kRanks));
      s.xs = sum;
    }
    ops += 4;
    return s;
  };

  std::vector<Sample> plain, traced;
  int turn = 0;
  serve_slices([&](double seconds, bool traced_slice) {
    set_tracing(traced_slice);
    run_for(seconds, 1, [&](int) {
      (traced_slice ? traced : plain).push_back(iteration(turn++));
    });
    set_tracing(o.trace);
  });
  // Median over every truth-check sample of every iteration.
  const auto all = [](const std::vector<Sample>& v,
                      std::vector<double> Sample::*field) {
    std::vector<double> x;
    for (const auto& s : v) {
      x.insert(x.end(), (s.*field).begin(), (s.*field).end());
    }
    return median(std::move(x));
  };
  const auto count_s = &Sample::count_s;

  r.config("count_verify.iterations", static_cast<double>(plain.size()));
  r.config("count_verify.ranks", static_cast<double>(kRanks));
  const dist::AggregatorOptions agg{};
  r.config("count_verify.aggregate", agg.enabled ? "true" : "false");
  r.config("count_verify.aggregate_capacity_words",
           static_cast<double>(agg.capacity_words));
  r.config("count_verify.aggregate_deadline_us",
           static_cast<double>(agg.deadline.count()));

  r.metric("setup_s", median(setup_s), "s");
  r.metric("count_s", median_of(plain, count_s), "s");
  r.metric("count_1t_s", median_of(plain, &Sample::count_1t_s), "s");
  r.metric("truth_check_s", all(plain, &Sample::truth_s), "s");
  r.metric("dist_count_s", median_of(plain, &Sample::dist_s), "s");
  if (!o.trace) {
    r.ops(ops, 0);
    return;
  }

  r.metric("_count_verify.untraced_s", median_of(plain, count_s), "s");
  r.metric("_count_verify.traced_s", median_of(traced, count_s), "s");
  r.metric("gen.factors_s", median(factor_s), "s");
  r.metric("kron.materialize_s", median(materialize_s), "s");
  r.metric("kron.vertex_truth_s", all(traced, &Sample::vertex_truth_s), "s");
  r.metric("kron.edge_truth_s", all(traced, &Sample::edge_truth_s), "s");
  const double vertex_s = median_of(traced, &Sample::vertex_s);
  r.metric("graph.vertex_count_s", vertex_s, "s");
  r.metric("graph.edge_count_s", median_of(traced, &Sample::edge_s), "s");
  r.metric("graph.vertex_count_1t_s", median_of(traced, &Sample::vertex_1t_s),
           "s");
  r.metric("graph.edge_count_1t_s", median_of(traced, &Sample::edge_1t_s), "s");
  r.metric("graph.wedges_per_s", wedges / vertex_s, "1/s");
  r.metric("parallel.speedup",
           median_of(traced, [](auto& s) { return s.count_1t_s / s.count_s; }),
           "ratio");
  r.metric("dist.generate_shard_s", median_of(traced, &Sample::shard_s), "s");
  r.metric("dist.exchange_s", median_of(traced, &Sample::exchange_s), "s");
  r.metric("dist.rank_skew", median_of(traced, &Sample::rank_skew), "ratio");
  r.metric("dist.frames_enqueued",
           median_of(traced, [](auto& s) {
             return static_cast<double>(s.xs.agg.frames_enqueued);
           }),
           "count");
  r.metric("dist.batches_sent",
           median_of(traced, [](auto& s) {
             return static_cast<double>(s.xs.agg.batches_sent);
           }),
           "count");
  double retries = 0;
  for (const auto& s : traced) retries += static_cast<double>(s.xs.retries);
  r.metric("dist.retries", retries, "count");

  // The public DegreeOrder constructor the blocked kernels start from,
  // at both widths.
  std::vector<double> order_n, order_1;
  run_for(0, 3, [&](int) {
    {
      Span s("graph.degree_order");
      const graph::DegreeOrder order(c);
      order_n.push_back(s.stop());
    }
    const kronlab::ScopedPoolOverride one(pool_1);
    Span s("graph.degree_order_1t");
    const graph::DegreeOrder order(c);
    order_1.push_back(s.stop());
  });
  r.metric("graph.degree_order_s", median(order_n), "s");
  r.metric("graph.degree_order_1t_s", median(order_1), "s");
  r.ops(ops, 0);
}

} // namespace kronbench
