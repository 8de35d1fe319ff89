// Tests for the simulated distributed runtime and the distributed
// generation + counting pipeline.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <optional>
#include <thread>

#include "kronlab/dist/comm.hpp"
#include "kronlab/dist/sharded.hpp"
#include "kronlab/gen/canonical.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/graph/butterflies.hpp"
#include "kronlab/grb/coo.hpp"
#include "kronlab/kron/ground_truth.hpp"

namespace kronlab::dist {
namespace {

TEST(Comm, PointToPointPreservesOrder) {
  run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {1, 2});
      comm.send(1, 7, {3});
      comm.send(1, 8, {99});
    } else {
      EXPECT_EQ(comm.recv(0, 7), (Message{1, 2}));
      // Cross-tag traffic does not disturb per-tag FIFO order.
      EXPECT_EQ(comm.recv(0, 8), (Message{99}));
      EXPECT_EQ(comm.recv(0, 7), (Message{3}));
    }
  });
}

TEST(Comm, AllreduceSumsAcrossRanks) {
  for (const index_t p : {1, 2, 3, 7}) {
    run(p, [p](Comm& comm) {
      const word_t total = comm.allreduce_sum(comm.rank() + 1);
      EXPECT_EQ(total, p * (p + 1) / 2);
    });
  }
}

TEST(Comm, AllgatherCollectsRankValues) {
  run(4, [](Comm& comm) {
    const auto all = comm.allgather(10 * comm.rank());
    EXPECT_EQ(all, (std::vector<word_t>{0, 10, 20, 30}));
    // Vector form: rank r contributes r copies of r (rank 0 nothing),
    // concatenated in member order.
    const std::vector<word_t> mine(static_cast<std::size_t>(comm.rank()),
                                   comm.rank());
    EXPECT_EQ(comm.allgather(mine, comm.live_ranks()),
              (std::vector<word_t>{1, 2, 2, 3, 3, 3}));
  });
  // A member gather over the survivors once rank 2 has died.
  FaultPlan plan;
  plan.kill_rank = 2;
  plan.kill_point = "before-gather";
  run(4, plan, [](Comm& comm) {
    comm.fault_point("before-gather");
    while (comm.rank_alive(2)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto members = comm.live_ranks();
    EXPECT_EQ(members, (std::vector<index_t>{0, 1, 3}));
    EXPECT_EQ(comm.allgather({comm.rank(), -comm.rank()}, members),
              (std::vector<word_t>{0, 0, 1, -1, 3, -3}));
    EXPECT_EQ(comm.allgather(comm.rank(), members),
              (std::vector<word_t>{0, 1, 3}));
  });
}

TEST(Comm, AlltoallRoutesPerRankMessages) {
  run(3, [](Comm& comm) {
    std::vector<Message> out(3);
    for (index_t r = 0; r < 3; ++r) {
      out[static_cast<std::size_t>(r)] = {100 * comm.rank() + r};
    }
    const auto in = comm.alltoall(std::move(out));
    for (index_t r = 0; r < 3; ++r) {
      EXPECT_EQ(in[static_cast<std::size_t>(r)],
                (Message{100 * r + comm.rank()}));
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> phase1{0};
  run(4, [&](Comm& comm) {
    ++phase1;
    comm.barrier();
    // After the barrier every rank must observe all increments.
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Comm, RankExceptionsPropagate) {
  EXPECT_THROW(run(2,
                   [](Comm& comm) {
                     if (comm.rank() == 1) {
                       throw domain_error("rank 1 failed");
                     }
                   }),
               domain_error);
}

TEST(Comm, ValidatesArguments) {
  EXPECT_THROW(run(0, [](Comm&) {}), invalid_argument);
  run(2, [](Comm& comm) {
    EXPECT_THROW(comm.send(5, 0, {}), invalid_argument);
    EXPECT_THROW(comm.recv(-1, 0), invalid_argument);
  });
}

// ---------------------------------------------------------------------------
// Distributed generation + counting.

kron::BipartiteKronecker sample_product(std::uint64_t seed) {
  Rng rng(seed);
  return kron::BipartiteKronecker::raw(
      gen::random_nonbipartite_connected(8, 18, rng),
      gen::random_bipartite(5, 5, 12, rng));
}

TEST(ShardedGeneration, ShardsReassembleTheProduct) {
  const auto kp = sample_product(1);
  const auto c = kp.materialize();
  for (const index_t parts : {1, 2, 3, 5}) {
    const kron::PartitionedStream ps(kp, parts);
    offset_t total_entries = 0;
    for (index_t r = 0; r < parts; ++r) {
      const auto shard = generate_shard(kp, ps, r);
      EXPECT_EQ(shard.n, c.nrows());
      for (index_t lv = 0; lv < shard.rows.nrows(); ++lv) {
        const index_t v = shard.row_begin + lv;
        const auto local_cols = shard.rows.row_cols(lv);
        const auto global_cols = c.row_cols(v);
        ASSERT_EQ(local_cols.size(), global_cols.size()) << "row " << v;
        for (std::size_t k = 0; k < local_cols.size(); ++k) {
          EXPECT_EQ(local_cols[k], global_cols[k]);
        }
      }
      total_entries += shard.rows.nnz();
    }
    EXPECT_EQ(total_entries, c.nnz());
  }
}

class DistCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DistCountTest, DistributedCountMatchesGroundTruth) {
  const auto kp = sample_product(10 + static_cast<std::uint64_t>(GetParam()));
  const count_t expect = kron::global_squares(kp);
  for (const index_t parts : {1, 2, 4}) {
    const kron::PartitionedStream ps(kp, parts);
    run(parts, [&](Comm& comm) {
      const auto shard = generate_shard(kp, ps, comm.rank());
      const count_t counted = distributed_global_butterflies(comm, shard);
      EXPECT_EQ(counted, expect) << "parts=" << parts;
      const count_t truth =
          distributed_ground_truth_squares(comm, kp, ps);
      EXPECT_EQ(truth, expect);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistCountTest, ::testing::Range(0, 6));

TEST(DistCount, AgreesWithSerialWedgeCountOnMaterialized) {
  const auto kp = sample_product(99);
  const auto expect = graph::global_butterflies(kp.materialize());
  const kron::PartitionedStream ps(kp, 3);
  run(3, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    EXPECT_EQ(distributed_global_butterflies(comm, shard), expect);
  });
}

/// The rows [begin, end) of `a` as a shard (global column ids).
Shard shard_of(const graph::Adjacency& a, index_t begin, index_t end) {
  Shard shard;
  shard.n = a.nrows();
  shard.row_begin = begin;
  shard.row_end = end;
  grb::Coo<count_t> coo(end - begin, shard.n);
  for (index_t r = begin; r < end; ++r) {
    for (const index_t c : a.row_cols(r)) coo.push(r - begin, c, 1);
  }
  shard.rows = grb::Csr<count_t>::from_coo(coo);
  return shard;
}

// Generic graphs, not Kronecker products: the degree-priority kernel must
// count every 4-cycle exactly once whatever the degree profile, including
// all-tied degrees (the id tie-break decides), isolated vertices and
// uneven or empty shards.
TEST(DistCount, MatchesSerialCountOnGenericGraphs) {
  Rng rng(2024);
  const graph::Adjacency no_edges = grb::Csr<count_t>::from_coo(
      grb::Coo<count_t>(5, 5));
  const std::vector<std::pair<const char*, graph::Adjacency>> graphs = {
      {"dense non-bipartite",
       gen::random_nonbipartite_connected(40, 400, rng)},
      {"hub-heavy", gen::preferential_bipartite(40, 60, 400, rng)},
      {"regular hypercube", gen::hypercube(6)},
      {"complete", gen::complete_graph(9)},
      {"isolated vertices",
       gen::disjoint_union(
           gen::disjoint_union(gen::complete_bipartite(3, 4), no_edges),
           gen::hypercube(3))},
  };
  for (const auto& [name, a] : graphs) {
    const count_t expect = graph::global_butterflies(a);
    const index_t n = a.nrows();
    for (const index_t parts : {1, 2, 3, 5}) {
      // Quadratic cut points: the first shards are small (or empty), the
      // last one large.
      run(parts, [&](Comm& comm) {
        const index_t r = comm.rank();
        const auto shard = shard_of(a, n * r * r / (parts * parts),
                                    n * (r + 1) * (r + 1) / (parts * parts));
        EXPECT_EQ(distributed_global_butterflies(comm, shard), expect)
            << name << " parts=" << parts;
      });
    }
  }
}

// Regression: once a rank is quiescent it waits only for its peers' DONE
// frames, which arrive on the control tag.  A wait on the data tag alone
// slept out a whole RetryConfig::timeout before it saw them.
TEST(DistCount, QuiescentRanksDoNotSleepOutTheRetryTimeout) {
  const auto kp = sample_product(5);
  const count_t expect = kron::global_squares(kp);
  const kron::PartitionedStream ps(kp, 4);
  const auto t0 = std::chrono::steady_clock::now();
  run(4, [&](Comm& comm) {
    const auto shard = generate_shard(kp, ps, comm.rank());
    EXPECT_EQ(distributed_global_butterflies(
                  comm, shard, RetryConfig{.timeout = std::chrono::seconds(5)}),
              expect);
  });
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
}

// Regression: the request budget (RetryConfig::max_retries) counts
// consecutive request waves that brought no new row.  Rank 1 here is a
// hand-played peer that answers one new row per wave of rank 0's requests:
// always answering, yet needing more waves than the budget.  When every
// deadline expiry counted, rank 0 gave up on it with timeout_error; under
// heavy message loss that is how a lone unlucky row failed a live peer.
TEST(DistCount, RetryBudgetCountsOnlyWavesWithoutProgress) {
  // K_{8,9}: the left vertices (degree 9) outrank the right ones
  // (degree 8), so rank 0, owning the left side, needs all 9 right rows
  // and rank 1 needs none of rank 0's.
  const auto a = gen::complete_bipartite(8, 9);
  // Wire constants of the exchange (sharded.cpp).
  constexpr int kDataTag = 10, kCtlTag = -6;
  constexpr word_t kReq = 0, kRows = 1, kAck = 2, kDone = 3;
  RetryConfig retry;
  retry.timeout = std::chrono::milliseconds(20);
  retry.max_retries = 3;
  retry.max_backoff = std::chrono::milliseconds(80);
  AggregatorOptions per_row;
  per_row.enabled = false; // raw frames, one per message
  run(2, [&](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(distributed_global_butterflies(comm, shard_of(a, 0, 8), retry,
                                               nullptr, per_row),
                graph::global_butterflies(a));
      return;
    }
    const Shard shard = shard_of(a, 8, 17);
    const std::vector<index_t> members{0, 1};
    (void)comm.allgather(shard.row_begin, members);
    (void)comm.allgather(shard.row_end, members);
    (void)comm.allgather(std::vector<word_t>(9, 8), members); // degrees
    const word_t epoch = comm.next_epoch();
    comm.send(0, kDataTag, {epoch, kReq}); // handshake: needs no rows
    bool handshake_acked = false;
    index_t next_row = 8;
    while (next_row < 17 || !handshake_acked) {
      // A wave is a burst of frames; waves are >= 20 ms apart.  The
      // blocking recv throws rank_failed should rank 0 give up and die.
      bool requested = false;
      for (std::optional<Message> msg = comm.recv(0, kDataTag); msg;
           msg = comm.recv_deadline(0, kDataTag,
                                    std::chrono::milliseconds(5))) {
        if ((*msg)[1] == kRows) { // reply to our handshake
          comm.send(0, kDataTag, {epoch, kAck});
          handshake_acked = true;
        }
        requested |= (*msg)[1] == kReq;
      }
      if (requested && next_row < 17) { // one new row per wave
        Message frame{epoch, kRows, next_row, 8};
        for (const index_t c : a.row_cols(next_row)) frame.push_back(c);
        comm.send(0, kDataTag, std::move(frame));
        ++next_row;
      }
    }
    comm.send(0, kCtlTag, {epoch, kDone});
    EXPECT_EQ(comm.recv(0, kCtlTag), (Message{epoch, kDone}));
    // No right vertex outranks a neighbour: rank 1 counts no 4-cycle.
    (void)comm.allreduce_sum(0, members);
  });
}

} // namespace
} // namespace kronlab::dist
