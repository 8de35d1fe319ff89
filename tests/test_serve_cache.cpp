// The server's vertex-record cache, seen from outside: each execution
// slot owns a direct-mapped table of records, and these tests pin what
// that may and may not change.  Hits plus misses count exactly the vertex
// probes run in frames below the fan-out threshold; capacity 0 makes
// every lookup a miss; the served records are byte-identical to the
// oracle whether the cache is on, off, colliding or hot; and a fan-out
// batch, which bypasses the cache, answers exactly as the same probes run
// serially.  CI runs this suite under TSan.

#include <gtest/gtest.h>

#include <memory>

#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/serve/client.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"

namespace kronlab::serve {
namespace {

kron::BipartiteKronecker make_product() {
  Rng rng(9103);
  return kron::BipartiteKronecker::assumption_ii(
      gen::connected_random_bipartite(6, 6, 20, rng),
      gen::connected_random_bipartite(5, 7, 18, rng));
}

/// A server and one connected client on it.
struct Served {
  explicit Served(const kron::BipartiteKronecker& kp, ServerOptions opt)
      : server(kp, opt) {
    auto [client_end, server_end] = local_pair();
    server.adopt(std::move(server_end));
    client = std::make_unique<Client>(std::move(client_end));
  }
  Server server;
  std::unique_ptr<Client> client;
};

std::uint64_t lookups(const ServerStats& s) {
  return s.cache_hits + s.cache_misses;
}

TEST(ServeCache, HitsPlusMissesCountVertexProbesOfUnfannedFrames) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.parallel_batch_threshold = 64;
  Served s(kp, opt);
  const index_t n = kp.num_vertices();

  std::uint64_t vertex_probes = 0;
  for (int frame = 0; frame < 20; ++frame) {
    std::vector<Probe> probes;
    for (int i = 0; i < 10; ++i) {
      probes.push_back(Probe::vertex((frame * 7 + i * 3) % n));
      ++vertex_probes;
    }
    // Probes that are not vertex lookups leave the counters alone.
    probes.push_back(Probe::edge(0, 1));
    probes.push_back(Probe::sample_vertex(static_cast<std::uint64_t>(frame)));
    probes.push_back(Probe::stats());
    probes.push_back(Probe::vertex(n)); // out of range: refused first
    const Response resp = s.client->call(std::move(probes));
    ASSERT_EQ(resp.status, Status::ok);
    EXPECT_EQ(resp.results.back().status, Status::bad_probe);
  }
  EXPECT_EQ(lookups(s.server.stats()), vertex_probes);

  // A fan-out batch calls the oracle directly and counts nothing.
  std::vector<Probe> big;
  for (std::size_t i = 0; i < opt.parallel_batch_threshold; ++i) {
    big.push_back(Probe::vertex(static_cast<index_t>(i) % n));
  }
  ASSERT_EQ(s.client->call(std::move(big)).status, Status::ok);
  const ServerStats after = s.server.stats();
  EXPECT_EQ(lookups(after), vertex_probes);
  EXPECT_EQ(after.probes_by_op[static_cast<std::size_t>(Op::vertex)],
            vertex_probes + 20 + opt.parallel_batch_threshold);
  s.server.stop();
}

TEST(ServeCache, CapacityZeroCountsEveryLookupAsMiss) {
  const auto kp = make_product();
  ServerOptions opt;
  opt.cache_capacity = 0;
  Served s(kp, opt);
  for (int round = 0; round < 3; ++round) {
    for (index_t p = 0; p < 8; ++p) (void)s.client->vertex(p);
  }
  const ServerStats stats = s.server.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 24u);
  s.server.stop();
}

TEST(ServeCache, ServedRecordsMatchOracleWithCacheOnOffAndHot) {
  const auto kp = make_product();
  const kron::GroundTruthOracle direct(kp);
  const index_t n = kp.num_vertices();
  // Off, smaller than the vertex set (entries collide and are replaced),
  // and larger than it; with two slots, so each holds half.
  for (const std::size_t capacity : {std::size_t{0}, std::size_t{16},
                                     std::size_t{4096}}) {
    ServerOptions opt;
    opt.cache_capacity = capacity;
    Served s(kp, opt);
    for (int pass = 0; pass < 2; ++pass) {
      for (index_t p = 0; p < n; ++p) {
        EXPECT_EQ(encode_record(s.client->vertex(p)),
                  encode_record(direct.vertex(p)))
            << "capacity " << capacity << " vertex " << p;
      }
    }
    // A hot set probed over and over, interleaved with cold vertices
    // that evict hot entries sharing their table index.
    const std::vector<index_t> hot = {0, 5, n / 2, n - 1};
    for (int round = 0; round < 50; ++round) {
      for (const index_t p : hot) {
        ASSERT_EQ(encode_record(s.client->vertex(p)),
                  encode_record(direct.vertex(p)))
            << "capacity " << capacity << " hot vertex " << p;
      }
      const index_t cold = (round * 13) % n;
      ASSERT_EQ(encode_record(s.client->vertex(cold)),
                encode_record(direct.vertex(cold)));
    }
    const ServerStats stats = s.server.stats();
    if (capacity == 0) {
      EXPECT_EQ(stats.cache_hits, 0u);
    } else {
      EXPECT_GT(stats.cache_hits, 0u) << "capacity " << capacity;
    }
    s.server.stop();
  }
}

TEST(ServeCache, FanOutBatchMatchesSerialAnswer) {
  const auto kp = make_product();
  const index_t n = kp.num_vertices();
  ServerOptions opt;
  opt.parallel_batch_threshold = 64;
  Served s(kp, opt);

  // Every opcode, refusals included, repeated past the threshold.
  std::vector<Probe> probes;
  for (int i = 0; probes.size() < 300; ++i) {
    const index_t p = (i * 11) % n;
    probes.push_back(Probe::vertex(p));
    probes.push_back(Probe::edge(p, (p * 5 + 3) % n));
    probes.push_back(Probe::sample_vertex(static_cast<std::uint64_t>(i)));
    probes.push_back(Probe::sample_edge(static_cast<std::uint64_t>(i)));
    probes.push_back(Probe::degree_hist(i % 4, 4 + i % 9));
    probes.push_back(Probe::stats());
    probes.push_back({Op::vertex, {n + i}});
    probes.push_back({static_cast<Op>(90 + i % 5), {}});
  }
  const Response fanned = s.client->call(probes);
  ASSERT_EQ(fanned.status, Status::ok);
  ASSERT_EQ(fanned.results.size(), probes.size());

  // The same probes, eight per frame, all on the serial path.
  for (std::size_t at = 0; at < probes.size(); at += 8) {
    const auto first = probes.begin() + static_cast<std::ptrdiff_t>(at);
    const std::vector<Probe> part(first, first + 8);
    const Response serial = s.client->call(part);
    ASSERT_EQ(serial.status, Status::ok);
    for (std::size_t k = 0; k < part.size(); ++k) {
      const ProbeResult& want = serial.results[k];
      const ProbeResult& got = fanned.results[at + k];
      EXPECT_EQ(got.op, want.op) << "probe " << at + k;
      EXPECT_EQ(got.status, want.status) << "probe " << at + k;
      EXPECT_EQ(got.words, want.words) << "probe " << at + k;
    }
  }
  s.server.stop();
}

} // namespace
} // namespace kronlab::serve
