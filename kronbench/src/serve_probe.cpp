// serve_probe: an in-process serve::Server with the daemon's default
// ServerOptions over the count_verify product, reached through
// local_pair() connections.
//
//   closed loop  `threads` connections, each sending one 32-probe frame
//                (16 vertex, 8 edge, 8 sample_edge probes) and waiting
//                for its answer before the next;
//   open loop    one sender writing frames on a precomputed schedule at
//                a fixed rate, one receiver reading them; latency counts
//                from each frame's due time, so a stall charges every
//                frame queued behind it.
//
// Under the skewed profile half of all vertex ids come from a 1024-vertex
// hot set, smaller than the 4096-entry LRU; under uniform none do
// (profile.hpp).
// Exercises serve protocol, transport, LRU and executors, the kron
// oracle, and obs stats recording; no io, no graph.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/serve/protocol.hpp"
#include "kronlab/serve/server.hpp"
#include "kronlab/serve/transport.hpp"
#include "profile.hpp"

namespace kronbench {
namespace {

namespace kron = kronlab::kron;
namespace serve = kronlab::serve;
using kronlab::Rng;

constexpr int kProbesPerFrame = 32;
constexpr std::size_t kHotSet = 1024;
constexpr std::uint64_t kVerifyEvery = 64;
/// Open-loop frame rate, fixed: about an eighth of the closed loop's
/// 45k frames/s at the commit that defined the benchmark (4-core x86
/// VM, skewed profile).  At 10k frames/s a 7 ms stall of the VM filled
/// the default 64-frame admission queue and frames were refused.
constexpr double kOpenFramesPerSecond = 5000;
constexpr double kOpenFramesPerSecondTiny = 500;
constexpr auto kReplyDeadline = std::chrono::seconds(10);

/// Seeded probe-frame generator.
class FrameGen {
public:
  FrameGen(const kron::BipartiteKronecker& kp,
           const std::vector<index_t>& hot, std::uint64_t seed)
      : kp_(kp), hot_(hot), rng_(seed) {}

  std::vector<serve::Probe> frame() {
    std::vector<serve::Probe> probes;
    probes.reserve(kProbesPerFrame);
    for (int i = 0; i < kProbesPerFrame; ++i) {
      switch (i % 4) {
      case 2: {
        const index_t p = vertex();
        probes.push_back(serve::Probe::edge(p, neighbor(p)));
        break;
      }
      case 3:
        probes.push_back(serve::Probe::sample_edge(rng_.next()));
        break;
      default:
        probes.push_back(serve::Probe::vertex(vertex()));
      }
    }
    return probes;
  }

private:
  index_t vertex() {
    if (!hot_.empty() && rng_.next_below(2) == 0) {
      return hot_[rng_.next_below(hot_.size())];
    }
    return static_cast<index_t>(rng_.next_below(
        static_cast<std::uint64_t>(kp_.num_vertices())));
  }

  /// A product neighbour of p, or p's successor when p is isolated (an
  /// edge probe the server answers with not_an_edge).
  index_t neighbor(index_t p) {
    const auto& m = kp_.left();
    const auto& b = kp_.right();
    const index_t i = p / b.nrows(), k = p % b.nrows();
    const auto mc = m.row_cols(i);
    const auto bc = b.row_cols(k);
    if (mc.empty() || bc.empty()) return (p + 1) % kp_.num_vertices();
    const index_t j = mc[rng_.next_below(mc.size())];
    const index_t l = bc[rng_.next_below(bc.size())];
    return j * b.ncols() + l;
  }

  const kron::BipartiteKronecker& kp_;
  const std::vector<index_t>& hot_;
  Rng rng_;
};

/// A frame kept for checking against the in-process oracle.
struct Kept {
  serve::Request req;
  std::vector<serve::word_t> resp_words;
  double latency_ms = 0;
  bool closed_loop = false; ///< latency is a round trip, not from due
};

/// The in-process oracle's answer to one probe, as the server encodes it.
serve::ProbeResult answer(const kron::GroundTruthOracle& oracle,
                          const serve::Probe& probe) {
  serve::ProbeResult r;
  r.op = probe.op;
  switch (probe.op) {
  case serve::Op::vertex:
    r.words = serve::encode_record(oracle.vertex(probe.args[0]));
    break;
  case serve::Op::edge:
    if (const auto rec = oracle.try_edge(probe.args[0], probe.args[1])) {
      r.words = serve::encode_record(*rec);
    } else {
      r.status = serve::Status::not_an_edge;
    }
    break;
  case serve::Op::sample_edge: {
    Rng rng(static_cast<std::uint64_t>(probe.args[0]));
    r.words = serve::encode_record(oracle.sample_edge(rng));
    break;
  }
  default:
    r.status = serve::Status::bad_probe;
  }
  return r;
}

struct Round {
  double probes_per_s = 0, p50_ms = 0, p99_ms = 0, late_p99_ms = 0;
};

} // namespace

void run_serve_probe(const Options& o, Report& r) {
  const serve::ServerOptions sopt{};
  r.config("serve_probe.executors", static_cast<double>(sopt.executors));
  r.config("serve_probe.queue_depth", static_cast<double>(sopt.queue_depth));
  r.config("serve_probe.cache_capacity",
           static_cast<double>(sopt.cache_capacity));
  r.config("serve_probe.parallel_batch_threshold",
           static_cast<double>(sopt.parallel_batch_threshold));
  r.config("serve_probe.stats_enabled",
           kronlab::obs::stats_enabled() ? "true" : "false");
  r.config("serve_probe.connections", static_cast<double>(o.threads));

  std::vector<double> factor_s, server_s, setup_s;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<kron::BipartiteKronecker> kp;
  set_tracing(o.trace);
  run_for(0, kSetups, [&](int) {
    server.reset(); // before the product it points into
    Span setup("setup");
    Span f("gen.factors");
    auto [left, right] = count_factors(o);
    kp = std::make_unique<kron::BipartiteKronecker>(
        kron::BipartiteKronecker::raw(std::move(left), std::move(right)));
    factor_s.push_back(f.stop());
    Span s("serve.server_construct");
    server = std::make_unique<serve::Server>(*kp, sopt);
    server_s.push_back(s.stop());
    setup_s.push_back(setup.stop());
  });
  const kron::GroundTruthOracle oracle(*kp);

  std::vector<index_t> hot;
  if (skewed(o)) {
    const std::size_t want = std::min<std::size_t>(
        kHotSet, static_cast<std::size_t>(kp->num_vertices() / 8));
    Rng rng(input_seed(o, 31));
    std::unordered_set<index_t> seen;
    while (hot.size() < want) {
      const auto p = static_cast<index_t>(rng.next_below(
          static_cast<std::uint64_t>(kp->num_vertices())));
      if (seen.insert(p).second) hot.push_back(p);
    }
  }
  r.config("serve_probe.hot_set", static_cast<double>(hot.size()));

  std::vector<std::unique_ptr<serve::Transport>> conns;
  for (std::size_t c = 0; c <= o.threads; ++c) {
    auto [client_end, server_end] = serve::local_pair();
    server->adopt(std::move(server_end));
    conns.push_back(std::move(client_end));
  }
  serve::Transport& open_conn = *conns.back();

  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> frames{0}, failed{0};
  std::mutex kept_mu;
  std::vector<Kept> kept; // guarded by kept_mu
  const auto keep = [&](Kept k) {
    const std::lock_guard<std::mutex> lock(kept_mu);
    kept.push_back(std::move(k));
  };
  const auto answered_ok = [&](const std::optional<std::vector<serve::word_t>>&
                                   words,
                               std::uint64_t* id) {
    if (!words) return false;
    const auto resp = serve::decode_response(*words);
    *id = resp.id;
    return resp.status == serve::Status::ok;
  };

  std::uint64_t gen_salt = 100;
  // One closed-loop round: every connection sends frames back to back
  // until the round's deadline.
  const auto closed_round = [&](double seconds) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::vector<double>> lat(o.threads);
    std::vector<std::thread> threads;
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < o.threads; ++c) {
      threads.emplace_back([&, c, salt = gen_salt++] {
        FrameGen gen(*kp, hot, input_seed(o, salt));
        serve::Transport& conn = *conns[c];
        std::uint64_t n = 0;
        while (now_ns() < deadline) {
          serve::Request req{next_id.fetch_add(1), gen.frame()};
          Span fs("serve.frame");
          serve::write_frame(conn, serve::encode_request(req));
          const auto words = serve::read_frame(
              conn, std::chrono::duration_cast<std::chrono::milliseconds>(
                        kReplyDeadline));
          const double ms = fs.stop() * 1e3;
          std::uint64_t id = 0;
          const bool ok = answered_ok(words, &id) && id == req.id;
          frames.fetch_add(1);
          if (!ok) {
            failed.fetch_add(1);
            if (!words) return; // connection lost: stop this client
            continue;
          }
          lat[c].push_back(ms);
          if (n++ % kVerifyEvery == 0) keep({std::move(req), *words, ms, true});
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    Round out;
    out.probes_per_s =
        static_cast<double>(all.size()) * kProbesPerFrame / wall;
    out.p50_ms = quantile(all, 0.5);
    out.p99_ms = quantile(all, 0.99);
    return out;
  };

  const double rate = o.tiny ? kOpenFramesPerSecondTiny : kOpenFramesPerSecond;
  // One open-loop round: a sender on a precomputed schedule and a
  // receiver matching answers to due times by frame id.
  const auto open_round = [&](double seconds) {
    const auto n = static_cast<std::size_t>(rate * seconds);
    FrameGen gen(*kp, hot, input_seed(o, gen_salt++));
    std::vector<serve::Request> reqs(n);
    std::vector<std::vector<serve::word_t>> payloads(n);
    const std::uint64_t first_id = next_id.fetch_add(n);
    for (std::size_t i = 0; i < n; ++i) {
      reqs[i] = {first_id + i, gen.frame()};
      payloads[i] = serve::encode_request(reqs[i]);
    }
    std::vector<std::int64_t> due(n), sent(n), got(n, -1);
    const std::int64_t t0 = now_ns() + 2'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                              rate);
    }
    std::thread receiver([&] {
      for (std::size_t k = 0; k < n; ++k) {
        const auto words = serve::read_frame(
            open_conn, std::chrono::duration_cast<std::chrono::milliseconds>(
                           kReplyDeadline));
        const std::int64_t at = now_ns();
        std::uint64_t id = 0;
        const bool ok = answered_ok(words, &id);
        frames.fetch_add(1);
        if (!words) {
          failed.fetch_add(n - k);
          return;
        }
        const std::uint64_t i = id - first_id;
        if (!ok || i >= n || got[i] >= 0) {
          failed.fetch_add(1);
          continue;
        }
        got[i] = at;
        if (i % kVerifyEvery == 0) {
          const double ms = static_cast<double>(at - due[i]) * 1e-6;
          keep({reqs[i], *words, ms, false});
        }
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      // Spin rather than sleep: on a VM a sleeping thread can wake
      // milliseconds late, and the schedule would measure that instead.
      while (now_ns() < due[i]) {
      }
      sent[i] = now_ns();
      Span fs("serve.open_frame");
      serve::write_frame(open_conn, payloads[i]);
    }
    receiver.join();
    std::vector<double> lat, late;
    for (std::size_t i = 0; i < n; ++i) {
      if (got[i] < 0) continue;
      lat.push_back(static_cast<double>(got[i] - due[i]) * 1e-6);
      late.push_back(static_cast<double>(sent[i] - due[i]) * 1e-6);
    }
    Round out;
    out.p99_ms = quantile(lat, 0.99);
    out.late_p99_ms = quantile(late, 0.99);
    return out;
  };

  // Each slice is one closed-loop round.  The open loop's p99 does not
  // repeat on a shared VM (see README), so it is a per-layer figure: in
  // a traced run each untraced slice gives 35% of its time to an
  // open-loop round.
  std::vector<Round> closed, traced_closed, open;
  double hits = 0, misses = 0;
  serve_slices([&](double seconds, bool traced_slice) {
    set_tracing(traced_slice);
    const double closed_share = o.trace && !traced_slice ? 0.65 : 1.0;
    const auto before = server->stats();
    (traced_slice ? traced_closed : closed)
        .push_back(closed_round(seconds * closed_share));
    const auto after = server->stats();
    hits += static_cast<double>(after.cache_hits - before.cache_hits);
    misses += static_cast<double>(after.cache_misses - before.cache_misses);
    if (closed_share < 1) {
      open.push_back(open_round(seconds * (1 - closed_share)));
    }
    set_tracing(o.trace);
  });
  // Every 64th frame of each connection must match the in-process oracle.
  const auto verify = [&] {
    const std::lock_guard<std::mutex> lock(kept_mu);
    bool first = true;
    for (const auto& k : kept) {
      const auto resp = serve::decode_response(k.resp_words);
      gate(resp.results.size() == k.req.probes.size(),
           "frame " + std::to_string(k.req.id) + " answered " +
               std::to_string(resp.results.size()) + " probes");
      for (std::size_t i = 0; i < k.req.probes.size(); ++i) {
        auto want = answer(oracle, k.req.probes[i]);
        if (o.corrupt && first && !want.words.empty()) {
          want.words.back() ^= 1;
          first = false;
        }
        const auto& got = resp.results[i];
        gate(got.status == want.status && got.words == want.words,
             "frame " + std::to_string(k.req.id) + " probe " +
                 std::to_string(i) + " (" + serve::op_name(got.op) +
                 ") differs from the in-process oracle");
      }
    }
    return kept.size();
  };
  r.config("serve_probe.frames_checked", static_cast<double>(verify()));

  const auto stats = server->stats();
  r.config("serve_probe.closed_rounds", static_cast<double>(closed.size()));
  r.config("serve_probe.open_rounds", static_cast<double>(open.size()));
  r.config("serve_probe.cache_hit_ratio", hits / (hits + misses));
  r.config("serve_probe.open_frames_per_s", rate);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("serve_probes_per_s", median_of(closed, &Round::probes_per_s),
           "1/s");
  r.metric("serve_p50_ms", median_of(closed, &Round::p50_ms), "ms");
  r.metric("serve_p99_ms", median_of(closed, &Round::p99_ms), "ms");
  if (o.trace) {
    r.metric("_serve_probe.untraced_s",
             median_of(closed, &Round::p50_ms) * 1e-3, "s");
    r.metric("_serve_probe.traced_s",
             median_of(traced_closed, &Round::p50_ms) * 1e-3, "s");
    r.metric("gen.factors_s", median(factor_s), "s");
    r.metric("serve.server_construct_s", median(server_s), "s");
    r.metric("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
    r.metric("serve.overloaded", static_cast<double>(stats.overloaded),
             "count");
    r.metric("open_p99_ms", median_of(open, &Round::p99_ms), "ms");
    r.metric("serve.open_late_p99_ms", median_of(open, &Round::late_p99_ms),
             "ms");

    std::vector<double> build_s;
    run_for(0, 3, [&](int) {
      Span b("kron.oracle_build");
      const kron::GroundTruthOracle fresh(*kp);
      build_s.push_back(b.stop());
    });
    r.metric("kron.oracle_build_s", median(build_s), "s");

    // The same frames answered in-process (oracle) and run through the
    // client codec alone, paired with each frame's measured latency.
    const std::lock_guard<std::mutex> lock(kept_mu);
    std::vector<double> probe_ns, codec_ns, overhead_ms;
    std::size_t words = 0;
    for (const auto& k : kept) {
      Span a("kron.oracle_frame");
      for (const auto& p : k.req.probes) {
        words += answer(oracle, p).words.size();
      }
      const double oracle_s = a.stop();
      probe_ns.push_back(oracle_s * 1e9 / kProbesPerFrame);
      if (k.closed_loop) overhead_ms.push_back(k.latency_ms - oracle_s * 1e3);
      Span c("serve.client_codec");
      const auto sealed = serve::seal_frame(serve::encode_request(k.req));
      words += serve::unseal_frame(sealed).size();
      words += serve::decode_response(k.resp_words).results.size();
      codec_ns.push_back(c.stop() * 1e9);
    }
    r.config("serve_probe.codec_sink", static_cast<double>(words));
    r.metric("kron.oracle_probe_ns", median(probe_ns), "ns");
    r.metric("serve.client_codec_ns", median(codec_ns), "ns");
    r.metric("serve.server_overhead_ms", median(overhead_ms), "ms");
  }

  server->stop();
  for (auto& c : conns) c->shutdown();
  server.reset();
  r.ops(frames.load(), failed.load());
}

} // namespace kronbench
