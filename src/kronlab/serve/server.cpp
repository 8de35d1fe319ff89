#include "kronlab/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "kronlab/common/timer.hpp"
#include "kronlab/kron/ground_truth.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/obs/watchdog.hpp"
#include "kronlab/parallel/metrics.hpp"
#include "kronlab/parallel/parallel_for.hpp"

namespace kronlab::serve {

/// Per-connection state.  The Connection outlives its socket activity via
/// shared_ptr: the reader thread, the conns_ registry, and every queued
/// WorkItem hold references, so a client disconnecting mid-frame can
/// never leave a slot holder writing through freed memory.
struct Server::Connection {
  std::unique_ptr<Transport> transport;
  std::thread reader;
  Mutex write_mu; ///< serializes response frames onto the stream
  std::atomic<bool> reader_done{false};
};

/// One execution slot.  Only the reader holding it touches its fields,
/// so none takes a lock; the hit and miss counters have that one writer
/// and are atomic only so stats() can read them from any thread.
struct Server::Slot {
  /// Direct-mapped vertex records, sized once; an entry's `p` is its key
  /// (-1 = empty).  An empty table counts every lookup as a miss.
  std::vector<kron::VertexRecord> cache;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::vector<std::size_t> probe_at; ///< probe offsets of the frame
  std::vector<word_t> frame;         ///< the response frame

  kron::VertexRecord vertex(const kron::GroundTruthOracle& oracle,
                            index_t p) {
    if (cache.empty()) {
      add_one(misses);
      return oracle.vertex(p);
    }
    // Fibonacci hash; its high 32 bits scaled onto the table.
    const std::uint64_t h =
        static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ull;
    kron::VertexRecord& entry = cache[((h >> 32) * cache.size()) >> 32];
    if (entry.p == p) {
      add_one(hits);
      return entry;
    }
    add_one(misses);
    entry = oracle.vertex(p);
    return entry;
  }

  static void add_one(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
};

Server::Server(const kron::BipartiteKronecker& kp, ServerOptions opt)
    : oracle_(kp), opt_(opt) {
  KRONLAB_REQUIRE(opt_.executors > 0, "server needs at least one executor");
  KRONLAB_REQUIRE(opt_.queue_depth > 0, "queue depth must be positive");
  KRONLAB_REQUIRE(opt_.max_connections > 0,
                  "connection limit must be positive");
  KRONLAB_REQUIRE(opt_.cache_capacity / opt_.executors < (1ull << 32),
                  "cache capacity per executor must be below 2^32");
  stats_record_ = {kp.num_vertices(), kp.num_edges(),
                   kron::global_squares(kp)};
  for (const auto& [degree, vertices] : oracle_.degree_histogram()) {
    degree_hist_.emplace_back(degree, vertices);
  }
  request_hist_ = &obs::histogram("serve/request");
  for (std::size_t i = 1; i < op_hist_.size(); ++i) {
    op_hist_[i] = &obs::histogram(std::string("serve/op/") +
                                  op_name(static_cast<Op>(i)));
  }
  queue_depth_gauge_ = &obs::gauge("serve/queue_depth");
  start_ns_ = timer::now_ns();
  slots_ = std::make_unique<Slot[]>(opt_.executors);
  MutexLock lock(queue_mu_);
  for (std::size_t i = 0; i < opt_.executors; ++i) {
    const std::size_t entries =
        opt_.cache_capacity / opt_.executors +
        (i < opt_.cache_capacity % opt_.executors ? 1 : 0);
    slots_[i].cache.assign(entries, kron::VertexRecord{-1});
    free_slots_.push_back(&slots_[i]);
  }
}

Server::~Server() { stop(); }

void Server::start(std::unique_ptr<Listener> listener) {
  KRONLAB_REQUIRE(listener != nullptr, "start() needs a listener");
  KRONLAB_REQUIRE(!listener_ && !stopped_.load(),
                  "start() may run once, before stop()");
  listener_ = std::move(listener);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  trace::set_thread_name("serve accept");
  while (auto conn = listener_->accept()) {
    adopt(std::move(conn));
  }
}

void Server::adopt(std::unique_ptr<Transport> transport) {
  auto conn = std::make_shared<Connection>();
  conn->transport = std::move(transport);
  if (draining_.load(std::memory_order_acquire)) {
    connections_rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::log(obs::LogLevel::info, "serve", "conn_rejected")
        .field("reason", "shutting_down");
    refuse(*conn, 0, Status::shutting_down);
    return; // transport closes with the Connection
  }
  std::size_t active = 0;
  {
    MutexLock lock(conn_mu_);
    reap_connections();
    for (const auto& c : conns_) {
      if (!c->reader_done.load(std::memory_order_acquire)) ++active;
    }
    if (active < opt_.max_connections) {
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conns_.push_back(std::move(conn));
      return;
    }
  }
  // Rejection answer outside conn_mu_: a slow peer must not be able to
  // stall the accept path behind its socket (found by kronlab_analyze's
  // blocking-under-lock rule).  The conn is not in conns_, so nothing
  // races the write.
  connections_rejected_.fetch_add(1, std::memory_order_relaxed);
  obs::log(obs::LogLevel::warn, "serve", "conn_rejected")
      .field("reason", "overloaded")
      .field("active", static_cast<std::uint64_t>(active))
      .field("max", static_cast<std::uint64_t>(opt_.max_connections));
  refuse(*conn, 0, Status::overloaded);
}

void Server::reap_connections() {
  // Joining a finished reader is quick; live readers are left alone, so
  // the accept path never blocks behind a long-lived connection.
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& c) {
    if (!c->reader_done.load(std::memory_order_acquire)) return false;
    if (c->reader.joinable()) c->reader.join();
    return true;
  });
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  trace::set_thread_name("serve reader");
  Transport& t = *conn->transport;
  while (true) {
    std::vector<word_t> payload;
    try {
      auto frame = read_frame(t, no_deadline);
      if (!frame) break; // clean EOF
      payload = std::move(*frame);
    } catch (const checksum_error& e) {
      // Framing is intact (the full frame was read): answer and go on.
      malformed_.fetch_add(1, std::memory_order_relaxed);
      obs::log(obs::LogLevel::warn, "serve", "frame_checksum_error")
          .field("what", e.what());
      refuse(*conn, 0, Status::malformed);
      continue;
    } catch (const protocol_error& e) {
      // Bad magic / implausible length: the byte stream may be out of
      // sync — answer best-effort and drop the connection.  The close is
      // immediate (not deferred to reaping) so the peer observes EOF, at
      // the cost of any still-queued responses on this stream.
      malformed_.fetch_add(1, std::memory_order_relaxed);
      obs::log(obs::LogLevel::warn, "serve", "frame_protocol_error")
          .field("what", e.what())
          .field("action", "drop_connection");
      refuse(*conn, 0, Status::malformed);
      t.shutdown();
      break;
    } catch (const error&) {
      break; // mid-frame disconnect or shutdown_read()
    }
    frames_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = peek_request_id(payload);
    if (draining_.load(std::memory_order_acquire)) {
      shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
      refuse(*conn, id, Status::shutting_down);
      continue;
    }
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    // Take a free slot and run the frame here, or queue it for a slot
    // holder, or refuse it.  One lock covers the choice, and a holder
    // looks at the queue under it before giving its slot back, so a
    // queued frame always has a holder that will run it.
    Slot* slot = nullptr;
    bool queued = false;
    {
      MutexLock lock(queue_mu_);
      if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
      } else if (queue_.size() < opt_.queue_depth) {
        queue_.push_back({conn, std::move(payload)});
        queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
        queued = true;
      }
    }
    if (slot != nullptr) {
      run_on_slot(*slot, *conn, payload);
    } else if (!queued) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      refuse(*conn, id, Status::overloaded);
    }
  }
  conn->reader_done.store(true, std::memory_order_release);
}

void Server::run_on_slot(Slot& slot, Connection& conn,
                         const std::vector<word_t>& payload) {
  process(slot, conn, payload);
  while (true) {
    WorkItem item;
    {
      MutexLock lock(queue_mu_);
      if (queue_.empty()) {
        free_slots_.push_back(&slot);
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_gauge_->set(static_cast<std::int64_t>(queue_.size()));
    }
    // Outside the lock, so that dropping the last reference to a closed
    // connection never closes its socket under queue_mu_.
    process(slot, *item.conn, item.payload);
  }
}

void Server::process(Slot& slot, Connection& conn,
                     const std::vector<word_t>& req) {
  trace::Span span("serve", "request");
  metrics::KernelScope scope("serve/request");
  obs::LatencyScope latency(*request_hist_);
  obs::StallGuard stall_guard("serve/request");
  std::vector<word_t>& out = slot.frame;
  out.assign(frame_head_words, 0);
  bool well_formed = true;
  try {
    index_request(req, slot.probe_at);
  } catch (const protocol_error&) {
    well_formed = false;
  }
  if (!well_formed) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    out.insert(out.end(), {static_cast<word_t>(peek_request_id(req)),
                           static_cast<word_t>(Status::malformed), 0});
  } else {
    const std::vector<std::size_t>& at = slot.probe_at;
    std::array<std::uint64_t, 8> by_op{};
    for (const std::size_t a : at) {
      const auto opi = static_cast<std::uint64_t>(req[a]);
      if (opi < by_op.size()) ++by_op[opi];
    }
    probes_.fetch_add(at.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < by_op.size(); ++i) {
      if (by_op[i] != 0) {
        probes_by_op_[i].fetch_add(by_op[i], std::memory_order_relaxed);
      }
    }
    out.insert(out.end(), {req[0], static_cast<word_t>(Status::ok),
                           static_cast<word_t>(at.size())});
    if (at.size() >= opt_.parallel_batch_threshold) {
      // Large batches fan out through the dynamic dispatcher, each
      // result into its own buffer; concurrent slot holders serialize on
      // the pool's run mutex, which is the documented multi-caller
      // discipline of ThreadPool::run.
      std::vector<std::vector<word_t>> results(at.size());
      parallel_for_dynamic(
          0, static_cast<index_t>(at.size()),
          [&](index_t i) {
            const auto k = static_cast<std::size_t>(i);
            run_probe(req.data() + at[k], results[k], nullptr);
          },
          global_pool(), /*grain=*/32);
      for (const auto& r : results) out.insert(out.end(), r.begin(), r.end());
    } else {
      for (const std::size_t a : at) run_probe(req.data() + a, out, &slot);
    }
  }
  send(conn, out);
  responses_.fetch_add(1, std::memory_order_relaxed);
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::run_probe(const word_t* probe, std::vector<word_t>& out,
                       Slot* slot) {
  const auto op = static_cast<Op>(probe[0]);
  const auto nargs = static_cast<std::size_t>(probe[1]);
  const word_t* args = probe + 2;
  const std::size_t head = out.size();
  out.insert(out.end(), {probe[0], static_cast<word_t>(Status::ok), 0});
  // Sampled (1-in-8): a probe runs in well under a microsecond, so the
  // two clock reads of an unconditional scope would cost ~10% of
  // throughput (X18).  probes_by_op_ keeps the exact totals.
  const auto opi = static_cast<std::uint64_t>(probe[0]);
  obs::SampledLatencyScope latency(opi < op_hist_.size() ? op_hist_[opi]
                                                         : nullptr);
  // Appends the result words; any status but ok carries none.
  const auto answer = [&]() -> Status {
    switch (op) {
      case Op::vertex: {
        if (nargs != 1) return Status::bad_probe;
        const index_t p = args[0];
        if (p < 0 || p >= oracle_.num_vertices()) return Status::bad_probe;
        append_record(out, slot != nullptr ? slot->vertex(oracle_, p)
                                           : oracle_.vertex(p));
        return Status::ok;
      }
      case Op::edge: {
        if (nargs != 2) return Status::bad_probe;
        const auto rec = oracle_.try_edge(args[0], args[1]);
        if (!rec) return Status::not_an_edge;
        append_record(out, *rec);
        return Status::ok;
      }
      case Op::degree_hist: {
        if (nargs != 2) return Status::bad_probe;
        const count_t lo = args[0];
        const count_t hi = args[1];
        if (lo > hi) return Status::bad_probe;
        const auto key = [](const std::pair<count_t, index_t>& e,
                            count_t d) { return e.first < d; };
        const auto begin = std::lower_bound(degree_hist_.begin(),
                                            degree_hist_.end(), lo, key);
        const auto end = std::lower_bound(degree_hist_.begin(),
                                          degree_hist_.end(), hi + 1, key);
        append_hist(out, {begin, end});
        return Status::ok;
      }
      case Op::sample_vertex: {
        if (nargs != 1) return Status::bad_probe;
        Rng rng(static_cast<std::uint64_t>(args[0]));
        append_record(out, oracle_.sample_vertex(rng));
        return Status::ok;
      }
      case Op::sample_edge: {
        if (nargs != 1) return Status::bad_probe;
        Rng rng(static_cast<std::uint64_t>(args[0]));
        append_record(out, oracle_.sample_edge(rng));
        return Status::ok;
      }
      case Op::stats: {
        if (nargs != 0) return Status::bad_probe;
        append_record(out, stats_record_);
        return Status::ok;
      }
      case Op::server_stats: {
        if (nargs != 1) return Status::bad_probe;
        const auto format = static_cast<StatsFormat>(args[0]);
        if (format != StatsFormat::json &&
            format != StatsFormat::prometheus) {
          return Status::bad_probe;
        }
        const auto words = encode_stats_text(format, stats_text(format));
        out.insert(out.end(), words.begin(), words.end());
        return Status::ok;
      }
    }
    return Status::bad_probe; // unknown opcode
  };
  Status status = Status::bad_probe;
  try {
    status = answer();
  } catch (const error&) {
    // A probe must never take the daemon down; the typed error becomes a
    // typed status (e.g. sample_edge on an edgeless product).
  }
  if (status != Status::ok) {
    out.resize(head + 3);
    out[head + 1] = static_cast<word_t>(status);
  }
  out[head + 2] = static_cast<word_t>(out.size() - head - 3);
}

void Server::refuse(Connection& conn, std::uint64_t id, Status status) {
  std::vector<word_t> frame =
      frame_with_room(encode_response({id, status, {}}));
  send(conn, frame);
}

void Server::send(Connection& conn, std::vector<word_t>& frame) {
  try {
    seal_frame_in_place(frame);
    MutexLock lock(conn.write_mu);
    // kronlab-analyze: allow(blocking-under-lock) write_mu is this
    // connection's dedicated frame mutex; it exists precisely to keep
    // concurrent responses from interleaving bytes, and nothing else
    // ever waits on it while doing work
    conn.transport->write_all(frame.data(), frame.size() * sizeof(word_t));
  } catch (const error& e) {
    // Peer vanished mid-response (or the answer outgrew a frame); its
    // reader sees the close and the connection is reaped.  Dropping the
    // write is the only option left.
    obs::log(obs::LogLevel::debug, "serve", "response_write_failed")
        .field("what", e.what());
  }
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  // Structured drain progress at a fixed cadence: a drain that finishes
  // inside the first tick (the common case — and every unit test) logs
  // nothing; a long drain reports its in-flight count every 200ms so an
  // operator watching the daemon's log sees it converging.
  const std::uint64_t drain_begin = timer::now_ns();
  std::atomic<bool> drain_done{false};
  std::thread progress([this, &drain_done, drain_begin] {
    trace::set_thread_name("serve drain");
    int ticks = 0;
    while (!drain_done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (drain_done.load(std::memory_order_acquire)) break;
      if (++ticks % 4 != 0) continue;
      obs::log(obs::LogLevel::info, "serve", "drain_progress")
          .field("in_flight", in_flight())
          .field("elapsed_ms", (timer::now_ns() - drain_begin) / 1000000);
    }
  });
  if (listener_) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Half-close every connection's read side: readers drain out on EOF
  // while responses to already-admitted frames still flow.
  {
    MutexLock lock(conn_mu_);
    for (const auto& c : conns_) c->transport->shutdown_read();
    for (const auto& c : conns_) {
      // kronlab-analyze: allow(blocking-under-lock) shutdown path: the
      // listener is closed and every read side is half-closed, so each
      // reader exits promptly; conn_mu_ is held to fence out adopt()
      if (c->reader.joinable()) c->reader.join();
    }
  }
  // Every reader has finished its frames and the queue behind its slot.
  {
    MutexLock lock(conn_mu_);
    for (const auto& c : conns_) c->transport->shutdown();
    conns_.clear();
  }
  drain_done.store(true, std::memory_order_release);
  progress.join();
  obs::log(obs::LogLevel::debug, "serve", "drain_complete")
      .field("elapsed_ms", (timer::now_ns() - drain_begin) / 1000000)
      .field("responses", responses_.load(std::memory_order_relaxed));
}

std::string Server::stats_text(StatsFormat format) {
  const ServerStats s = stats();
  const obs::StatsSnapshot snap = obs::stats_snapshot();
  std::size_t queue_depth = 0;
  {
    MutexLock lock(queue_mu_);
    queue_depth = queue_.size();
  }
  const double uptime =
      static_cast<double>(timer::now_ns() - start_ns_) / 1e9;
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.cache_hits) /
                         static_cast<double>(lookups);

  if (format == StatsFormat::prometheus) {
    std::string out;
    const auto scalar = [&out](const char* name, const char* type,
                               double v) {
      char line[160];
      std::snprintf(line, sizeof line, "# TYPE %s %s\n%s %.6f\n", name,
                    type, name, v);
      out += line;
    };
    scalar("kronlab_server_uptime_seconds", "gauge", uptime);
    scalar("kronlab_server_in_flight", "gauge",
           static_cast<double>(in_flight()));
    scalar("kronlab_server_queue_depth", "gauge",
           static_cast<double>(queue_depth));
    scalar("kronlab_server_cache_hit_rate", "gauge", hit_rate);
    scalar("kronlab_server_connections_accepted_total", "counter",
           static_cast<double>(s.connections_accepted));
    scalar("kronlab_server_connections_rejected_total", "counter",
           static_cast<double>(s.connections_rejected));
    scalar("kronlab_server_frames_total", "counter",
           static_cast<double>(s.frames));
    scalar("kronlab_server_responses_total", "counter",
           static_cast<double>(s.responses));
    scalar("kronlab_server_probes_total", "counter",
           static_cast<double>(s.probes));
    scalar("kronlab_server_overloaded_total", "counter",
           static_cast<double>(s.overloaded));
    scalar("kronlab_server_malformed_total", "counter",
           static_cast<double>(s.malformed));
    scalar("kronlab_server_shed_shutdown_total", "counter",
           static_cast<double>(s.shed_shutdown));
    out += obs::stats_prometheus(snap);
    return out;
  }

  std::string out = "{\"schema\":\"kronlab-stats-v1\"";
  out += ",\"stats_enabled\":";
  out += obs::stats_enabled() ? "true" : "false";
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"uptime_seconds\":%.3f", uptime);
  out += buf;
  out += ",\"server\":{";
  out += "\"connections_accepted\":" + std::to_string(s.connections_accepted);
  out += ",\"connections_rejected\":" +
         std::to_string(s.connections_rejected);
  out += ",\"frames\":" + std::to_string(s.frames);
  out += ",\"responses\":" + std::to_string(s.responses);
  out += ",\"probes\":" + std::to_string(s.probes);
  out += ",\"overloaded\":" + std::to_string(s.overloaded);
  out += ",\"malformed\":" + std::to_string(s.malformed);
  out += ",\"shed_shutdown\":" + std::to_string(s.shed_shutdown);
  out += ",\"in_flight\":" + std::to_string(in_flight());
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(s.cache_misses);
  std::snprintf(buf, sizeof buf, ",\"cache_hit_rate\":%.4f", hit_rate);
  out += buf;
  out += "},\"probes_by_op\":{";
  for (std::size_t i = 1; i < s.probes_by_op.size(); ++i) {
    if (i > 1) out += ',';
    out += '"';
    out += op_name(static_cast<Op>(i));
    out += "\":" + std::to_string(s.probes_by_op[i]);
  }
  out += "},";
  // Splice in the registry fragment ({"counters":...,"gauges":...,
  // "histograms":...}) minus its opening brace, so the renderer in
  // obs/stats stays the single source of truth for metric formatting.
  out += obs::stats_json(snap).substr(1);
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.probes = probes_.load(std::memory_order_relaxed);
  s.overloaded = overloaded_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < opt_.executors; ++i) {
    s.cache_hits += slots_[i].hits.load(std::memory_order_relaxed);
    s.cache_misses += slots_[i].misses.load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < s.probes_by_op.size(); ++i) {
    s.probes_by_op[i] = probes_by_op_[i].load(std::memory_order_relaxed);
  }
  return s;
}

} // namespace kronlab::serve
