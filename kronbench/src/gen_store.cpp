// gen_store: stream a --scale 3 Kronecker chain into a fresh durable
// store, resume it as a no-op, and read it back with verify_store.
//
// The only write-heavy phase: it runs io and kron streaming plus the
// oracle validator, and no graph, parallel or serve code.  Every FileOps
// call goes through TimedFileOps, which times it on its way down.
//
// The gated passes keep the store in MemFileOps, in process memory, as
// tmpfs would keep it in the page cache: sync has nothing to flush.  The
// benchmark may write only inside its checkout, whose disk is shared;
// there one 9.5M-record durable run took 2.7 to 4 s, and even with fsync
// elided, read-back times split into two modes a factor 2 apart, set by
// the allocator's state rather than by kronlab.  A traced run makes one
// more pass through real_file_ops() on that disk, fsync kept, and
// reports it per layer (io.sync_s, io.disk_generate_s), never gated.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "kronlab/gen/random_bipartite.hpp"
#include "kronlab/io/file_ops.hpp"
#include "kronlab/io/stream_gen.hpp"
#include "kronlab/kron/oracle.hpp"
#include "kronlab/kron/partition.hpp"
#include "kronlab/kron/power.hpp"

namespace kronbench {
namespace {

namespace io = kronlab::io;
namespace kron = kronlab::kron;
namespace fs = std::filesystem;

/// A store in process memory: path -> bytes.  Paths are names only;
/// nothing touches the filesystem.
class MemFileOps final : public io::FileOps {
public:
  std::unique_ptr<io::WritableFile> create(const std::string& path) override {
    std::string& data = files_[path];
    data.clear();
    return std::make_unique<File>(data);
  }
  void publish(const std::string& tmp, const std::string& final) override {
    auto node = files_.extract(tmp);
    if (node.empty()) throw kronlab::io_error("publish: no file " + tmp);
    files_.erase(final);
    node.key() = final;
    files_.insert(std::move(node));
  }
  bool remove(const std::string& path) override {
    return files_.erase(path) > 0;
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    const std::string prefix = dir + "/";
    std::vector<std::string> names;
    for (auto it = files_.lower_bound(prefix);
         it != files_.end() && it->first.starts_with(prefix); ++it) {
      names.push_back(it->first.substr(prefix.size()));
    }
    return names;
  }
  std::optional<std::string> read_file(const std::string& path) override {
    const auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }
  void make_dir(const std::string&) override {}

  [[nodiscard]] count_t bytes() const {
    count_t total = 0;
    for (const auto& [path, data] : files_) {
      total += static_cast<count_t>(data.size());
    }
    return total;
  }
  void clear() { files_.clear(); }

private:
  class File final : public io::WritableFile {
  public:
    explicit File(std::string& data) : data_(data) {}
    std::size_t write_some(const void* p, std::size_t n) override {
      data_.append(static_cast<const char*>(p), n);
      return n;
    }
    void sync() override {}
    void close() override {}

  private:
    std::string& data_;
  };

  std::map<std::string, std::string> files_;
};

struct IoTally {
  double create_s = 0, write_s = 0, close_s = 0, sync_s = 0, publish_s = 0,
         read_s = 0;
  count_t syncs = 0, bytes_written = 0, bytes_read = 0;
};

/// Forwards every call to `inner` inside a span, and adds the time and
/// bytes of the calls the per-layer metrics name into `tally`.
class TimedFileOps final : public io::FileOps {
public:
  explicit TimedFileOps(io::FileOps& inner) : inner_(inner) {}

  std::unique_ptr<io::WritableFile> create(const std::string& path) override {
    Span s("io.create");
    auto f = std::make_unique<File>(inner_.create(path), tally);
    tally.create_s += s.stop();
    return f;
  }
  void publish(const std::string& tmp, const std::string& final) override {
    Span s("io.publish");
    inner_.publish(tmp, final);
    tally.publish_s += s.stop();
  }
  bool remove(const std::string& path) override {
    const Span s("io.remove");
    return inner_.remove(path);
  }
  std::vector<std::string> list_dir(const std::string& dir) override {
    const Span s("io.list_dir");
    return inner_.list_dir(dir);
  }
  std::optional<std::string> read_file(const std::string& path) override {
    Span s("io.read");
    auto bytes = inner_.read_file(path);
    tally.read_s += s.stop();
    if (bytes) tally.bytes_read += static_cast<count_t>(bytes->size());
    return bytes;
  }
  void make_dir(const std::string& dir) override {
    const Span s("io.make_dir");
    inner_.make_dir(dir);
  }

  IoTally tally;

private:
  class File final : public io::WritableFile {
  public:
    File(std::unique_ptr<io::WritableFile> inner, IoTally& tally)
        : inner_(std::move(inner)), tally_(tally) {}
    std::size_t write_some(const void* data, std::size_t n) override {
      Span s("io.write");
      const std::size_t wrote = inner_->write_some(data, n);
      tally_.write_s += s.stop();
      tally_.bytes_written += static_cast<count_t>(wrote);
      return wrote;
    }
    void sync() override {
      Span s("io.sync");
      inner_->sync();
      tally_.sync_s += s.stop();
      ++tally_.syncs;
    }
    void close() override {
      Span s("io.close");
      inner_->close();
      tally_.close_s += s.stop();
    }

  private:
    std::unique_ptr<io::WritableFile> inner_;
    IoTally& tally_;
  };

  io::FileOps& inner_;
};

/// XOR of the per-shard chain hashes: one word that changes with any
/// committed byte.
std::uint64_t chain_digest(const io::Manifest& man) {
  std::uint64_t d = 0;
  for (std::size_t s = 0; s < man.shards.size(); ++s) {
    d ^= man.shards[s].chain_hash * (2 * s + 1);
  }
  return d;
}

} // namespace

void run_gen_store(const Options& o, Report& r) {
  // Factor sizes fix the instance: 10 x 24^3 = 138,240 vertices and
  // 40 x 62^3 = 9,533,120 records (145 MiB of segments).
  const index_t n_left = o.tiny ? 6 : 10;
  const count_t m_left = o.tiny ? 8 : 20;
  const index_t half = o.tiny ? 4 : 12;
  const count_t m_right = o.tiny ? 8 : 31;
  const int scale = o.tiny ? 2 : 3;

  std::vector<double> factor_s, collapse_s, setup_s;
  std::unique_ptr<kron::BipartiteKronecker> kp;
  set_tracing(o.trace);
  run_for(0, kSetups, [&](int) {
    Span setup("setup");
    Span f("gen.factors");
    kronlab::Rng rl(input_seed(o, 11)), rr(input_seed(o, 12));
    auto left = kronlab::gen::random_nonbipartite_connected(n_left, m_left, rl);
    auto right =
        kronlab::gen::connected_random_bipartite(half, half, m_right, rr);
    factor_s.push_back(f.stop());
    Span c("kron.collapse");
    std::vector<kronlab::graph::Adjacency> chain{std::move(left)};
    for (int i = 0; i < scale; ++i) chain.push_back(right);
    auto [l, rt] = kron::ChainKronecker::of(std::move(chain)).collapse_pair();
    kp = std::make_unique<kron::BipartiteKronecker>(
        kron::BipartiteKronecker::raw(std::move(l), std::move(rt)));
    collapse_s.push_back(c.stop());
    setup_s.push_back(setup.stop());
  });

  io::StreamGenOptions opt{};
  const kron::PartitionedStream part(*kp, opt.shards);
  count_t expected = 0;
  for (index_t s = 0; s < opt.shards; ++s) expected += part.entries_of(s);
  const count_t expected_gate = expected + (o.corrupt ? 1 : 0);

  struct Sample {
    double gen_s, rescan_s, verify_s;
    IoTally gen_io, verify_io;
  };
  std::optional<std::uint64_t> digest;
  std::uint64_t ops = 0;

  // One generate -> rescan -> verify pass over a fresh store in `dir`,
  // under a root span named `root`.
  const auto pass = [&](io::FileOps& base, const std::string& dir,
                        const char* root) {
    TimedFileOps tops(base);
    io::StreamGenOptions run = opt;
    run.dir = dir;
    Sample smp{};
    Span op(root);
    Span g("io.generate_durable");
    const auto rep = io::generate_durable(tops, *kp, run);
    smp.gen_s = g.stop();
    smp.gen_io = tops.tally;
    gate(rep.manifest.total_edges() == expected_gate,
         "manifest records " + std::to_string(rep.manifest.total_edges()) +
             " != sum of entries_of " + std::to_string(expected_gate));
    gate(rep.edges_written == expected, "generate wrote a partial stream");
    const std::uint64_t d = chain_digest(rep.manifest);
    gate(!digest || *digest == d, "chain hashes differ between passes");
    digest = d;

    io::StreamGenOptions resume = run;
    resume.resume = true;
    Span rs("io.rescan");
    const auto again = io::generate_durable(tops, *kp, resume);
    smp.rescan_s = rs.stop();
    gate(again.edges_written == 0 && again.adopted_segments == 0 &&
             again.discarded_files == 0,
         "no-op resume adopted, discarded or wrote something");

    tops.tally = {};
    Span v("io.verify_store");
    const auto ver = io::verify_store(tops, *kp, run);
    smp.verify_s = v.stop();
    smp.verify_io = tops.tally;
    gate(ver.edges == expected, "verify_store read back a different total");
    ops += 3;
    return smp;
  };

  MemFileOps mem;
  count_t stored_bytes = 0;
  std::vector<Sample> plain, traced;
  int turn = 0;
  serve_slices([&](double seconds, bool traced_slice) {
    set_tracing(traced_slice);
    run_for(seconds, 1, [&](int) {
      const PinnedCpu pin(turn++);
      auto& out = traced_slice ? traced : plain;
      out.push_back(pass(mem, "store", "gen_store.pass"));
      stored_bytes = mem.bytes();
      mem.clear();
    });
    set_tracing(o.trace);
  });
  const auto gen_s = &Sample::gen_s;

  const auto recs = static_cast<double>(expected);
  r.config("gen_store.records", recs);
  r.config("gen_store.vertices", static_cast<double>(kp->num_vertices()));
  r.config("gen_store.passes", static_cast<double>(plain.size()));
  r.config("gen_store.chain_digest", std::to_string(*digest));
  r.config("gen_store.shards", static_cast<double>(opt.shards));
  r.config("gen_store.segment_edges", static_cast<double>(opt.segment_edges));
  r.config("gen_store.validate", opt.validate ? "true" : "false");
  r.config("gen_store.sample_rate", static_cast<double>(opt.sample_rate));
  r.config("gen_store.sample_seed", static_cast<double>(opt.sample_seed));
  r.config("gen_store.store", "in memory (tmpfs semantics)");

  // End-to-end figures come from the untraced slices in either mode;
  // run.py reports the ones BENCHMARK.json lists for the mode.
  r.metric("setup_s", median(setup_s), "s");
  r.metric("gen_records_per_s", recs / median_of(plain, gen_s), "1/s");
  r.metric("verify_records_per_s", recs / median_of(plain, &Sample::verify_s),
           "1/s");
  r.metric("rescan_s", median_of(plain, &Sample::rescan_s), "s");
  if (!o.trace) {
    r.ops(ops, 0);
    return;
  }

  r.metric("_gen_store.untraced_s", median_of(plain, gen_s), "s");
  r.metric("_gen_store.traced_s", median_of(traced, gen_s), "s");
  r.metric("gen.factors_s", median(factor_s), "s");
  r.metric("kron.collapse_s", median(collapse_s), "s");
  const auto io_s = [&](double IoTally::*field, bool verify) {
    return median_of(traced, [&](const Sample& s) {
      return (verify ? s.verify_io : s.gen_io).*field;
    });
  };
  const auto io_n = [&](count_t IoTally::*field, bool verify) {
    return median_of(traced, [&](const Sample& s) {
      return static_cast<double>((verify ? s.verify_io : s.gen_io).*field);
    });
  };
  r.metric("io.create_s", io_s(&IoTally::create_s, false), "s");
  r.metric("io.write_s", io_s(&IoTally::write_s, false), "s");
  r.metric("io.close_s", io_s(&IoTally::close_s, false), "s");
  r.metric("io.publish_s", io_s(&IoTally::publish_s, false), "s");
  r.metric("io.syncs", io_n(&IoTally::syncs, false), "count");
  r.metric("io.bytes_written", io_n(&IoTally::bytes_written, false), "bytes");
  r.metric("io.read_s", io_s(&IoTally::read_s, true), "s");
  const double bytes_read = io_n(&IoTally::bytes_read, true);
  r.metric("io.bytes_read", bytes_read, "bytes");
  r.metric("io.read_amplification",
           bytes_read / static_cast<double>(stored_bytes), "ratio");

  // The bare stream, PartitionedStream with no io: the floor under
  // gen_records_per_s.  Then the same stream through the validator.
  std::vector<double> stream_s, validator_s;
  std::uint64_t sink = 0;
  const kron::GroundTruthOracle oracle(*kp);
  run_for(0, 3, [&](int) {
    Span s("kron.stream");
    for (index_t sh = 0; sh < opt.shards; ++sh) {
      part.for_each_entry(sh, [&](index_t p, index_t q) {
        sink += static_cast<std::uint64_t>(p * 31 + q);
      });
    }
    stream_s.push_back(s.stop());
    io::StreamValidator val(oracle, opt.sample_seed, opt.sample_rate);
    Span v("io.validator");
    for (index_t sh = 0; sh < opt.shards; ++sh) {
      val.begin_shard(false);
      part.for_each_entry(sh, [&](index_t p, index_t q) { val.observe(p, q); });
      val.end_shard();
    }
    validator_s.push_back(v.stop());
  });
  r.config("gen_store.stream_sink", std::to_string(sink));
  r.metric("kron.stream_records_per_s", recs / median(stream_s), "1/s");
  r.metric("io.validator_s", median(validator_s), "s");

  // One pass through real_file_ops() on the checkout's disk, fsync kept.
  const std::string disk_dir = o.work_dir + "/store";
  fs::remove_all(disk_dir);
  const Sample disk =
      pass(io::real_file_ops(), disk_dir, "gen_store.disk_pass");
  fs::remove_all(disk_dir);
  r.metric("io.sync_s", disk.gen_io.sync_s, "s");
  r.metric("io.disk_generate_s", disk.gen_s, "s");
  r.ops(ops, 0);
}

} // namespace kronbench
