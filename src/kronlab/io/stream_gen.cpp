#include "kronlab/io/stream_gen.hpp"

#include <utility>

#include "kronlab/grb/binary_io.hpp" // fnv1a64
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::io {

using grb::fnv1a64;

namespace {

void hash_factor(std::uint64_t& h, const graph::Adjacency& f) {
  const std::int64_t shape[2] = {f.nrows(), f.ncols()};
  h = fnv1a64(shape, sizeof shape, h);
  h = fnv1a64(f.row_ptr().data(),
              f.row_ptr().size() * sizeof(f.row_ptr()[0]), h);
  h = fnv1a64(f.col_idx().data(),
              f.col_idx().size() * sizeof(f.col_idx()[0]), h);
}

/// One shard's segment-buffered durable writer: collects edges, seals a
/// segment every `segment_edges` records, and commits the manifest after
/// every seal — the only points at which the store's cursor advances.
class ShardWriter {
public:
  ShardWriter(FileOps& ops, const std::string& dir, Manifest& man,
              index_t shard, std::uint64_t spec)
      : ops_(ops), dir_(dir), man_(man), shard_(shard), spec_(spec) {
    buf_.reserve(static_cast<std::size_t>(man.segment_edges));
  }

  void push(index_t p, index_t q) {
    buf_.emplace_back(p, q);
    if (static_cast<count_t>(buf_.size()) == man_.segment_edges) seal();
  }

  /// Seal whatever remains (the shard's final, possibly short, segment).
  void finish() {
    if (!buf_.empty()) seal();
  }

  [[nodiscard]] count_t segments_sealed() const { return sealed_; }

private:
  void seal() {
    auto& prog = man_.shards[static_cast<std::size_t>(shard_)];
    SegmentHeader h;
    h.spec_hash = spec_;
    h.shard = shard_;
    h.seg_index = prog.segments;
    h.first_edge = prog.edges;
    h.num_edges = static_cast<count_t>(buf_.size());
    const std::uint64_t payload_hash =
        write_segment(ops_, dir_, h, buf_, prog.chain_hash);
    prog.segments += 1;
    prog.edges += h.num_edges;
    buf_.clear();
    write_manifest(ops_, dir_, man_);
    ++sealed_;
    obs::log(obs::LogLevel::debug, "io", "segment_sealed")
        .field("shard", static_cast<std::int64_t>(shard_))
        .field("seg", static_cast<std::int64_t>(h.seg_index))
        .field("edges", static_cast<std::int64_t>(h.num_edges))
        .field("payload_hash", payload_hash);
    trace::counter("io", "edges_committed",
                   static_cast<double>(man_.total_edges()));
  }

  FileOps& ops_;
  const std::string& dir_;
  Manifest& man_;
  index_t shard_;
  std::uint64_t spec_;
  std::vector<std::pair<index_t, index_t>> buf_;
  count_t sealed_ = 0;
};

} // namespace

std::uint64_t spec_hash(const kron::BipartiteKronecker& kp) {
  std::uint64_t h = kFnvBasis;
  hash_factor(h, kp.left());
  hash_factor(h, kp.right());
  const std::int64_t mode = static_cast<std::int64_t>(kp.mode());
  h = fnv1a64(&mode, sizeof mode, h);
  return h;
}

// ---------------------------------------------------------------------------
// StreamValidator

StreamValidator::StreamValidator(const kron::GroundTruthOracle& oracle,
                                 std::uint64_t seed, std::uint64_t rate)
    : oracle_(&oracle), seed_(seed), rate_(rate) {
  KRONLAB_REQUIRE(rate_ >= 1, "sample rate must be >= 1");
}

void StreamValidator::begin_shard(bool first_row_partial) {
  row_ = -1;
  row_edges_ = 0;
  row_partial_ = false;
  next_row_partial_ = first_row_partial;
}

void StreamValidator::close_row() {
  if (row_ < 0 || row_partial_ ||
      !sampled(static_cast<std::uint64_t>(row_))) {
    return;
  }
  const count_t want = oracle_->vertex(row_).degree;
  if (row_edges_ != want) {
    throw validation_error(
        "stream validation: row " + std::to_string(row_) + " emitted " +
        std::to_string(row_edges_) + " edges but the ground-truth degree is " +
        std::to_string(want) + " — generated stream has drifted");
  }
  ++rows_checked_;
}

void StreamValidator::start_row(index_t p) {
  close_row();
  if (row_ >= 0 && p < row_) {
    throw validation_error(
        "stream validation: rows out of order (" + std::to_string(p) +
        " after " + std::to_string(row_) + ") — stream is not row-major");
  }
  row_ = p;
  row_edges_ = 0;
  row_partial_ = next_row_partial_;
  next_row_partial_ = false;
}

void StreamValidator::probe_edge(index_t p, index_t q) {
  if (!oracle_->try_edge(p, q)) {
    throw validation_error(
        "stream validation: (" + std::to_string(p) + ", " +
        std::to_string(q) +
        ") is not an edge of the product — generated stream has drifted");
  }
  ++edges_checked_;
}

void StreamValidator::end_shard() {
  close_row();
  row_ = -1;
  row_edges_ = 0;
}

// ---------------------------------------------------------------------------
// generate_durable

StreamGenReport generate_durable(FileOps& ops,
                                 const kron::BipartiteKronecker& kp,
                                 const StreamGenOptions& opt) {
  KRONLAB_TRACE_SPAN("io", "generate_durable");
  obs::KernelScope kernel("durable_stream_gen");
  KRONLAB_REQUIRE(!opt.dir.empty(), "output directory required");
  KRONLAB_REQUIRE(opt.shards >= 1, "need at least one shard");
  KRONLAB_REQUIRE(opt.segment_edges >= 1, "segment_edges must be >= 1");

  ops.make_dir(opt.dir);
  const std::uint64_t spec = spec_hash(kp);
  Manifest expected;
  expected.spec_hash = spec;
  expected.segment_edges = opt.segment_edges;
  expected.shards.resize(static_cast<std::size_t>(opt.shards));

  StreamGenReport rep;
  if (opt.resume) {
    const ScanResult scan = scan_store(ops, opt.dir, expected);
    rep.manifest = scan.manifest;
    rep.adopted_segments = scan.adopted_segments;
    rep.discarded_files = scan.discarded_files;
    rep.verified_segments = scan.verified_segments;
  } else {
    if (read_manifest(ops, opt.dir)) {
      throw io_error("durable store: " + opt.dir +
                     " already holds a manifest — pass --resume to "
                     "continue it, or generate into a fresh directory");
    }
    // Leftovers from a run that died before its first commit carry no
    // state worth adopting in fresh mode; clear them.
    for (const auto& name : ops.list_dir(opt.dir)) {
      if (ops.remove(opt.dir + "/" + name)) ++rep.discarded_files;
    }
    rep.manifest = expected;
  }

  const kron::PartitionedStream part(kp, opt.shards);
  kron::GroundTruthOracle oracle(kp);
  StreamValidator validator(oracle, opt.sample_seed,
                            opt.validate ? opt.sample_rate : 1);

  for (index_t s = 0; s < opt.shards; ++s) {
    KRONLAB_TRACE_SPAN("io", "generate_shard");
    const count_t cursor =
        rep.manifest.shards[static_cast<std::size_t>(s)].edges;
    const count_t total = part.entries_of(s);
    KRONLAB_DBG_ASSERT(cursor <= total, "cursor past the shard's stream");
    rep.edges_resumed += cursor;
    if (cursor == total) continue; // shard already complete
    ShardWriter writer(ops, opt.dir, rep.manifest, s, spec);
    if (opt.validate) validator.begin_shard(/*first_row_partial=*/cursor > 0);
    part.for_each_entry_from(s, cursor, [&](index_t p, index_t q) {
      if (opt.validate) validator.observe(p, q);
      writer.push(p, q);
      ++rep.edges_written;
    });
    if (opt.validate) validator.end_shard();
    writer.finish();
    rep.segments_sealed += writer.segments_sealed();
  }
  rep.rows_checked = validator.rows_checked();
  rep.edges_checked = validator.edges_checked();
  trace::counter("io", "edges_committed",
                 static_cast<double>(rep.manifest.total_edges()));
  return rep;
}

// ---------------------------------------------------------------------------
// verify_store

VerifyReport verify_store(FileOps& ops,
                          const kron::BipartiteKronecker& kp,
                          const StreamGenOptions& opt) {
  KRONLAB_TRACE_SPAN("io", "verify_store");
  obs::KernelScope kernel("durable_verify");
  const auto man = read_manifest(ops, opt.dir);
  if (!man) {
    throw io_error("durable store: " + opt.dir + " has no manifest");
  }
  const std::uint64_t spec = spec_hash(kp);
  if (man->spec_hash != spec) {
    throw validation_error("durable store: " + opt.dir +
                           " was generated from a different spec "
                           "(manifest spec hash mismatch)");
  }

  const auto shards = static_cast<index_t>(man->shards.size());
  const kron::PartitionedStream part(kp, shards);
  kron::GroundTruthOracle oracle(kp);
  StreamValidator validator(oracle, opt.sample_seed, opt.sample_rate);

  VerifyReport rep;
  for (index_t s = 0; s < shards; ++s) {
    const auto& prog = man->shards[static_cast<std::size_t>(s)];
    if (prog.edges != part.entries_of(s)) {
      throw validation_error(
          "durable store: shard " + std::to_string(s) + " holds " +
          std::to_string(prog.edges) + " of " +
          std::to_string(part.entries_of(s)) +
          " edges — store is incomplete, not verifiable as final output "
          "(resume it to finish)");
    }
    validator.begin_shard(/*first_row_partial=*/false);
    check_committed(ops, opt.dir, spec, s, prog,
                    [&](const CheckedSegment& seg) {
                      seg.for_each_edge([&](index_t p, index_t q) {
                        validator.observe(p, q);
                      });
                      rep.edges += seg.header.num_edges;
                      ++rep.segments;
                    });
    validator.end_shard();
  }
  rep.rows_checked = validator.rows_checked();
  rep.edges_checked = validator.edges_checked();
  return rep;
}

} // namespace kronlab::io
