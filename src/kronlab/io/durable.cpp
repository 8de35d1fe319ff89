#include "kronlab/io/durable.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "kronlab/common/registry.hpp"
#include "kronlab/obs/log.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"
#include "kronlab/obs/watchdog.hpp"

namespace kronlab::io {

namespace {

constexpr const char (&kSegMagic)[8] = magic::kSeg1;
constexpr const char (&kManMagic)[8] = magic::kMan1;
constexpr std::int64_t kManifestVersion = 1;
constexpr const char* kManifestName = "MANIFEST";

/// Hard cap on counts decoded from disk: four corrupt bytes must not
/// become a terabyte allocation (same posture as grb/binary_io).
constexpr std::int64_t kMaxPlausible = std::int64_t{1} << 40;

void append_words(std::string& out, const std::int64_t* words,
                  std::size_t n) {
  out.append(reinterpret_cast<const char*>(words),
             n * sizeof(std::int64_t));
}

/// Cursor over a byte buffer decoding 64-bit words; `what` labels the
/// failing field in errors.
struct WordReader {
  const std::string& bytes;
  std::size_t pos = 0;
  const std::string& path;

  std::int64_t next(const char* what) {
    if (pos + sizeof(std::int64_t) > bytes.size()) {
      throw validation_error("durable store: " + path +
                             " truncated while reading " + what);
    }
    std::int64_t w = 0;
    std::memcpy(&w, bytes.data() + pos, sizeof w);
    pos += sizeof w;
    return w;
  }
};

std::string shard_prefix(index_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04lld-",
                static_cast<long long>(shard));
  return buf;
}

/// Write `bytes` to `<final>.tmp`, fsync, and atomically publish it under
/// `final_name` — the one commit primitive both segments and the
/// manifest use.
void write_sealed(FileOps& ops, const std::string& dir,
                  const std::string& final_name, const std::string& bytes) {
  static obs::Histogram& commit_hist = obs::histogram("io/segment_commit");
  obs::LatencyScope commit_latency(commit_hist);
  obs::StallGuard stall_guard("io/segment_commit");
  const std::string final_path = dir + "/" + final_name;
  const std::string tmp_path = final_path + ".tmp";
  {
    auto f = ops.create(tmp_path);
    write_all(*f, bytes.data(), bytes.size());
    f->sync();
    f->close();
  }
  ops.publish(tmp_path, final_path);
}

} // namespace

std::string segment_name(index_t shard, count_t seg_index) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "shard-%04lld-seg-%06lld.krnlseg",
                static_cast<long long>(shard),
                static_cast<long long>(seg_index));
  return buf;
}

count_t Manifest::total_edges() const {
  count_t total = 0;
  for (const auto& s : shards) total += s.edges;
  return total;
}

std::uint64_t write_segment(
    FileOps& ops, const std::string& dir, const SegmentHeader& header,
    const std::vector<std::pair<index_t, index_t>>& edges,
    std::uint64_t& chain) {
  KRONLAB_TRACE_SPAN("io", "seal_segment");
  KRONLAB_REQUIRE(header.num_edges ==
                      static_cast<count_t>(edges.size()),
                  "segment header/payload edge count mismatch");
  const std::size_t payload_bytes = edges.size() * kSegmentRecordBytes;
  std::string bytes(kSegmentHeaderBytes + payload_bytes +
                        sizeof(std::int64_t),
                    '\0');
  char* out = bytes.data();
  std::memcpy(out, kSegMagic, sizeof kSegMagic);
  const std::int64_t head[5] = {
      static_cast<std::int64_t>(header.spec_hash), header.shard,
      header.seg_index, header.first_edge, header.num_edges};
  std::memcpy(out + sizeof kSegMagic, head, sizeof head);
  char* rec = out + kSegmentHeaderBytes;
  for (const auto& [p, q] : edges) {
    std::memcpy(rec, &p, sizeof p);
    std::memcpy(rec + sizeof p, &q, sizeof q);
    rec += kSegmentRecordBytes;
  }
  const SegmentFolds folds = fold_segment_payload(
      out + kSegmentHeaderBytes, payload_bytes,
      {kFnvBasis, fnv1a64_words(head, sizeof head), chain});
  std::memcpy(rec, &folds.trailer, sizeof folds.trailer);
  write_sealed(ops, dir, segment_name(header.shard, header.seg_index),
               bytes);
  chain = folds.chain; // only now: a failed seal leaves the chain as is
  return folds.payload;
}

CheckedSegment check_segment(FileOps& ops, const std::string& path,
                             std::uint64_t chain) {
  KRONLAB_TRACE_SPAN("io", "read_segment");
  auto bytes = ops.read_file(path);
  if (!bytes) throw io_error("durable store: missing segment " + path);
  if (bytes->size() < kSegmentHeaderBytes ||
      std::memcmp(bytes->data(), kSegMagic, sizeof kSegMagic) != 0) {
    throw validation_error("durable store: " + path +
                           " is not a KRNLSEG1 segment (bad magic or "
                           "truncated header)");
  }
  std::int64_t head[5];
  std::memcpy(head, bytes->data() + sizeof kSegMagic, sizeof head);
  CheckedSegment seg;
  seg.header.spec_hash = static_cast<std::uint64_t>(head[0]);
  seg.header.shard = head[1];
  seg.header.seg_index = head[2];
  seg.header.first_edge = head[3];
  seg.header.num_edges = head[4];
  if (seg.header.shard < 0 || seg.header.seg_index < 0 ||
      seg.header.first_edge < 0 || seg.header.num_edges < 0 ||
      seg.header.num_edges > kMaxPlausible) {
    throw validation_error("durable store: " + path +
                           " has an implausible header (corrupt)");
  }
  // The record count must match the bytes actually present before any
  // size derived from it is trusted (2^40 records cannot overflow this).
  const auto payload_bytes =
      static_cast<std::size_t>(seg.header.num_edges) * kSegmentRecordBytes;
  const std::size_t whole =
      kSegmentHeaderBytes + payload_bytes + sizeof(std::int64_t);
  if (bytes->size() != whole) {
    throw validation_error(
        "durable store: " + path + " is torn or padded: its header claims " +
        std::to_string(seg.header.num_edges) + " records but it holds " +
        std::to_string(bytes->size()) + " bytes");
  }
  const SegmentFolds folds = fold_segment_payload(
      bytes->data() + kSegmentHeaderBytes, payload_bytes,
      {kFnvBasis, fnv1a64_words(head, sizeof head), chain});
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes->data() + whole - sizeof stored, sizeof stored);
  if (stored != folds.trailer) {
    throw validation_error("durable store: " + path +
                           " fails its FNV-1a checksum (corrupt segment)");
  }
  seg.payload_hash = folds.payload;
  seg.chain = folds.chain;
  seg.bytes = std::move(*bytes);
  return seg;
}

SegmentData read_segment(FileOps& ops, const std::string& path) {
  const CheckedSegment checked = check_segment(ops, path);
  SegmentData seg;
  seg.header = checked.header;
  seg.payload_hash = checked.payload_hash;
  seg.edges.reserve(static_cast<std::size_t>(checked.header.num_edges));
  checked.for_each_edge(
      [&](index_t p, index_t q) { seg.edges.emplace_back(p, q); });
  return seg;
}

void check_committed(
    FileOps& ops, const std::string& dir, std::uint64_t spec,
    index_t shard, const ShardProgress& prog,
    const std::function<void(const CheckedSegment&)>& visit) {
  static obs::Histogram& validate_hist =
      obs::histogram("io/segment_validate");
  std::uint64_t chain = kFnvBasis;
  count_t edges = 0;
  for (count_t g = 0; g < prog.segments; ++g) {
    obs::LatencyScope validate_latency(validate_hist);
    const std::string path = dir + "/" + segment_name(shard, g);
    const CheckedSegment seg = check_segment(ops, path, chain);
    if (seg.header.spec_hash != spec || seg.header.shard != shard ||
        seg.header.seg_index != g || seg.header.first_edge != edges) {
      throw validation_error("durable store: " + path +
                             " disagrees with the manifest's committed "
                             "range (corrupt store)");
    }
    chain = seg.chain;
    edges += seg.header.num_edges;
    if (visit) visit(seg);
  }
  if (edges != prog.edges || chain != prog.chain_hash) {
    throw validation_error(
        "durable store: shard " + std::to_string(shard) +
        " committed segments do not reproduce the manifest's cursor/"
        "chain hash (corrupt store)");
  }
}

void write_manifest(FileOps& ops, const std::string& dir,
                    const Manifest& man) {
  KRONLAB_TRACE_SPAN("io", "commit_manifest");
  std::string bytes(kManMagic, sizeof kManMagic);
  const std::int64_t head[5] = {
      kManifestVersion, static_cast<std::int64_t>(man.spec_hash),
      static_cast<std::int64_t>(man.shards.size()), man.segment_edges,
      man.total_edges()};
  append_words(bytes, head, 5);
  for (const auto& s : man.shards) {
    const std::int64_t rec[3] = {s.segments, s.edges,
                                 static_cast<std::int64_t>(s.chain_hash)};
    append_words(bytes, rec, 3);
  }
  const std::uint64_t hash = fnv1a64_words(bytes.data() + sizeof kManMagic,
                                     bytes.size() - sizeof kManMagic);
  const auto trailer = static_cast<std::int64_t>(hash);
  append_words(bytes, &trailer, 1);
  write_sealed(ops, dir, kManifestName, bytes);
}

std::optional<Manifest> read_manifest(FileOps& ops,
                                      const std::string& dir) {
  const std::string path = dir + "/" + kManifestName;
  const auto bytes = ops.read_file(path);
  if (!bytes) return std::nullopt;
  if (bytes->size() < sizeof kManMagic ||
      std::memcmp(bytes->data(), kManMagic, sizeof kManMagic) != 0) {
    throw validation_error("durable store: " + path +
                           " is not a KRNLMAN1 manifest (bad magic)");
  }
  // The manifest is only ever published whole (atomic rename), so any
  // checksum failure here means corruption, not a crash window.
  if (bytes->size() < sizeof kManMagic + sizeof(std::int64_t)) {
    throw validation_error("durable store: " + path + " is truncated");
  }
  const std::uint64_t computed =
      fnv1a64_words(bytes->data() + sizeof kManMagic,
              bytes->size() - sizeof kManMagic - sizeof(std::int64_t));
  std::int64_t stored = 0;
  std::memcpy(&stored, bytes->data() + bytes->size() - sizeof stored,
              sizeof stored);
  if (static_cast<std::uint64_t>(stored) != computed) {
    throw validation_error("durable store: " + path +
                           " fails its FNV-1a checksum (corrupt manifest)");
  }
  WordReader r{*bytes, sizeof kManMagic, path};
  const std::int64_t version = r.next("version");
  if (version != kManifestVersion) {
    throw validation_error("durable store: " + path +
                           " has unsupported manifest version " +
                           std::to_string(version));
  }
  Manifest man;
  man.spec_hash = static_cast<std::uint64_t>(r.next("spec hash"));
  const std::int64_t shards = r.next("shard count");
  man.segment_edges = r.next("segment edges");
  const count_t total = r.next("total edges");
  if (shards < 0 || shards > (std::int64_t{1} << 20) ||
      man.segment_edges <= 0 || man.segment_edges > kMaxPlausible) {
    throw validation_error("durable store: " + path +
                           " has implausible shape (corrupt)");
  }
  man.shards.resize(static_cast<std::size_t>(shards));
  for (auto& s : man.shards) {
    s.segments = r.next("shard segments");
    s.edges = r.next("shard edges");
    s.chain_hash = static_cast<std::uint64_t>(r.next("shard chain hash"));
    if (s.segments < 0 || s.edges < 0 || s.segments > kMaxPlausible ||
        s.edges > kMaxPlausible) {
      throw validation_error("durable store: " + path +
                             " has implausible shard progress (corrupt)");
    }
  }
  if (man.total_edges() != total) {
    throw validation_error("durable store: " + path +
                           " total-edges field disagrees with its shards");
  }
  return man;
}

ScanResult scan_store(FileOps& ops, const std::string& dir,
                      const Manifest& expected) {
  KRONLAB_TRACE_SPAN("io", "scan_store");
  ScanResult res;
  const auto present = read_manifest(ops, dir);
  if (present) {
    if (present->spec_hash != expected.spec_hash) {
      throw validation_error(
          "durable store: " + dir +
          " was generated from a different spec (manifest spec hash "
          "mismatch) — refusing to resume into it");
    }
    if (present->shards.size() != expected.shards.size() ||
        present->segment_edges != expected.segment_edges) {
      throw validation_error(
          "durable store: " + dir +
          " has a different shard/segment layout (shards=" +
          std::to_string(present->shards.size()) + " segment_edges=" +
          std::to_string(present->segment_edges) +
          ") — resume must reuse the original layout");
    }
    res.manifest = *present;
  } else {
    res.manifest = expected; // fresh store
  }

  // Index every file in the directory up front.
  std::vector<std::string> names;
  {
    auto all = ops.list_dir(dir);
    names.assign(all.begin(), all.end());
  }
  for (const auto& name : names) {
    if (name.size() >= 4 && name.rfind(".tmp") == name.size() - 4) {
      obs::log(obs::LogLevel::warn, "io", "scan_discard_tmp")
          .field("dir", dir)
          .field("file", name);
      ops.remove(dir + "/" + name); // crash leftovers, never meaningful
      ++res.discarded_files;
    }
  }

  bool adopted_any = false;
  for (index_t s = 0;
       s < static_cast<index_t>(res.manifest.shards.size()); ++s) {
    auto& prog = res.manifest.shards[static_cast<std::size_t>(s)];
    // 1. Every committed segment must verify and chain-hash to the
    //    manifest record.
    check_committed(ops, dir, expected.spec_hash, s, prog);
    res.verified_segments += prog.segments;
    // 2. Adopt the crash window: the exact next sealed segment, if whole.
    for (;;) {
      const std::string next_name = segment_name(s, prog.segments);
      if (std::find(names.begin(), names.end(), next_name) ==
          names.end()) {
        break;
      }
      const std::string path = dir + "/" + next_name;
      std::optional<CheckedSegment> seg;
      try {
        seg = check_segment(ops, path, prog.chain_hash);
      } catch (const error&) {
        // torn or corrupt — regenerate it instead
      }
      if (!seg || seg->header.spec_hash != expected.spec_hash ||
          seg->header.shard != s || seg->header.seg_index != prog.segments ||
          seg->header.first_edge != prog.edges) {
        // The crash window's next segment is torn, corrupt, or from a
        // different spec: drop it and let generation redo the range.
        obs::log(obs::LogLevel::warn, "io", "scan_reject_next_segment")
            .field("path", path)
            .field("shard", static_cast<std::int64_t>(s));
        ops.remove(path);
        ++res.discarded_files;
        break;
      }
      prog.chain_hash = seg->chain;
      prog.edges += seg->header.num_edges;
      prog.segments += 1;
      ++res.adopted_segments;
      adopted_any = true;
      trace::instant("io", "resume_adopt_segment");
    }
    // 3. Anything of this shard past the (possibly extended) committed
    //    range is stale — delete so a later seal can never collide with
    //    a file from another life.
    for (const auto& name : names) {
      if (name.rfind(shard_prefix(s), 0) != 0) continue;
      if (name.size() < 8 || name.rfind(".krnlseg") != name.size() - 8) {
        continue;
      }
      // shard-XXXX-seg-NNNNNN.krnlseg → NNNNNN
      const auto seg_at = name.find("-seg-");
      if (seg_at == std::string::npos) continue;
      const count_t idx = std::strtoll(name.c_str() + seg_at + 5, nullptr, 10);
      if (idx >= prog.segments) {
        obs::log(obs::LogLevel::warn, "io", "scan_discard_stale_segment")
            .field("dir", dir)
            .field("file", name)
            .field("committed", static_cast<std::int64_t>(prog.segments));
        ops.remove(dir + "/" + name);
        ++res.discarded_files;
      }
    }
  }
  if (adopted_any) {
    write_manifest(ops, dir, res.manifest); // re-commit the adopted state
  }
  return res;
}

} // namespace kronlab::io
