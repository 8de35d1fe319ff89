// kronlab/io/durable.hpp
//
// Durable sharded edge output: KRNLSEG1 segments + a KRNLMAN1 manifest.
//
// The crash-tolerance backbone of extreme-scale streaming generation
// (io/stream_gen.hpp): a multi-hour run must survive a kill at any
// instruction boundary losing at most one uncommitted segment.
//
// KRNLSEG1 segment file (little-endian 64-bit words after an 8-byte
// magic):
//
//   "KRNLSEG1" | spec_hash | shard | seg_index | first_edge | num_edges
//   | (p, q) * num_edges | fnv1a64_words(header..payload)
//
// Fixed-size binary edge records; the trailing FNV-1a word covers every
// word between the magic and itself, so a torn or bit-flipped segment is
// detected on read.  `first_edge` is the edge ordinal within the shard's
// deterministic stream — segments of one shard tile [0, edges) exactly.
//
// Each segment's bytes pass through the CPU once per use: sealing folds
// the payload hash, the trailer and the shard's chain in one loop
// (fold_segment_payload), and every read checks magic, header, length,
// trailer and chain straight from the bytes (check_segment) without
// decoding a record.
//
// Commit protocol (all through io/file_ops.hpp):
//
//   1. the segment is written to `<final>.tmp`, fsync'd, and sealed by an
//      atomic rename to its final name — a crash mid-write leaves only a
//      `.tmp` the resume scan deletes;
//   2. the manifest is rewritten (same write-temp → fsync → rename
//      dance) recording the new per-shard committed state.
//
// KRNLMAN1 manifest:
//
//   "KRNLMAN1" | version | spec_hash | shards | segment_edges
//   | total_edges | per shard: (segments, edges, chain_hash)
//   | fnv1a64_words(all preceding words)
//
// `chain_hash` is the word-folded FNV-1a of the shard's committed
// payload words, folded segment after segment — the checksum over the
// concatenated committed segments that the kill/resume matrix compares
// against an uninterrupted run.  The stream cursor of shard s is simply
// (s, edges_s): generation resumes at that edge ordinal.
//
// Resume invariants (scan_store):
//   * the manifest, if present, must parse, checksum, and match the
//     spec hash / shard count / segment size of the resuming run;
//   * every committed segment must exist, checksum, and chain-hash to
//     the manifest's record (check_committed, the loop verify_store
//     shares) — anything else is a validation_error (the store is
//     corrupt, not merely behind);
//   * a sealed segment PAST the committed range is adopted iff it is the
//     exact next segment (index, first_edge, spec hash, checksum all
//     match) — the crash-between-seal-and-manifest-commit window;
//     otherwise it is deleted and regenerated;
//   * `.tmp` files are always deleted.

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/types.hpp"
#include "kronlab/io/file_ops.hpp"

namespace kronlab::io {

/// FNV-1a offset basis — chain hashes start here.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Word-folded FNV-1a: one xor-multiply per little-endian int64 word
/// instead of per byte.  Every durable-store checksum and chain hash
/// uses this fold — resume re-verifies the whole committed prefix, so
/// the hash sits on the restart hot path, where byte-serial FNV would
/// make every restart pay a large fraction of a cold run just
/// re-hashing (bench_streaming's `resume_scan` section).  A flipped bit
/// still cascades through every later word.  `nbytes` must be a
/// multiple of 8: the formats are whole-word by construction.
[[nodiscard]] inline std::uint64_t fnv1a64_words(
    const void* data, std::size_t nbytes,
    std::uint64_t basis = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i + 8 <= nbytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kFnvPrime;
  }
  return h;
}

/// The three FNV-1a folds a segment payload feeds: the payload hash
/// (started from the basis), the segment trailer (started from the fold
/// of the header words — FNV-1a is sequential, so that is the fold of
/// header..payload) and the shard's chain (started from the chain so
/// far).  fold_segment_payload runs them as three independent multiply
/// chains over one read of the words.
struct SegmentFolds {
  std::uint64_t payload = kFnvBasis;
  std::uint64_t trailer = kFnvBasis;
  std::uint64_t chain = kFnvBasis;
};

[[nodiscard]] inline SegmentFolds fold_segment_payload(const void* data,
                                                       std::size_t nbytes,
                                                       SegmentFolds f) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i + 8 <= nbytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    f.payload = (f.payload ^ w) * kFnvPrime;
    f.trailer = (f.trailer ^ w) * kFnvPrime;
    f.chain = (f.chain ^ w) * kFnvPrime;
  }
  return f;
}

/// Byte layout of a KRNLSEG1 file: magic + 5 header words, 16-byte
/// records, one trailer word.
inline constexpr std::size_t kSegmentHeaderBytes = 8 + 5 * 8;
inline constexpr std::size_t kSegmentRecordBytes = 16;

struct SegmentHeader {
  std::uint64_t spec_hash = 0;
  index_t shard = 0;
  count_t seg_index = 0;  ///< 0-based, dense per shard
  count_t first_edge = 0; ///< shard-stream ordinal of the first record
  count_t num_edges = 0;
};

/// One decoded segment.  `payload_hash` is the FNV-1a over the payload
/// words alone (the unit the manifest chains).
struct SegmentData {
  SegmentHeader header;
  std::vector<std::pair<index_t, index_t>> edges;
  std::uint64_t payload_hash = kFnvBasis;
};

/// One segment file whose bytes passed every check — magic, plausible
/// header, exact length, trailer — and were left undecoded.  `chain` is
/// the chain handed to check_segment, folded on over this payload.
struct CheckedSegment {
  SegmentHeader header;
  std::string bytes; ///< the whole file
  std::uint64_t payload_hash = kFnvBasis;
  std::uint64_t chain = kFnvBasis;

  /// f(p, q) for every record, in stream order, straight from `bytes`.
  template <class F>
  void for_each_edge(F&& f) const {
    const char* rec = bytes.data() + kSegmentHeaderBytes;
    for (count_t e = 0; e < header.num_edges;
         ++e, rec += kSegmentRecordBytes) {
      std::int64_t pq[2];
      std::memcpy(pq, rec, sizeof pq);
      f(pq[0], pq[1]);
    }
  }
};

/// Final name of shard `shard`'s segment `seg_index` inside the store
/// directory ("shard-0003-seg-000042.krnlseg").
[[nodiscard]] std::string segment_name(index_t shard, count_t seg_index);

/// Write + seal one segment (write-temp → fsync → atomic rename).
/// Returns the payload FNV-1a and, once the seal has committed, folds
/// the payload into `chain`; a throw (or a simulated kill) leaves
/// `chain` untouched.  Throws io_error on any failed step; the final
/// name is never visible unless every byte is on disk.
[[nodiscard]] std::uint64_t write_segment(
    FileOps& ops, const std::string& dir, const SegmentHeader& header,
    const std::vector<std::pair<index_t, index_t>>& edges,
    std::uint64_t& chain);

/// Read one segment file and check its bytes without decoding them,
/// folding its payload onto `chain`.  Throws io_error when the file is
/// missing/unreadable and validation_error when it is torn, oversized
/// or fails its checksum — the record count is checked against the
/// file's length before anything is allocated for it.
[[nodiscard]] CheckedSegment check_segment(FileOps& ops,
                                           const std::string& path,
                                           std::uint64_t chain = kFnvBasis);

/// check_segment plus a decode of the records.
[[nodiscard]] SegmentData read_segment(FileOps& ops,
                                       const std::string& path);

/// Per-shard committed state.
struct ShardProgress {
  count_t segments = 0; ///< committed (sealed + manifest-recorded)
  count_t edges = 0;    ///< committed edge records = resume cursor
  std::uint64_t chain_hash = kFnvBasis; ///< FNV over committed payloads
};

struct Manifest {
  std::uint64_t spec_hash = 0;
  count_t segment_edges = 0; ///< records per segment (last may be short)
  std::vector<ShardProgress> shards;

  [[nodiscard]] count_t total_edges() const;
};

/// Atomically replace the store's manifest (write-temp → fsync → rename).
void write_manifest(FileOps& ops, const std::string& dir,
                    const Manifest& man);

/// Read + verify the manifest; nullopt when none exists yet, io_error /
/// validation_error when present but unreadable / corrupt.
[[nodiscard]] std::optional<Manifest> read_manifest(FileOps& ops,
                                                    const std::string& dir);

/// The integrity loop over shard `shard`'s committed segments
/// 0..prog.segments-1, shared by scan_store and verify_store: each must
/// pass check_segment, carry `spec` and its own shard and index, and
/// start where the previous one ended; together they must end at
/// prog.edges with prog.chain_hash.  `visit`, when set, sees each segment
/// right after its own checks pass.  Reads each segment once and writes
/// nothing.  Throws validation_error on any disagreement and io_error on
/// a missing segment.
void check_committed(
    FileOps& ops, const std::string& dir, std::uint64_t spec,
    index_t shard, const ShardProgress& prog,
    const std::function<void(const CheckedSegment&)>& visit = {});

/// Outcome of a resume scan.
struct ScanResult {
  Manifest manifest;
  count_t adopted_segments = 0;   ///< sealed-but-uncommitted, re-committed
  count_t discarded_files = 0;    ///< tmp / stale files deleted
  count_t verified_segments = 0;  ///< committed segments re-checksummed
};

/// Enforce the resume invariants on `dir` (see file comment) and return
/// the authoritative committed state.  `expected` carries the resuming
/// run's spec hash / shard count / segment size; a mismatch against a
/// present manifest throws validation_error (resuming a different spec
/// into an existing store is never silently "fixed").  When no manifest
/// exists the store is treated as fresh.
[[nodiscard]] ScanResult scan_store(FileOps& ops, const std::string& dir,
                                    const Manifest& expected);

} // namespace kronlab::io
