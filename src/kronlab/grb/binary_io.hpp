// kronlab/grb/binary_io.hpp
//
// Binary CSR serialization.
//
// The paper's §I storage argument: stochastic generators must persist the
// full generated graph to reuse it, while nonstochastic Kronecker graphs
// are reproducible from their (tiny) factors.  kronlab therefore ships a
// compact binary format for *factors* — persist kilobytes, regenerate the
// massive product deterministically.
//
// Format (little-endian 64-bit words):
//   magic "KRNLCSR2" | nrows | ncols | nnz | row_ptr[nrows+1]
//   | col_idx[nnz] | vals[nnz] | fnv1a64(header..vals bytes)
//
// The trailing word is an FNV-1a checksum of every byte between the magic
// and the checksum itself, so silent corruption (the failure mode the
// paper lineage's regenerate-and-validate workflow is built to catch) is
// detected at load time instead of producing a garbage CSR.  Legacy
// checksum-less "KRNLCSR1" files are accepted only when the caller opts
// in via ReadOptions::allow_legacy_v1 — an unchecksummed read silently
// defeats the corruption-detection story, so it must be a visible,
// per-call decision, never a default.
//
// A second envelope, "KRNLCKP1", wraps a metadata word vector plus an
// embedded CSR — the checkpoint format of the fault-tolerant distributed
// pipeline (dist/sharded.hpp).  The metadata words carry their own FNV-1a
// checksum; the embedded CSR is protected by its KRNLCSR2 checksum.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "kronlab/common/types.hpp"
#include "kronlab/grb/csr.hpp"

namespace kronlab::grb {

/// 64-bit FNV-1a over a byte range (the checksum used by both envelopes).
/// Inline so a fixed-size call (the stream validator hashes one word per
/// edge) unrolls at the call site.
[[nodiscard]] inline std::uint64_t fnv1a64(
    const void* data, std::size_t nbytes,
    std::uint64_t basis = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Read-side policy knobs.
struct ReadOptions {
  /// Accept legacy checksum-less KRNLCSR1 files.  Off by default: without
  /// a checksum, corruption reads as a (possibly invalid) CSR instead of
  /// a typed error.  Rejected V1 files produce an io_error naming this
  /// flag so the operator knows the escape hatch exists.
  bool allow_legacy_v1 = false;
};

void write_binary(std::ostream& out, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary(std::istream& in,
                                       const ReadOptions& opt = {});

void write_binary_file(const std::string& path, const Csr<count_t>& a);
[[nodiscard]] Csr<count_t> read_binary_file(const std::string& path,
                              const ReadOptions& opt = {});

/// Checksummed snapshot: free-form metadata words + one CSR payload.
struct SnapshotEnvelope {
  std::vector<std::int64_t> meta;
  Csr<count_t> payload;
};

void write_snapshot(std::ostream& out, const SnapshotEnvelope& snap);
[[nodiscard]] SnapshotEnvelope read_snapshot(std::istream& in);

/// File variants.  write_snapshot_file is atomic: it writes `path.tmp`
/// and renames, so a crash mid-checkpoint never leaves a torn file under
/// the final name.
void write_snapshot_file(const std::string& path,
                         const SnapshotEnvelope& snap);
[[nodiscard]] SnapshotEnvelope read_snapshot_file(const std::string& path);

} // namespace kronlab::grb
