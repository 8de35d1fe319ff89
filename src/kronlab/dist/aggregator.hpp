// kronlab/dist/aggregator.hpp
//
// Per-destination message aggregation for the distributed runtime — the
// Grappa RDMAAggregator idiom scaled to kronlab's simulated ranks.
//
// Why it exists: the ghost-row exchange in dist/sharded.cpp is naturally
// row-granular — one request, one row payload, one ack per ghost row —
// and at high rank counts the per-message envelope cost (an MPI header
// and injection-rate slot in production; a mailbox lock + allocation in
// the simulated runtime) dominates the bytes actually moved.  Grappa's
// answer is to coalesce many small application messages bound for the
// same destination into large buffers that flush when full or when the
// oldest buffered message has waited too long; the application keeps its
// small-message programming model and the wire carries big frames.
//
// This layer does exactly that over Comm: callers enqueue *frames*
// (ordinary Message payloads) per destination rank; the aggregator packs
// them into one batched wire message per flush.  Flushes happen on
//
//   * capacity  — a destination's buffered payload reaches
//                 AggregatorOptions::capacity_words,
//   * deadline  — the oldest frame buffered for a destination has aged
//                 past AggregatorOptions::deadline (poll() / the caller's
//                 event loop drives this; the aggregator owns no thread),
//   * flush     — an explicit flush()/flush_all() at a protocol phase
//                 boundary (requests posted, retry sweep finished).
//
// A buffer holding exactly one frame is sent raw — byte-identical to the
// unaggregated send — so aggregation never pessimizes sparse traffic.
// Batches are framed [kBatchMagic, n, {len, words...} x n]; raw frames
// are required to start with a non-negative word (the exchange protocol
// starts every frame with its positive epoch), which is what makes the
// magic unambiguous on the receive side.
//
// Delivery guarantees are exactly Comm's: frames for one destination are
// delivered in enqueue order (they ride one tag in FIFO order), and a
// dropped batch drops all its frames — the exchange's epoch/seq retry
// protocol treats that the same as today's dropped single messages, and
// its per-row dedup absorbs a retried batch row by row.
//
// `enabled = false` (or KRONLAB_NO_AGGREGATE=1 via from_env()) is the
// A/B escape hatch: every frame goes out immediately as its own wire
// message — the per-row baseline bench_distributed compares against.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "kronlab/common/registry.hpp"
#include "kronlab/common/types.hpp"
#include "kronlab/dist/comm.hpp"

namespace kronlab::dist {

/// Flush policy knobs.  Defaults are sized for the ghost-row exchange:
/// 2048-word (16 KiB) buffers keep several row payloads per wire message
/// on the bench instances, and a 1 ms deadline bounds the latency a
/// buffered frame can add to the exchange's retry clocks (protocol
/// timeouts start at 50 ms).
struct AggregatorOptions {
  bool enabled = true;
  std::size_t capacity_words = 2048;       ///< flush-on-capacity threshold
  std::chrono::microseconds deadline{1000}; ///< flush-on-age threshold

  /// Process defaults: aggregation on unless KRONLAB_NO_AGGREGATE is set
  /// to a non-empty, non-"0" value (CI's fault-stress job runs the fault
  /// suites both ways through this knob).
  [[nodiscard]] static AggregatorOptions from_env();
};

/// Flush-reason and coalescing counters, surfaced through obs/stats
/// (dist/agg_* counters) and ExchangeStats/RecoveryReport.
struct AggregatorStats {
  count_t frames_enqueued = 0;  ///< frames handed to enqueue()
  count_t rows_coalesced = 0;   ///< frames that shipped inside a batch
  count_t single_flushes = 0;   ///< frames that shipped raw (buffer of 1)
  count_t batches_sent = 0;     ///< multi-frame wire messages sent
  count_t capacity_flushes = 0; ///< flushes triggered by capacity_words
  count_t deadline_flushes = 0; ///< flushes triggered by frame age
  count_t manual_flushes = 0;   ///< flush()/flush_all()/destructor flushes
  count_t bytes_saved = 0;      ///< modeled envelope bytes not sent

  /// Fold `other` into this (plain sums).
  void merge(const AggregatorStats& other);
};

/// Per-destination frame aggregator over one Comm tag.  Single-threaded
/// by design: it lives inside one rank's protocol event loop, like every
/// Comm handle.  The destructor flushes anything still buffered.
class Aggregator {
public:
  using clock = std::chrono::steady_clock;

  Aggregator(Comm& comm, int tag, AggregatorOptions opt = {});
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Buffer `frame` for rank `to`; sends immediately when aggregation is
  /// disabled, and flushes the destination's buffer first when adding the
  /// frame would exceed capacity_words (capacity flush).
  void enqueue(index_t to, Message frame);

  /// Flush one destination / all destinations now (manual flush).
  void flush(index_t to);
  void flush_all();

  /// Earliest instant at which a buffered frame crosses the deadline —
  /// the caller caps its event-loop wait with this.  nullopt when nothing
  /// is buffered.
  [[nodiscard]] std::optional<clock::time_point> next_deadline() const;

  /// Flush every destination whose oldest frame has aged past the
  /// deadline (deadline flush).  Call on every event-loop wakeup.
  void poll();

  /// Receive the next wire message on the tag (via Comm::recv_any) and
  /// return its frames: a batch is unpacked into its constituent frames,
  /// a raw message comes back as a single frame.  Unpacking is always on,
  /// so mixed aggregated / per-row peers interoperate.
  std::optional<std::pair<index_t, std::vector<Message>>> recv_frames(
      std::chrono::milliseconds timeout);

  [[nodiscard]] const AggregatorStats& stats() const { return stats_; }

  /// Add stats() to the dist/agg_* counters of obs/stats (no-op while
  /// stats are off).
  void publish_metrics() const;

  // -- wire format (exposed for tests and the protocol's validation) ----

  /// First word of a batched wire message.  Raw frames must start with a
  /// non-negative word.
  static constexpr word_t kBatchMagic = magic::kBatchWord;

  [[nodiscard]] static bool is_batch(const Message& msg);

  /// Split a batched message into frames; throws protocol-shaped
  /// invalid_argument (KRONLAB_REQUIRE) on malformed framing.
  [[nodiscard]] static std::vector<Message> unpack(const Message& msg);

private:
  struct Buffer {
    std::vector<Message> frames;
    std::size_t words = 0;             ///< payload words buffered
    clock::time_point oldest;          ///< enqueue time of frames.front()
  };

  enum class FlushReason { capacity, deadline, manual };
  void flush_buffer(index_t to, Buffer& buf, FlushReason reason);

  Comm& comm_;
  int tag_;
  AggregatorOptions opt_;
  AggregatorStats stats_;
  // Destination buffers, keyed by rank.  A rank count is small (the
  // simulated runtime tops out at tens of ranks), so a flat vector
  // indexed by rank beats a hash map on every enqueue.
  std::vector<Buffer> buffers_;
};

} // namespace kronlab::dist
