#include "kronlab/dist/aggregator.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include "kronlab/common/error.hpp"
#include "kronlab/common/registry.hpp"
#include "kronlab/obs/stats.hpp"
#include "kronlab/obs/trace.hpp"

namespace kronlab::dist {

namespace {

/// Modeled per-wire-message envelope cost, used for the bytes_saved
/// counter.  In the simulated runtime each Comm::send pays a vector
/// allocation, a deque node, and a mailbox lock round; in an MPI port it
/// would be the eager-protocol header plus an injection-rate slot.  64
/// bytes is the conventional ballpark for both — the counter is a model,
/// not a measurement, and DESIGN.md §13 says so.
constexpr count_t kEnvelopeBytes = 64;
constexpr count_t kWordBytes = static_cast<count_t>(sizeof(word_t));

const char* reason_name(int r) {
  switch (r) {
    case 0: return "capacity";
    case 1: return "deadline";
    default: return "manual";
  }
}

} // namespace

AggregatorOptions AggregatorOptions::from_env() {
  AggregatorOptions opt;
  const char* env = std::getenv(kronlab::env::kNoAggregate);
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    opt.enabled = false;
  }
  return opt;
}

void AggregatorStats::merge(const AggregatorStats& other) {
  frames_enqueued += other.frames_enqueued;
  rows_coalesced += other.rows_coalesced;
  single_flushes += other.single_flushes;
  batches_sent += other.batches_sent;
  capacity_flushes += other.capacity_flushes;
  deadline_flushes += other.deadline_flushes;
  manual_flushes += other.manual_flushes;
  bytes_saved += other.bytes_saved;
}

Aggregator::Aggregator(Comm& comm, int tag, AggregatorOptions opt)
    : comm_(comm), tag_(tag), opt_(opt),
      buffers_(static_cast<std::size_t>(comm.size())) {
  KRONLAB_REQUIRE(opt_.capacity_words > 0,
                  "aggregator capacity must be positive");
}

Aggregator::~Aggregator() { flush_all(); }

bool Aggregator::is_batch(const Message& msg) {
  return !msg.empty() && msg.front() == kBatchMagic;
}

std::vector<Message> Aggregator::unpack(const Message& msg) {
  KRONLAB_REQUIRE(msg.size() >= 2 && msg[0] == kBatchMagic,
                  "malformed aggregator batch header");
  const auto count = msg[1];
  KRONLAB_REQUIRE(count >= 0, "malformed aggregator batch count");
  std::vector<Message> frames;
  frames.reserve(static_cast<std::size_t>(count));
  std::size_t i = 2;
  for (word_t f = 0; f < count; ++f) {
    KRONLAB_REQUIRE(i < msg.size(), "truncated aggregator batch");
    const auto len = msg[i++];
    KRONLAB_REQUIRE(len >= 0 && i + static_cast<std::size_t>(len) <=
                                    msg.size(),
                    "malformed aggregator frame length");
    frames.emplace_back(msg.begin() + static_cast<std::ptrdiff_t>(i),
                        msg.begin() + static_cast<std::ptrdiff_t>(
                                          i + static_cast<std::size_t>(len)));
    i += static_cast<std::size_t>(len);
  }
  KRONLAB_REQUIRE(i == msg.size(), "trailing words after aggregator batch");
  return frames;
}

void Aggregator::enqueue(index_t to, Message frame) {
  KRONLAB_REQUIRE(!frame.empty() && frame.front() >= 0,
                  "aggregated frames must start with a non-negative word");
  ++stats_.frames_enqueued;
  if (!opt_.enabled) {
    // Escape hatch: the per-row baseline.  Every frame is its own wire
    // message, accounted as a single flush so the enqueued ==
    // coalesced + singles invariant holds in both modes.
    ++stats_.single_flushes;
    comm_.send(to, tag_, std::move(frame));
    return;
  }
  auto& buf = buffers_[static_cast<std::size_t>(to)];
  if (!buf.frames.empty() &&
      buf.words + frame.size() > opt_.capacity_words) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
  if (buf.frames.empty()) buf.oldest = clock::now();
  buf.words += frame.size();
  buf.frames.push_back(std::move(frame));
  if (buf.words >= opt_.capacity_words) {
    flush_buffer(to, buf, FlushReason::capacity);
  }
}

void Aggregator::flush_buffer(index_t to, Buffer& buf, FlushReason reason) {
  if (buf.frames.empty()) return;
  switch (reason) {
    case FlushReason::capacity: ++stats_.capacity_flushes; break;
    case FlushReason::deadline: ++stats_.deadline_flushes; break;
    case FlushReason::manual: ++stats_.manual_flushes; break;
  }
  static obs::Counter& flush_counter = obs::counter("dist/agg_flushes");
  flush_counter.add();
  static obs::Histogram& flush_hist = obs::histogram("dist/agg_flush");
  obs::LatencyScope flush_latency(flush_hist);
  if (trace::enabled()) {
    trace::instant(
        "dist", "agg/flush",
        trace::intern("rank=" + std::to_string(comm_.rank()) +
                      " dest=" + std::to_string(to) +
                      " frames=" + std::to_string(buf.frames.size()) +
                      " words=" + std::to_string(buf.words) + " reason=" +
                      reason_name(static_cast<int>(reason))));
  }
  if (buf.frames.size() == 1) {
    // A lone frame ships raw — zero framing overhead, byte-identical to
    // the unaggregated path.
    ++stats_.single_flushes;
    comm_.send(to, tag_, std::move(buf.frames.front()));
  } else {
    const auto n = static_cast<count_t>(buf.frames.size());
    Message batch;
    batch.reserve(2 + buf.frames.size() + buf.words);
    batch.push_back(kBatchMagic);
    batch.push_back(n);
    for (auto& frame : buf.frames) {
      batch.push_back(static_cast<word_t>(frame.size()));
      batch.insert(batch.end(), frame.begin(), frame.end());
    }
    stats_.rows_coalesced += n;
    ++stats_.batches_sent;
    // n frames in one envelope instead of n: n-1 envelopes saved, minus
    // the batch header (magic + count + one length word per frame).
    stats_.bytes_saved +=
        (n - 1) * kEnvelopeBytes - (2 + n) * kWordBytes;
    comm_.send(to, tag_, std::move(batch));
  }
  buf.frames.clear();
  buf.words = 0;
}

void Aggregator::flush(index_t to) {
  flush_buffer(to, buffers_[static_cast<std::size_t>(to)],
               FlushReason::manual);
}

void Aggregator::flush_all() {
  for (index_t r = 0; r < static_cast<index_t>(buffers_.size()); ++r) {
    flush_buffer(r, buffers_[static_cast<std::size_t>(r)],
                 FlushReason::manual);
  }
}

std::optional<Aggregator::clock::time_point> Aggregator::next_deadline()
    const {
  std::optional<clock::time_point> next;
  for (const auto& buf : buffers_) {
    if (buf.frames.empty()) continue;
    const auto due = buf.oldest + opt_.deadline;
    if (!next || due < *next) next = due;
  }
  return next;
}

void Aggregator::poll() {
  const auto now = clock::now();
  for (index_t r = 0; r < static_cast<index_t>(buffers_.size()); ++r) {
    auto& buf = buffers_[static_cast<std::size_t>(r)];
    if (!buf.frames.empty() && now >= buf.oldest + opt_.deadline) {
      flush_buffer(r, buf, FlushReason::deadline);
    }
  }
}

std::optional<std::pair<index_t, std::vector<Message>>>
Aggregator::recv_frames(std::chrono::milliseconds timeout) {
  auto got = comm_.recv_any(tag_, timeout);
  if (!got) return std::nullopt;
  if (is_batch(got->second)) {
    return std::make_pair(got->first, unpack(got->second));
  }
  std::vector<Message> one;
  one.push_back(std::move(got->second));
  return std::make_pair(got->first, std::move(one));
}

void Aggregator::publish_metrics() const {
  static constexpr std::pair<const char*, count_t AggregatorStats::*>
      kTotals[] = {
          {"dist/agg_frames_enqueued", &AggregatorStats::frames_enqueued},
          {"dist/agg_rows_coalesced", &AggregatorStats::rows_coalesced},
          {"dist/agg_single_flushes", &AggregatorStats::single_flushes},
          {"dist/agg_batches_sent", &AggregatorStats::batches_sent},
          {"dist/agg_capacity_flushes", &AggregatorStats::capacity_flushes},
          {"dist/agg_deadline_flushes", &AggregatorStats::deadline_flushes},
          {"dist/agg_manual_flushes", &AggregatorStats::manual_flushes},
          {"dist/agg_bytes_saved", &AggregatorStats::bytes_saved},
      };
  if (!obs::stats_enabled()) return;
  for (const auto& [name, field] : kTotals) {
    obs::counter(name).add(static_cast<std::uint64_t>(stats_.*field));
  }
}

} // namespace kronlab::dist
