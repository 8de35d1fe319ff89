// kronlab/serve/transport.hpp
//
// Byte transports for the query daemon: TCP and Unix-domain stream
// sockets behind one small blocking interface, a listener that can be
// woken for graceful shutdown, an in-process socketpair for tests and
// benches, and a deterministic fault shim (the dist/comm FaultPlan idiom
// applied at the socket layer) that drops or delays whole writes.
//
// The interface is deliberately minimal — read exactly n bytes with a
// deadline, write all n bytes, wake a blocked reader — because the
// protocol layer above it (read_frame / write_frame) does all framing.
// One frame is always written with a single write_all call, which is what
// makes the fault shim's whole-write drop model a lost request rather
// than a torn stream.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kronlab/common/sync.hpp"
#include "kronlab/serve/protocol.hpp"

namespace kronlab::serve {

/// "Block forever" sentinel for read deadlines.
inline constexpr std::chrono::milliseconds no_deadline{-1};

/// A connected byte stream.  Implementations are safe for one concurrent
/// reader plus one concurrent writer (the server's response writes, from
/// whichever reader thread runs the frame, hold a per-connection write
/// mutex above this layer).
class Transport {
public:
  virtual ~Transport() = default;

  /// Read exactly `n` bytes into `buf`.  Returns false on clean EOF
  /// before the first byte (peer closed between messages); throws
  /// io_error on EOF mid-read or a socket error, timeout_error when
  /// `deadline` elapses first (no_deadline blocks forever).
  virtual bool read_exact(void* buf, std::size_t n,
                          std::chrono::milliseconds deadline) = 0;

  /// Write all `n` bytes; throws io_error on failure.
  virtual void write_all(const void* buf, std::size_t n) = 0;

  /// Half-close the read side: a blocked read_exact returns as if the
  /// peer closed, while in-flight responses can still be written.  This
  /// is the graceful-drain hook (see Server::stop).
  virtual void shutdown_read() = 0;

  /// Half-close the write side: the peer reads EOF after everything
  /// already written, while this end keeps reading.  Clients use it to
  /// say "no more requests" and then drain the remaining responses.
  virtual void shutdown_write() = 0;

  /// Full close: wake every blocked operation; subsequent calls fail.
  virtual void shutdown() = 0;
};

/// A bound, listening socket.  accept() blocks until a connection arrives
/// or close() is called from another thread (then it returns nullptr, as
/// it does for a closed listener fd).
class Listener {
public:
  virtual ~Listener() = default;
  [[nodiscard]] virtual std::unique_ptr<Transport> accept() = 0;
  virtual void close() = 0;
  /// Bound TCP port (useful with port 0 = ephemeral); -1 for Unix.
  [[nodiscard]] virtual int port() const = 0;
};

/// Listen on 127.0.0.1:`port` (0 picks an ephemeral port — read it back
/// with Listener::port()).  Throws io_error on bind failure.
[[nodiscard]] std::unique_ptr<Listener> listen_tcp(int port);

/// Listen on a Unix-domain socket at `path` (unlinked first if present).
[[nodiscard]] std::unique_ptr<Listener> listen_unix(const std::string& path);

/// Connect to a TCP endpoint ("127.0.0.1", 8080) — throws io_error.
[[nodiscard]] std::unique_ptr<Transport> connect_tcp(const std::string& host,
                                                     int port);

/// Connect to a Unix-domain socket — throws io_error.
[[nodiscard]] std::unique_ptr<Transport> connect_unix(
    const std::string& path);

/// A connected in-process pair (socketpair): .first talks to .second.
/// Tests and the bench hand one end to Server::adopt and drive the other.
[[nodiscard]] std::pair<std::unique_ptr<Transport>,
                        std::unique_ptr<Transport>>
local_pair();

// ---------------------------------------------------------------------------
// Fault shim — dist/comm's seeded FaultPlan idiom at the socket layer.

/// Per-write fault probabilities.  Draws are deterministic in (seed,
/// write sequence number), so a plan replays identically for identical
/// traffic — the property every test in test_serve_faults leans on.
/// Probabilities are mutually exclusive (one uniform draw per write).
struct TransportFaultPlan {
  std::uint64_t seed = 0;
  double drop = 0;  ///< P(write_all call silently discarded)
  double delay = 0; ///< P(write delivered late by `delay_for`)
  std::chrono::milliseconds delay_for{20};

  [[nodiscard]] bool injects_faults() const { return drop > 0 || delay > 0; }
};

/// Counters of faults a FaultyTransport actually injected.
struct TransportFaultStats {
  std::int64_t dropped = 0;
  std::int64_t delayed = 0;
};

/// Wraps a transport and applies a TransportFaultPlan to writes.  Because
/// the protocol writes one frame per write_all call, a drop models a lost
/// request/response frame and a delay models network latency; reads pass
/// through untouched.
class FaultyTransport : public Transport {
public:
  FaultyTransport(std::unique_ptr<Transport> inner, TransportFaultPlan plan);

  bool read_exact(void* buf, std::size_t n,
                  std::chrono::milliseconds deadline) override;
  void write_all(const void* buf, std::size_t n) override;
  void shutdown_read() override;
  void shutdown_write() override;
  void shutdown() override;

  [[nodiscard]] TransportFaultStats fault_stats() const;

private:
  std::unique_ptr<Transport> inner_;
  TransportFaultPlan plan_;
  mutable Mutex mu_;
  std::uint64_t writes_ GUARDED_BY(mu_) = 0;
  TransportFaultStats stats_ GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Framing over a transport.

/// Seal `payload` and write it as one frame (one write_all call).
void write_frame(Transport& t, const std::vector<word_t>& payload);

/// Read one complete frame.  nullopt on clean EOF at a frame boundary;
/// protocol_error on bad magic / implausible length (stream unsynchronized
/// — caller must close), checksum_error on a corrupt payload (framing
/// intact — caller may answer and continue), io_error on mid-frame EOF,
/// timeout_error when `deadline` expires.
[[nodiscard]] std::optional<std::vector<word_t>> read_frame(
    Transport& t, std::chrono::milliseconds deadline = no_deadline);

} // namespace kronlab::serve
