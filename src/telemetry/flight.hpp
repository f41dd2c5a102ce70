// Flight recorder — a fixed-size, lock-free, per-lane ring of compact
// binary events that is ALWAYS on, never allocates on the hot path, and
// survives the three ways a live daemon dies (DESIGN.md §17):
//
//   * SIGTERM drain     -> serialize() a consistent snapshot + render text
//   * kQueryFlight      -> the same snapshot over the wire
//   * SIGSEGV/ABRT/BUS  -> dump_to_fd_signal_safe() writes the raw ring
//                          memory from the crash handler (write(2) only —
//                          no malloc, no stdio, no locks)
//
// Concurrency model: one ring per writer lane (the daemon uses lane 0 for
// the event-loop thread and one lane per shard worker), so every ring has
// exactly ONE writer and tearing between writers is structurally
// impossible. Each 24-byte event is stored as three relaxed atomic words;
// readers snapshot the ring and keep only the index range that provably
// was not overwritten during the copy, so a concurrent snapshot never
// yields a torn event either (and the suite stays TSan/ASan clean).
//
// Drop-oldest accounting is exact: `head` counts every event ever
// recorded, so `dropped = head - min(head, capacity)` — nothing is ever
// silently truncated without being countable.
//
// FLIGHT.bin format (native-endian — a post-mortem artifact read on the
// machine that wrote it):
//
//   u32 magic 'TLSF' | u32 version | u32 ring_count | u32 ring_capacity
//   u32 crash_signo (0 = clean dump) | u32 reserved
//   per ring: u64 head, then ring_capacity * 24 raw event bytes
//   trailer: u64 FNV-1a-64 over every preceding byte
//
// The decoder never throws and tolerates arbitrary mutation (fuzzed):
// a bad checksum is reported, not fatal, because a crash dump with one
// torn in-flight event is still the best evidence available.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace tls::telemetry {

inline constexpr std::uint32_t kFlightMagic = 0x544C5346;  // "TLSF"
inline constexpr std::uint32_t kFlightVersion = 1;
inline constexpr std::size_t kFlightHeaderBytes = 24;
inline constexpr std::size_t kFlightEventBytes = 24;

/// What happened. Values are pinned (they live in FLIGHT.bin artifacts);
/// add new kinds at the end only.
enum class FlightEventKind : std::uint8_t {
  kNone = 0,
  kConnAccept = 1,       // a=conn id
  kConnClose = 2,        // a=conn id
  kAdmit = 3,            // a=conn id, b=shard
  kIngest = 4,           // a=shard, b=admit-to-observe latency us
  kShed = 5,             // a=conn id, b=shard queue depth at refusal
  kMalformed = 6,        // a=conn id, b=parse error code
  kFramePoison = 7,      // a=conn id, b=decode error
  kCreditViolation = 8,  // a=conn id
  kCreditGrant = 9,      // a=conn id, b=credits granted
  kIdleTimeout = 10,     // a=conn id
  kCheckpointEpoch = 11, // a=epoch, b=ingested at epoch
  kJournalDrop = 12,     // journal writer first dropped a group; a=frames
  kDrainStart = 13,
  kFlightDump = 14,      // a=reason (0 ticker, 1 drain, 2 query)
  kCrashSignal = 15,     // never recorded in a ring; rendered from header
};

/// Never returns null; unknown values render as "unknown" so a mutated
/// dump cannot crash the renderer.
[[nodiscard]] const char* flight_event_kind_name(std::uint8_t kind);

/// One decoded event. `lane` is the ring the event came from; `seq` is its
/// monotonic per-ring index (survives wraparound, so inter-dump diffs can
/// tell exactly how many events were dropped between two snapshots).
struct FlightEvent {
  std::uint64_t ts_us = 0;
  std::uint64_t seq = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  std::uint16_t lane = 0;
  std::uint8_t kind = 0;
};

/// Single-writer, fixed-capacity, drop-oldest event ring. record() is
/// wait-free and allocation-free: three relaxed atomic stores plus a
/// release publish of the new head.
class FlightRing {
 public:
  explicit FlightRing(std::size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Hot path — owning thread only.
  void record(FlightEventKind kind, std::uint32_t a, std::uint64_t b,
              std::uint64_t ts_us);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events ever recorded (monotonic).
  [[nodiscard]] std::uint64_t total() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events overwritten by drop-oldest so far — exact.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::uint64_t h = total();
    return h > capacity_ ? h - capacity_ : 0;
  }

  /// Copies the resident events oldest-first, excluding any slot that may
  /// have been overwritten mid-copy (see header comment). Safe to call
  /// from any thread while the writer is live.
  [[nodiscard]] std::vector<FlightEvent> snapshot(std::uint16_t lane) const;

  /// Raw storage for the async-signal-safe dump path.
  [[nodiscard]] const void* raw_slots() const { return slots_.get(); }
  [[nodiscard]] std::size_t raw_bytes() const {
    return capacity_ * kFlightEventBytes;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> w0{0};  // ts_us
    std::atomic<std::uint64_t> w1{0};  // kind | pad | lane? (packed) | a
    std::atomic<std::uint64_t> w2{0};  // b
  };
  static_assert(sizeof(Slot) == kFlightEventBytes);

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  /// Events published (their three words are complete).
  std::atomic<std::uint64_t> head_{0};
  /// Events whose slot writes have begun: head_, or head_ + 1 while the
  /// writer is filling a slot.
  std::atomic<std::uint64_t> begun_{0};
};

/// The recorder: a fixed set of lanes created up front (no lane is ever
/// added after threads start), plus the three dump paths.
class FlightRecorder {
 public:
  FlightRecorder(std::size_t lanes, std::size_t events_per_lane);

  [[nodiscard]] std::size_t lanes() const { return rings_.size(); }
  [[nodiscard]] FlightRing& lane(std::size_t i) { return *rings_[i]; }
  [[nodiscard]] const FlightRing& lane(std::size_t i) const {
    return *rings_[i];
  }

  /// Consistent snapshot serialized to the FLIGHT.bin format. Safe while
  /// writers are live (torn-slot-excluding snapshot per ring).
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;

  /// Writes serialize() to `path` durably (tmp + fsync + rename).
  bool write_file(const std::string& path) const;

  /// Async-signal-safe raw dump: header + ring memory + checksum, using
  /// only write(2). Called from the crash handler; events being written at
  /// crash time may be torn — the decoder tolerates that, the checksum
  /// still covers exactly the bytes written.
  void dump_to_fd_signal_safe(int fd, std::uint32_t crash_signo) const;

 private:
  std::vector<std::unique_ptr<FlightRing>> rings_;
};

/// Decoded FLIGHT.bin.
struct FlightDump {
  bool ok = false;           // header parsed, structure plausible
  bool checksum_ok = false;  // trailer matched the byte stream
  std::uint32_t version = 0;
  std::uint32_t crash_signo = 0;
  std::uint32_t ring_capacity = 0;
  /// Per-ring monotonic totals (head counters) and resident events.
  std::vector<std::uint64_t> totals;
  std::vector<std::uint64_t> dropped;
  /// All resident events across rings, merged oldest-timestamp-first.
  std::vector<FlightEvent> events;
};

/// Never throws; arbitrary bytes yield ok=false or a best-effort decode
/// with checksum_ok=false.
[[nodiscard]] FlightDump decode_flight(std::span<const std::uint8_t> bytes);

/// Human-readable rendering of a dump: header summary, per-ring drop
/// accounting, then the merged chronological timeline (capped at
/// `max_events` lines, newest kept). Never throws on any input.
[[nodiscard]] std::string render_flight(std::span<const std::uint8_t> bytes,
                                        std::size_t max_events = 10000);

/// Installs SIGSEGV/SIGABRT/SIGBUS handlers that write `recorder` to
/// `path` (async-signal-safe) and then re-raise with default disposition.
/// The recorder must outlive the process (or be uninstalled first).
void install_flight_crash_handler(const FlightRecorder* recorder,
                                  const std::string& path);

/// Restores default disposition and forgets the recorder pointer.
void uninstall_flight_crash_handler();

}  // namespace tls::telemetry
