#include "telemetry/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "tlscore/fnv.hpp"

namespace tls::telemetry {
namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t raw[4];
  std::memcpy(raw, &v, 4);
  for (std::uint8_t b : raw) out.push_back(b);
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t raw[8];
  std::memcpy(raw, &v, 8);
  for (std::uint8_t b : raw) out.push_back(b);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Pack/unpack of the middle slot word: kind in bits [32,40), `a` in the
// low 32. The layout is part of the FLIGHT.bin format — do not rearrange.
std::uint64_t pack_w1(std::uint8_t kind, std::uint32_t a) {
  return (static_cast<std::uint64_t>(kind) << 32) | a;
}

// Sanity ceilings for decoding untrusted bytes: far above anything the
// daemon writes, low enough that a mutated header cannot demand gigabytes.
constexpr std::uint32_t kMaxRings = 4096;
constexpr std::uint32_t kMaxRingCapacity = 1u << 20;

}  // namespace

const char* flight_event_kind_name(std::uint8_t kind) {
  switch (static_cast<FlightEventKind>(kind)) {
    case FlightEventKind::kNone: return "none";
    case FlightEventKind::kConnAccept: return "conn_accept";
    case FlightEventKind::kConnClose: return "conn_close";
    case FlightEventKind::kAdmit: return "admit";
    case FlightEventKind::kIngest: return "ingest";
    case FlightEventKind::kShed: return "shed";
    case FlightEventKind::kMalformed: return "malformed";
    case FlightEventKind::kFramePoison: return "frame_poison";
    case FlightEventKind::kCreditViolation: return "credit_violation";
    case FlightEventKind::kCreditGrant: return "credit_grant";
    case FlightEventKind::kIdleTimeout: return "idle_timeout";
    case FlightEventKind::kCheckpointEpoch: return "checkpoint_epoch";
    case FlightEventKind::kJournalDrop: return "journal_drop";
    case FlightEventKind::kDrainStart: return "drain_start";
    case FlightEventKind::kFlightDump: return "flight_dump";
    case FlightEventKind::kCrashSignal: return "crash_signal";
  }
  return "unknown";
}

FlightRing::FlightRing(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2)),
      slots_(new Slot[capacity_]) {}

void FlightRing::record(FlightEventKind kind, std::uint32_t a,
                        std::uint64_t b, std::uint64_t ts_us) {
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  // Announce event seq before touching its slot. The release fence pairs
  // with snapshot()'s acquire fence: a reader that copies any word stored
  // below also sees begun >= seq + 1, so it discards the slot's older event
  // instead of keeping a half-overwritten copy.
  begun_.store(seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Slot& s = slots_[seq % capacity_];
  s.w0.store(ts_us, std::memory_order_relaxed);
  s.w1.store(pack_w1(static_cast<std::uint8_t>(kind), a),
             std::memory_order_relaxed);
  s.w2.store(b, std::memory_order_relaxed);
  // Release-publish: a reader that observes head > seq also observes the
  // three word stores above.
  head_.store(seq + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRing::snapshot(std::uint16_t lane) const {
  const std::uint64_t h1 = head_.load(std::memory_order_acquire);
  const std::uint64_t resident = std::min<std::uint64_t>(h1, capacity_);
  std::vector<FlightEvent> out;
  out.reserve(resident);
  // Copy the candidate slots, then read how many events the writer has
  // begun: any slot it may have touched while we copied is discarded, so
  // no torn event survives.
  struct Raw {
    std::uint64_t w0, w1, w2;
  };
  std::vector<Raw> raw(resident);
  const std::uint64_t first = h1 - resident;
  for (std::uint64_t i = 0; i < resident; ++i) {
    const Slot& s = slots_[(first + i) % capacity_];
    raw[i].w0 = s.w0.load(std::memory_order_relaxed);
    raw[i].w1 = s.w1.load(std::memory_order_relaxed);
    raw[i].w2 = s.w2.load(std::memory_order_relaxed);
  }
  // Orders the relaxed slot loads above before the begun_ read: a copy that
  // saw any word of event X also sees begun >= X + 1.
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t begun = begun_.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < resident; ++i) {
    const std::uint64_t seq = first + i;
    // The writer reuses slot (seq % capacity) for event seq + capacity.
    // Once that event has begun — published or still being filled — our
    // copy of the slot may be torn: discard it. Comparing against head
    // instead would keep the slot of the in-flight, unpublished event.
    if (seq + capacity_ < begun) continue;
    FlightEvent e;
    e.ts_us = raw[i].w0;
    e.seq = seq;
    e.kind = static_cast<std::uint8_t>((raw[i].w1 >> 32) & 0xff);
    e.a = static_cast<std::uint32_t>(raw[i].w1 & 0xffffffffu);
    e.b = raw[i].w2;
    e.lane = lane;
    if (e.kind == static_cast<std::uint8_t>(FlightEventKind::kNone)) continue;
    out.push_back(e);
  }
  return out;
}

FlightRecorder::FlightRecorder(std::size_t lanes,
                               std::size_t events_per_lane) {
  rings_.reserve(std::max<std::size_t>(lanes, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(lanes, 1); ++i) {
    rings_.push_back(std::make_unique<FlightRing>(events_per_lane));
  }
}

std::vector<std::uint8_t> FlightRecorder::serialize() const {
  std::vector<std::uint8_t> out;
  const std::uint32_t cap =
      static_cast<std::uint32_t>(rings_.empty() ? 0 : rings_[0]->capacity());
  out.reserve(kFlightHeaderBytes +
              rings_.size() * (8 + cap * kFlightEventBytes) + 8);
  append_u32(out, kFlightMagic);
  append_u32(out, kFlightVersion);
  append_u32(out, static_cast<std::uint32_t>(rings_.size()));
  append_u32(out, cap);
  append_u32(out, 0);  // crash_signo: clean dump
  append_u32(out, 0);  // reserved
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    const FlightRing& ring = *rings_[r];
    // A consistent snapshot re-laid into canonical ring positions: slots
    // the snapshot excluded (torn / overwritten mid-copy) become kNone.
    const std::vector<FlightEvent> events =
        ring.snapshot(static_cast<std::uint16_t>(r));
    const std::uint64_t head =
        events.empty() ? ring.total() : events.back().seq + 1;
    append_u64(out, head);
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(cap) * 3, 0);
    for (const FlightEvent& e : events) {
      const std::size_t pos = static_cast<std::size_t>(e.seq % cap) * 3;
      words[pos + 0] = e.ts_us;
      words[pos + 1] = pack_w1(e.kind, e.a);
      words[pos + 2] = e.b;
    }
    for (const std::uint64_t w : words) append_u64(out, w);
  }
  append_u64(out, tls::core::fnv1a64(out));
  return out;
}

bool FlightRecorder::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

namespace {

// Buffered fd writer restricted to async-signal-safe calls (write(2)
// only), folding the FNV checksum as bytes stream out.
struct SignalSafeWriter {
  int fd = -1;
  std::uint64_t fnv = tls::core::kFnvOffset;
  std::uint8_t buf[512] = {};
  std::size_t used = 0;
  bool failed = false;

  void flush() {
    std::size_t off = 0;
    while (off < used && !failed) {
      const ssize_t n = ::write(fd, buf + off, used - off);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        failed = true;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    used = 0;
  }
  void push(const void* p, std::size_t n, bool checksum = true) {
    const std::uint8_t* b = static_cast<const std::uint8_t*>(p);
    if (checksum) fnv = tls::core::fnv1a64({b, n}, fnv);
    while (n > 0) {
      const std::size_t take = std::min(n, sizeof(buf) - used);
      std::memcpy(buf + used, b, take);
      used += take;
      b += take;
      n -= take;
      if (used == sizeof(buf)) flush();
    }
  }
  void push_u32(std::uint32_t v) { push(&v, 4); }
  void push_u64(std::uint64_t v) { push(&v, 8); }
};

}  // namespace

void FlightRecorder::dump_to_fd_signal_safe(int fd,
                                            std::uint32_t crash_signo) const {
  SignalSafeWriter w{fd};
  const std::uint32_t cap =
      static_cast<std::uint32_t>(rings_.empty() ? 0 : rings_[0]->capacity());
  w.push_u32(kFlightMagic);
  w.push_u32(kFlightVersion);
  w.push_u32(static_cast<std::uint32_t>(rings_.size()));
  w.push_u32(cap);
  w.push_u32(crash_signo);
  w.push_u32(0);
  for (const auto& ring : rings_) {
    w.push_u64(ring->total());
    const auto* slots =
        static_cast<const std::atomic<std::uint64_t>*>(ring->raw_slots());
    const std::size_t words = ring->capacity() * 3;
    for (std::size_t i = 0; i < words; ++i) {
      w.push_u64(slots[i].load(std::memory_order_relaxed));
    }
  }
  const std::uint64_t checksum = w.fnv;
  w.push(&checksum, 8, /*checksum=*/false);
  w.flush();
}

FlightDump decode_flight(std::span<const std::uint8_t> bytes) {
  FlightDump dump;
  if (bytes.size() < kFlightHeaderBytes + 8) return dump;
  const std::uint8_t* p = bytes.data();
  if (read_u32(p) != kFlightMagic) return dump;
  dump.version = read_u32(p + 4);
  const std::uint32_t ring_count = read_u32(p + 8);
  dump.ring_capacity = read_u32(p + 12);
  dump.crash_signo = read_u32(p + 16);
  if (dump.version != kFlightVersion) return dump;
  if (ring_count == 0 || ring_count > kMaxRings) return dump;
  if (dump.ring_capacity == 0 || dump.ring_capacity > kMaxRingCapacity) {
    return dump;
  }
  const std::size_t ring_bytes =
      8 + static_cast<std::size_t>(dump.ring_capacity) * kFlightEventBytes;
  const std::size_t expected =
      kFlightHeaderBytes + static_cast<std::size_t>(ring_count) * ring_bytes +
      8;
  if (bytes.size() != expected) return dump;
  dump.ok = true;
  const std::uint64_t stored = read_u64(p + bytes.size() - 8);
  dump.checksum_ok =
      stored == tls::core::fnv1a64(bytes.first(bytes.size() - 8));

  std::size_t off = kFlightHeaderBytes;
  for (std::uint32_t r = 0; r < ring_count; ++r) {
    const std::uint64_t head = read_u64(p + off);
    off += 8;
    const std::uint64_t resident =
        std::min<std::uint64_t>(head, dump.ring_capacity);
    dump.totals.push_back(head);
    dump.dropped.push_back(head - resident);
    const std::uint64_t first = head - resident;
    for (std::uint64_t seq = first; seq < head; ++seq) {
      const std::size_t slot =
          off + static_cast<std::size_t>(seq % dump.ring_capacity) *
                    kFlightEventBytes;
      FlightEvent e;
      e.ts_us = read_u64(p + slot);
      const std::uint64_t w1 = read_u64(p + slot + 8);
      e.b = read_u64(p + slot + 16);
      e.kind = static_cast<std::uint8_t>((w1 >> 32) & 0xff);
      e.a = static_cast<std::uint32_t>(w1 & 0xffffffffu);
      e.seq = seq;
      e.lane = static_cast<std::uint16_t>(r);
      if (e.kind == static_cast<std::uint8_t>(FlightEventKind::kNone)) {
        continue;  // slot zeroed by a consistent-snapshot serialize
      }
      dump.events.push_back(e);
    }
    off += static_cast<std::size_t>(dump.ring_capacity) * kFlightEventBytes;
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_us < y.ts_us;
                   });
  return dump;
}

std::string render_flight(std::span<const std::uint8_t> bytes,
                          std::size_t max_events) {
  const FlightDump dump = decode_flight(bytes);
  std::ostringstream os;
  if (!dump.ok) {
    os << "flight dump: unreadable (" << bytes.size() << " bytes)\n";
    return os.str();
  }
  os << "flight dump: version=" << dump.version
     << " rings=" << dump.totals.size()
     << " capacity=" << dump.ring_capacity
     << " crash_signo=" << dump.crash_signo
     << " checksum=" << (dump.checksum_ok ? "ok" : "MISMATCH") << "\n";
  if (dump.crash_signo != 0) {
    os << "  !! dumped from crash handler: "
       << flight_event_kind_name(
              static_cast<std::uint8_t>(FlightEventKind::kCrashSignal))
       << " signo=" << dump.crash_signo << "\n";
  }
  for (std::size_t r = 0; r < dump.totals.size(); ++r) {
    os << "ring " << r << ": total=" << dump.totals[r]
       << " dropped=" << dump.dropped[r] << "\n";
  }
  std::size_t start = 0;
  if (dump.events.size() > max_events) {
    start = dump.events.size() - max_events;
    os << "... (" << start << " older events elided)\n";
  }
  for (std::size_t i = start; i < dump.events.size(); ++i) {
    const FlightEvent& e = dump.events[i];
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  ts=%12llu us lane=%2u seq=%8llu %-17s a=%u b=%llu\n",
                  static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned>(e.lane),
                  static_cast<unsigned long long>(e.seq),
                  flight_event_kind_name(e.kind), e.a,
                  static_cast<unsigned long long>(e.b));
    os << line;
  }
  return os.str();
}

namespace {

// Crash-handler state: plain pointers/arrays only — the handler may run
// on a corrupted heap, so nothing here allocates or locks.
const FlightRecorder* g_crash_recorder = nullptr;
char g_crash_path[512] = {0};

void flight_crash_handler(int signo) {
  const FlightRecorder* rec = g_crash_recorder;
  if (rec != nullptr && g_crash_path[0] != '\0') {
    const int fd =
        ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      rec->dump_to_fd_signal_safe(fd, static_cast<std::uint32_t>(signo));
      ::close(fd);
    }
  }
  // Restore default disposition and re-raise so the process still dies
  // with the original signal (and core-dumps if configured to).
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

void install_flight_crash_handler(const FlightRecorder* recorder,
                                  const std::string& path) {
  g_crash_recorder = recorder;
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &flight_crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  ::sigaction(SIGSEGV, &sa, nullptr);
  ::sigaction(SIGABRT, &sa, nullptr);
  ::sigaction(SIGBUS, &sa, nullptr);
}

void uninstall_flight_crash_handler() {
  g_crash_recorder = nullptr;
  g_crash_path[0] = '\0';
  ::signal(SIGSEGV, SIG_DFL);
  ::signal(SIGABRT, SIG_DFL);
  ::signal(SIGBUS, SIG_DFL);
}

}  // namespace tls::telemetry
