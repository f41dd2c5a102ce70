// Flight-recorder invariants (DESIGN.md §17): exact drop-oldest
// accounting across wraparound, tear-free concurrent snapshots, lossless
// serialize/decode round-trips, checksum tamper detection that degrades
// to a rendered warning rather than a refusal, and the async-signal-safe
// crash-dump path producing a decodable artifact from a real signal death.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight.hpp"

namespace {

using tls::telemetry::decode_flight;
using tls::telemetry::FlightEventKind;
using tls::telemetry::FlightRecorder;
using tls::telemetry::FlightRing;
using tls::telemetry::kFlightMaxRings;
using tls::telemetry::render_flight;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string temp_path(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + "." + std::to_string(::getpid()) + ".bin"))
      .string();
}

}  // namespace

TEST(FlightRing, DropOldestAccountingIsExactAcrossWraparound) {
  FlightRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot(0).empty());

  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.record(FlightEventKind::kIngest, static_cast<std::uint32_t>(i),
                i * 1000, /*ts_us=*/i + 1);
  }
  EXPECT_EQ(ring.total(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  const auto events = ring.snapshot(/*lane=*/3);
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t seq = 12 + i;  // oldest resident first
    EXPECT_EQ(events[i].seq, seq);
    EXPECT_EQ(events[i].ts_us, seq + 1);
    EXPECT_EQ(events[i].a, seq);
    EXPECT_EQ(events[i].b, seq * 1000);
    EXPECT_EQ(events[i].lane, 3u);
    EXPECT_EQ(events[i].kind,
              static_cast<std::uint8_t>(FlightEventKind::kIngest));
  }
}

TEST(FlightRing, TinyCapacityIsClampedAndUsable) {
  FlightRing ring(0);  // ctor clamps to a minimum of 2
  EXPECT_GE(ring.capacity(), 2u);
  ring.record(FlightEventKind::kShed, 1, 2, 3);
  const auto events = ring.snapshot(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].b, 2u);
}

// A concurrent reader must never observe a torn event: every snapshotted
// event's fields must satisfy the writer's invariant (a, b, ts all derived
// from seq), and seq ranges must stay consistent with drop accounting.
TEST(FlightRing, ConcurrentSnapshotNeverTears) {
  FlightRing ring(64);
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_running{false};
  constexpr std::uint64_t kWrites = 200'000;

  // The writer waits for the reader, so a loaded machine that schedules
  // the main thread late cannot let all writes finish before any snapshot.
  std::thread writer([&] {
    while (!reader_running.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (std::uint64_t i = 0; i < kWrites; ++i) {
      ring.record(FlightEventKind::kAdmit,
                  static_cast<std::uint32_t>(i & 0xffffffffu), i * 7, i + 1);
    }
    stop.store(true, std::memory_order_release);
  });

  // Failures are recorded, not asserted, while the writer runs: a failed
  // ASSERT would return with the writer still joinable (std::terminate).
  std::uint64_t snapshots = 0;
  std::uint64_t last_max_seq = 0;
  std::uint64_t torn = 0, gaps = 0, regressions = 0;
  std::string first_failure;
  const auto fail = [&](std::uint64_t& counter, const std::string& what) {
    ++counter;
    if (first_failure.empty()) first_failure = what;
  };
  reader_running.store(true, std::memory_order_release);
  do {
    const auto events = ring.snapshot(0);
    ++snapshots;
    for (const auto& e : events) {
      // seq IS the write index, so every word must match it exactly.
      if (e.a != static_cast<std::uint32_t>(e.seq & 0xffffffffu) ||
          e.b != e.seq * 7 || e.ts_us != e.seq + 1) {
        fail(torn, "torn event: seq=" + std::to_string(e.seq) +
                       " a=" + std::to_string(e.a) +
                       " b=" + std::to_string(e.b) +
                       " ts=" + std::to_string(e.ts_us));
      }
    }
    if (!events.empty()) {
      // Oldest-first ordering and monotonic progress between snapshots.
      for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i].seq != events[i - 1].seq + 1) {
          fail(gaps, "gap after seq " + std::to_string(events[i - 1].seq));
        }
      }
      if (events.back().seq + 1 < last_max_seq) {
        fail(regressions,
             "newest seq went back to " + std::to_string(events.back().seq));
      }
      last_max_seq = events.back().seq + 1;
    }
  } while (!stop.load(std::memory_order_acquire));
  writer.join();
  EXPECT_EQ(torn, 0u) << first_failure;
  EXPECT_EQ(gaps, 0u) << first_failure;
  EXPECT_EQ(regressions, 0u) << first_failure;
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(ring.total(), kWrites);
  EXPECT_EQ(ring.dropped(), kWrites - 64);
  // A quiescent snapshot is complete.
  EXPECT_EQ(ring.snapshot(0).size(), 64u);
}

TEST(FlightRecorder, SerializeDecodeRoundTripIsLossless) {
  FlightRecorder recorder(/*lanes=*/3, /*events_per_lane=*/16);
  ASSERT_EQ(recorder.lanes(), 3u);
  recorder.lane(0).record(FlightEventKind::kConnAccept, 11, 0, 100);
  recorder.lane(0).record(FlightEventKind::kDrainStart, 0, 0, 900);
  recorder.lane(1).record(FlightEventKind::kIngest, 0, 42, 200);
  // Lane 2 wraps: only the newest 16 survive, drop accounting carries over.
  for (std::uint64_t i = 0; i < 40; ++i) {
    recorder.lane(2).record(FlightEventKind::kShed, 7,
                            i, 300 + i);
  }

  const auto image = recorder.serialize();
  const auto dump = decode_flight({image.data(), image.size()});
  ASSERT_TRUE(dump.ok);
  EXPECT_TRUE(dump.checksum_ok);
  EXPECT_EQ(dump.version, tls::telemetry::kFlightVersion);
  EXPECT_EQ(dump.crash_signo, 0u);
  EXPECT_EQ(dump.ring_capacity, 16u);
  ASSERT_EQ(dump.totals.size(), 3u);
  EXPECT_EQ(dump.totals[0], 2u);
  EXPECT_EQ(dump.totals[1], 1u);
  EXPECT_EQ(dump.totals[2], 40u);
  EXPECT_EQ(dump.dropped[2], 24u);
  EXPECT_EQ(dump.events.size(), 2u + 1u + 16u);
  // Merged timeline is oldest-first by timestamp.
  for (std::size_t i = 1; i < dump.events.size(); ++i) {
    EXPECT_LE(dump.events[i - 1].ts_us, dump.events[i].ts_us);
  }
  // Lane 2's resident window is exactly the newest 16 (seq 24..39).
  std::uint64_t lane2_seen = 0;
  for (const auto& e : dump.events) {
    if (e.lane != 2) continue;
    EXPECT_GE(e.seq, 24u);
    EXPECT_EQ(e.b, e.seq);
    ++lane2_seen;
  }
  EXPECT_EQ(lane2_seen, 16u);

  const auto text = render_flight({image.data(), image.size()});
  EXPECT_NE(text.find("checksum=ok"), std::string::npos) << text;
  EXPECT_NE(text.find("conn_accept"), std::string::npos) << text;
  EXPECT_NE(text.find("drain_start"), std::string::npos) << text;
}

TEST(FlightRecorder, ChecksumTamperIsDetectedButStillRenders) {
  FlightRecorder recorder(1, 8);
  recorder.lane(0).record(FlightEventKind::kCheckpointEpoch, 5, 1234, 77);
  auto image = recorder.serialize();
  ASSERT_GT(image.size(), tls::telemetry::kFlightHeaderBytes);
  image[tls::telemetry::kFlightHeaderBytes + 3] ^= 0x40;  // mutate ring data

  const auto dump = decode_flight({image.data(), image.size()});
  EXPECT_TRUE(dump.ok);  // structure still parses
  EXPECT_FALSE(dump.checksum_ok);
  const auto text = render_flight({image.data(), image.size()});
  EXPECT_NE(text.find("MISMATCH"), std::string::npos) << text;
}

TEST(FlightRecorder, DecoderRejectsGarbageWithoutThrowing) {
  EXPECT_FALSE(decode_flight({}).ok);
  const std::vector<std::uint8_t> small{1, 2, 3};
  EXPECT_FALSE(decode_flight({small.data(), small.size()}).ok);

  FlightRecorder recorder(1, 4);
  recorder.lane(0).record(FlightEventKind::kAdmit, 1, 2, 3);
  const auto image = recorder.serialize();
  // Every strict truncation fails cleanly (the format is exact-size) and
  // renders without throwing.
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    EXPECT_FALSE(decode_flight({image.data(), cut}).ok) << "cut=" << cut;
    (void)render_flight({image.data(), cut});  // must not throw either
  }
}

// kFlightMaxRings is the decoder's ceiling and the daemon's shard bound
// (one ring per shard plus the event loop's): a recorder at the ceiling
// writes a dump its decoder reads, one ring more does not.
TEST(FlightRecorder, RingCountCeilingIsInclusive) {
  const auto at = FlightRecorder(kFlightMaxRings, 2).serialize();
  EXPECT_TRUE(decode_flight({at.data(), at.size()}).ok);
  const auto over = FlightRecorder(kFlightMaxRings + 1, 2).serialize();
  EXPECT_FALSE(decode_flight({over.data(), over.size()}).ok);
}

TEST(FlightRecorder, WriteFileRoundTrips) {
  const auto path = temp_path("tls_flight_write");
  FlightRecorder recorder(2, 8);
  recorder.lane(0).record(FlightEventKind::kConnAccept, 9, 0, 10);
  recorder.lane(1).record(FlightEventKind::kIngest, 0, 55, 20);
  ASSERT_TRUE(recorder.write_file(path));
  const auto bytes = read_file(path);
  const auto dump = decode_flight({bytes.data(), bytes.size()});
  EXPECT_TRUE(dump.ok);
  EXPECT_TRUE(dump.checksum_ok);
  EXPECT_EQ(dump.events.size(), 2u);
  std::filesystem::remove(path);
}

// The real crash path: fork a child, install the handler, die on SIGSEGV
// (via raise — deterministic), then decode what the handler wrote. The
// child must die BY THE SIGNAL (handler re-raises with default
// disposition), and the dump must carry the signal number and the events
// recorded before the crash.
TEST(FlightCrashHandler, SignalDeathLeavesDecodableDump) {
  const auto path = temp_path("tls_flight_crash");
  std::filesystem::remove(path);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest infrastructure from here on.
    static FlightRecorder recorder(2, 32);
    recorder.lane(0).record(FlightEventKind::kConnAccept, 1, 0, 100);
    recorder.lane(1).record(FlightEventKind::kIngest, 0, 9, 200);
    recorder.lane(1).record(FlightEventKind::kShed, 2, 3, 300);
    tls::telemetry::install_flight_crash_handler(&recorder, path);
    ::raise(SIGSEGV);
    ::_exit(0);  // unreachable if the handler re-raises correctly
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying: "
                                   << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  const auto bytes = read_file(path);
  ASSERT_FALSE(bytes.empty()) << "crash handler wrote nothing";
  const auto dump = decode_flight({bytes.data(), bytes.size()});
  ASSERT_TRUE(dump.ok);
  EXPECT_TRUE(dump.checksum_ok);
  EXPECT_EQ(dump.crash_signo, static_cast<std::uint32_t>(SIGSEGV));
  ASSERT_EQ(dump.totals.size(), 2u);
  EXPECT_EQ(dump.totals[0], 1u);
  EXPECT_EQ(dump.totals[1], 2u);
  EXPECT_EQ(dump.events.size(), 3u);

  const auto text = render_flight({bytes.data(), bytes.size()});
  EXPECT_NE(text.find("crash"), std::string::npos) << text;
  std::filesystem::remove(path);
}

TEST(FlightRender, KindNamesNeverReturnNull) {
  for (unsigned k = 0; k < 256; ++k) {
    const char* name = tls::telemetry::flight_event_kind_name(
        static_cast<std::uint8_t>(k));
    ASSERT_NE(name, nullptr) << "kind " << k;
    ASSERT_NE(name[0], '\0') << "kind " << k;
  }
}
