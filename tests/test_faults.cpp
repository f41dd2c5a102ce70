// The chaos tap itself: the FaultInjector's determinism contract (a
// (config, seed) pair always produces the same corrupted bytes), the
// byte-level mutation primitives, and the scan-side probe engine's
// deterministic retry/backoff schedule.
#include <gtest/gtest.h>

#include "faults/injector.hpp"
#include "faults/network.hpp"
#include "scan/scanner.hpp"
#include "servers/population.hpp"
#include "wire/record.hpp"
#include "wire/transcript.hpp"

namespace tls::faults {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes sample_stream(int records = 3, std::size_t frag = 20) {
  Bytes out;
  for (int r = 0; r < records; ++r) {
    tls::wire::Record rec;
    rec.type = tls::wire::ContentType::kHandshake;
    rec.fragment.assign(frag, static_cast<std::uint8_t>(0x40 + r));
    const auto bytes = rec.serialize();
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

TEST(FaultConfig, TotalsAndSplits) {
  EXPECT_EQ(FaultConfig{}.total(), 0.0);
  EXPECT_NEAR(FaultConfig::uniform(0.4).total(), 0.4, 1e-12);
  const auto bytes = FaultConfig::bytes_only(0.3);
  EXPECT_NEAR(bytes.total(), 0.3, 1e-12);
  EXPECT_EQ(bytes.drop_flight, 0.0);
  EXPECT_EQ(bytes.one_sided, 0.0);
}

TEST(FaultInjector, ZeroRateIsIdentity) {
  FaultInjector inj(FaultConfig{}, 1);
  for (int i = 0; i < 200; ++i) {
    Bytes stream = sample_stream();
    const Bytes before = stream;
    EXPECT_EQ(inj.corrupt_stream(stream), FaultKind::kNone);
    EXPECT_EQ(stream, before);
  }
  EXPECT_EQ(inj.stats().total_faults(), 0u);
  EXPECT_EQ(inj.stats().streams_seen, 200u);
}

TEST(FaultInjector, SameSeedSameCorruption) {
  FaultInjector a(FaultConfig::uniform(0.8), 42);
  FaultInjector b(FaultConfig::uniform(0.8), 42);
  for (int i = 0; i < 500; ++i) {
    Bytes ca = sample_stream(2 + i % 3);
    Bytes sa = sample_stream(3);
    Bytes cb = ca;
    Bytes sb = sa;
    EXPECT_EQ(a.corrupt_capture(ca, sa), b.corrupt_capture(cb, sb));
    ASSERT_EQ(ca, cb);
    ASSERT_EQ(sa, sb);
  }
  EXPECT_EQ(a.stats().applied, b.stats().applied);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(FaultConfig::uniform(0.8), 1);
  FaultInjector b(FaultConfig::uniform(0.8), 2);
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    Bytes ca = sample_stream();
    Bytes sa = sample_stream();
    Bytes cb = ca;
    Bytes sb = sa;
    a.corrupt_capture(ca, sa);
    b.corrupt_capture(cb, sb);
    differing += (ca != cb || sa != sb);
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, FullRateAppliesEveryKindEventually) {
  // Saturate all three fault pools so every kind — capture, frame, and
  // segment-level group — shows up.
  auto config = FaultConfig::uniform(1.0);
  const auto frames = FaultConfig::frames_only(1.0);
  config.frame_truncate = frames.frame_truncate;
  config.frame_bit_flip = frames.frame_bit_flip;
  config.frame_duplicate = frames.frame_duplicate;
  const auto groups = FaultConfig::groups_only(1.0);
  config.group_torn_tail = groups.group_torn_tail;
  config.group_bit_flip = groups.group_bit_flip;
  config.segment_truncate = groups.segment_truncate;
  FaultInjector inj(config, 7);
  for (int i = 0; i < 2000; ++i) {
    Bytes c = sample_stream();
    Bytes s = sample_stream();
    EXPECT_NE(inj.corrupt_capture(c, s), FaultKind::kNone);
    Bytes frame = sample_stream();
    EXPECT_NE(inj.corrupt_frame(frame), FaultKind::kNone);
    Bytes group = sample_stream();
    EXPECT_NE(inj.corrupt_group(group), FaultKind::kNone);
  }
  EXPECT_EQ(inj.stats().total_faults(), 6000u);
  EXPECT_EQ(inj.stats().captures_seen, 2000u);
  EXPECT_EQ(inj.stats().frames_seen, 2000u);
  EXPECT_EQ(inj.stats().groups_seen, 2000u);
  for (std::size_t k = 1; k < kFaultKindCount; ++k) {
    EXPECT_GT(inj.stats().applied[k], 0u)
        << fault_kind_name(static_cast<FaultKind>(k));
  }
}

TEST(FaultInjector, DropFlightClearsBothOneSidedClearsOne) {
  FaultConfig drop;
  drop.drop_flight = 1.0;
  FaultInjector d(drop, 3);
  Bytes c = sample_stream();
  Bytes s = sample_stream();
  EXPECT_EQ(d.corrupt_capture(c, s), FaultKind::kDropFlight);
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(s.empty());

  FaultConfig side;
  side.one_sided = 1.0;
  FaultInjector o(side, 3);
  int client_lost = 0;
  int server_lost = 0;
  for (int i = 0; i < 100; ++i) {
    c = sample_stream();
    s = sample_stream();
    EXPECT_EQ(o.corrupt_capture(c, s), FaultKind::kOneSided);
    EXPECT_TRUE(c.empty() != s.empty());  // exactly one direction lost
    client_lost += c.empty();
    server_lost += s.empty();
  }
  EXPECT_GT(client_lost, 0);
  EXPECT_GT(server_lost, 0);
}

TEST(MutationPrimitives, RecordOffsetsWalkHeaders) {
  const Bytes stream = sample_stream(3, 20);
  const auto offsets = record_offsets(stream);
  ASSERT_EQ(offsets.size(), 3u);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 25u);
  EXPECT_EQ(offsets[2], 50u);

  // A truncated final record is not reported as an offset.
  Bytes cut = stream;
  cut.resize(cut.size() - 1);
  EXPECT_EQ(record_offsets(cut).size(), 2u);
  EXPECT_TRUE(record_offsets({}).empty());
}

TEST(MutationPrimitives, SplitIsLegalFragmentation) {
  tls::core::Rng rng(9);
  Bytes stream = sample_stream(2, 30);
  const auto payload_before = stream.size() - 2 * 5;
  ASSERT_TRUE(split_record(stream, rng));
  const auto offsets = record_offsets(stream);
  EXPECT_EQ(offsets.size(), 3u);  // one record became two
  EXPECT_EQ(stream.size(), payload_before + 3 * 5);
  // Still a walkable, parseable record stream (fragmented handshake bodies
  // are tolerated by the lenient flight parser).
  EXPECT_FALSE(
      tls::wire::parse_flight_lenient(stream).stream_error.has_value());
}

TEST(MutationPrimitives, CoalesceMergesAdjacentSameType) {
  Bytes stream = sample_stream(2, 10);
  ASSERT_TRUE(coalesce_records(stream));
  const auto offsets = record_offsets(stream);
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(stream.size(), 5u + 20u);  // one header, both fragments
  EXPECT_FALSE(
      tls::wire::parse_flight_lenient(stream).stream_error.has_value());

  // Nothing to merge: single record, or mismatched types.
  Bytes single = sample_stream(1);
  EXPECT_FALSE(coalesce_records(single));
  Bytes mixed = sample_stream(1, 10);
  {
    tls::wire::Record alert;
    alert.type = tls::wire::ContentType::kAlert;
    alert.fragment = {2, 40};
    const auto bytes = alert.serialize();
    mixed.insert(mixed.end(), bytes.begin(), bytes.end());
  }
  EXPECT_FALSE(coalesce_records(mixed));
}

TEST(MutationPrimitives, TruncateAndGarbage) {
  Bytes stream = sample_stream();
  truncate_at(stream, 7);
  EXPECT_EQ(stream.size(), 7u);
  truncate_at(stream, 100);  // beyond the end: no-op
  EXPECT_EQ(stream.size(), 7u);

  tls::core::Rng rng(5);
  const auto before = stream.size();
  append_garbage(stream, rng, 16);
  EXPECT_GT(stream.size(), before);
  EXPECT_LE(stream.size(), before + 16);
}

TEST(MutationPrimitives, LengthCorruptionHitsAHeader) {
  tls::core::Rng rng(11);
  Bytes stream = sample_stream(1, 20);
  const Bytes before = stream;
  corrupt_record_length(stream, rng);
  EXPECT_EQ(stream.size(), before.size());
  // Only the two length bytes of the single header may differ.
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == 3 || i == 4) continue;
    EXPECT_EQ(stream[i], before[i]) << "byte " << i;
  }
  EXPECT_TRUE(stream[3] != before[3] || stream[4] != before[4]);
}

// ---- scan-side probe engine ----

TEST(Probe, IdealNetworkSucceedsFirstTry) {
  tls::core::Rng rng(1);
  const auto trace = run_probe(NetworkProfile{}, RetryPolicy{}, rng);
  EXPECT_TRUE(trace.reached);
  EXPECT_FALSE(trace.abandoned);
  ASSERT_EQ(trace.attempts.size(), 1u);
  EXPECT_EQ(trace.attempts[0], ProbeOutcome::kOk);
  EXPECT_EQ(trace.retries(), 0u);
  EXPECT_TRUE(trace.backoffs_ms.empty());
}

TEST(Probe, DeadHostExhaustsAttempts) {
  NetworkProfile p;
  p.unreachable = 1.0;
  RetryPolicy policy;
  policy.total_budget_ms = 0;  // no budget: attempts bound the probe
  tls::core::Rng rng(2);
  const auto trace = run_probe(p, policy, rng);
  EXPECT_FALSE(trace.reached);
  EXPECT_EQ(trace.attempts.size(), policy.max_attempts);
  EXPECT_EQ(trace.retries(), policy.max_attempts - 1);
  for (const auto a : trace.attempts) {
    EXPECT_EQ(a, ProbeOutcome::kUnreachable);
  }
}

TEST(Probe, DeterministicSchedule) {
  const auto p = NetworkProfile::lossy(0.8);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    tls::core::Rng r1(seed);
    tls::core::Rng r2(seed);
    const auto a = run_probe(p, RetryPolicy{}, r1);
    const auto b = run_probe(p, RetryPolicy{}, r2);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.backoffs_ms, b.backoffs_ms);
    EXPECT_EQ(a.reached, b.reached);
    EXPECT_EQ(a.abandoned, b.abandoned);
    EXPECT_DOUBLE_EQ(a.elapsed_ms, b.elapsed_ms);
  }
}

TEST(Probe, BackoffGrowsExponentiallyWithinJitter) {
  NetworkProfile p;
  p.timeout = 1.0;  // every attempt times out
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.total_budget_ms = 0;
  tls::core::Rng rng(3);
  const auto trace = run_probe(p, policy, rng);
  ASSERT_EQ(trace.backoffs_ms.size(), 4u);
  double expected = policy.base_backoff_ms;
  for (const auto b : trace.backoffs_ms) {
    EXPECT_GE(b, expected * (1.0 - policy.jitter));
    EXPECT_LE(b, expected * (1.0 + policy.jitter));
    expected *= policy.backoff_factor;
  }
}

TEST(Probe, BudgetAbandonsEarly) {
  NetworkProfile p;
  p.timeout = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.attempt_timeout_ms = 1000;
  policy.total_budget_ms = 2500;  // room for ~2 attempts
  tls::core::Rng rng(4);
  const auto trace = run_probe(p, policy, rng);
  EXPECT_FALSE(trace.reached);
  EXPECT_TRUE(trace.abandoned);
  EXPECT_LT(trace.attempts.size(), 10u);
}

TEST(Probe, ZeroAttemptTimeoutNeverTripsTheBudget) {
  // attempt_timeout_ms == 0 is the degenerate "instant verdict" policy:
  // timeouts cost no clock, so even a 1 ms budget cannot abandon the probe
  // and every configured attempt runs. Guards against a divide/overflow or
  // an accidental `elapsed >= budget` trip at elapsed == 0.
  NetworkProfile p;
  p.timeout = 1.0;  // every attempt times out...
  RetryPolicy policy;
  policy.attempt_timeout_ms = 0;  // ...but a zero timeout costs nothing
  policy.base_backoff_ms = 0;     // and neither do the backoffs
  policy.max_attempts = 8;
  policy.total_budget_ms = 1;
  tls::core::Rng rng(11);
  const auto trace = run_probe(p, policy, rng);
  EXPECT_FALSE(trace.reached);
  EXPECT_FALSE(trace.abandoned);
  EXPECT_EQ(trace.attempts.size(), 8u);
  EXPECT_DOUBLE_EQ(trace.elapsed_ms, 0.0);
  for (const auto a : trace.attempts) {
    EXPECT_EQ(a, ProbeOutcome::kTimeout);
  }
}

TEST(Probe, BackoffSaturationExhaustsBudgetAndAbandons) {
  // The exponential backoff has no standalone cap — the total time budget
  // IS the cap. Attempts are nearly free here; the geometric backoff alone
  // must saturate the budget and flag abandonment with attempts left.
  NetworkProfile p;
  p.timeout = 1.0;
  RetryPolicy policy;
  policy.max_attempts = 64;
  policy.attempt_timeout_ms = 1;
  policy.base_backoff_ms = 1;
  policy.backoff_factor = 8.0;
  policy.jitter = 0;  // pure geometric series, exactly predictable
  policy.total_budget_ms = 1000;
  tls::core::Rng rng(12);
  const auto trace = run_probe(p, policy, rng);
  EXPECT_FALSE(trace.reached);
  EXPECT_TRUE(trace.abandoned);
  EXPECT_LT(trace.attempts.size(), policy.max_attempts);
  EXPECT_GE(trace.elapsed_ms, policy.total_budget_ms);
  double expected = policy.base_backoff_ms;
  for (const auto b : trace.backoffs_ms) {
    EXPECT_DOUBLE_EQ(b, expected);
    expected *= policy.backoff_factor;
  }
}

TEST(Probe, FullyFlakyHostsFailEveryAttemptButAreNotDead) {
  // flaky_hosts = 1.0 makes every live host flaky; with the x10 penalty a
  // 0.2 timeout rate saturates to certainty. The host is NOT unreachable —
  // each attempt individually times out, which is a different books entry.
  NetworkProfile p;
  p.flaky_hosts = 1.0;
  p.timeout = 0.2;
  RetryPolicy policy;
  policy.total_budget_ms = 0;
  tls::core::Rng rng(13);
  const auto trace = run_probe(p, policy, rng);
  EXPECT_FALSE(trace.reached);
  EXPECT_EQ(trace.attempts.size(), policy.max_attempts);
  for (const auto a : trace.attempts) {
    EXPECT_EQ(a, ProbeOutcome::kTimeout);
  }
}

TEST(ScanClosure, FullyFlakyNetworkKeepsScannedPlusUnreachableExact) {
  // Coverage accounting must close exactly even at total loss: every
  // host's weight lands in either `scanned` or `unreachable`, and the
  // support fractions (normalized over reached hosts) stay finite zeros
  // rather than NaNs when nothing was reached.
  const auto pop = tls::servers::ServerPopulation::standard();
  tls::scan::ScanPolicy policy;
  policy.network.flaky_hosts = 1.0;
  policy.network.timeout = 0.1;  // x10 flaky penalty => certain timeout
  const tls::scan::ActiveScanner scanner(pop, policy);
  const auto s = scanner.scan(tls::core::Month(2016, 1));
  EXPECT_NEAR(s.scanned + s.unreachable, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.scanned, 0.0);
  EXPECT_GT(s.probe_attempts, 0u);
  EXPECT_GT(s.probe_retries, 0u);
  for (const double f :
       {s.ssl3_support, s.export_support, s.chooses_rc4, s.chooses_cbc,
        s.chooses_aead, s.chooses_3des, s.rc4_support, s.rc4_only,
        s.heartbeat_support, s.heartbleed_vulnerable, s.tls13_support}) {
    EXPECT_DOUBLE_EQ(f, 0.0);
  }

  // A half-flaky sweep still closes, with both sides of the ledger live.
  tls::scan::ScanPolicy mixed;
  mixed.network.flaky_hosts = 0.5;
  mixed.network.timeout = 0.1;
  mixed.network.unreachable = 0.2;
  const tls::scan::ActiveScanner mixed_scanner(pop, mixed);
  const auto ms = mixed_scanner.scan(tls::core::Month(2016, 1));
  EXPECT_NEAR(ms.scanned + ms.unreachable, 1.0, 1e-9);
  EXPECT_GT(ms.scanned, 0.0);
  EXPECT_GT(ms.unreachable, 0.0);
}

TEST(Probe, LossyProfileScalesWithLevel) {
  const auto mild = NetworkProfile::lossy(0.1);
  const auto harsh = NetworkProfile::lossy(1.0);
  EXPECT_LT(mild.unreachable, harsh.unreachable);
  EXPECT_FALSE(mild.ideal());
  EXPECT_TRUE(NetworkProfile{}.ideal());
  EXPECT_TRUE(NetworkProfile::lossy(0).ideal());
}

TEST(Names, AllDistinct) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    EXPECT_NE(fault_kind_name(static_cast<FaultKind>(i)), "?");
  }
  EXPECT_EQ(probe_outcome_name(ProbeOutcome::kOk), "ok");
  EXPECT_EQ(probe_outcome_name(ProbeOutcome::kReset), "reset");
}

TEST(FaultConfig, FramePoolIsSeparateFromCapturePool) {
  // frame_* rates feed only corrupt_frame(); total()/uniform() govern only
  // the capture path. Keeping the pools disjoint is what lets checkpoint
  // chaos ride along without perturbing existing capture-fault baselines.
  const auto frames = FaultConfig::frames_only(0.6);
  EXPECT_DOUBLE_EQ(frames.frame_truncate, 0.2);
  EXPECT_DOUBLE_EQ(frames.frame_bit_flip, 0.2);
  EXPECT_DOUBLE_EQ(frames.frame_duplicate, 0.2);
  EXPECT_DOUBLE_EQ(frames.frame_total(), 0.6);
  EXPECT_DOUBLE_EQ(frames.total(), 0.0);  // capture pool untouched

  const auto captures = FaultConfig::uniform(0.5);
  EXPECT_GT(captures.total(), 0.0);
  EXPECT_DOUBLE_EQ(captures.frame_total(), 0.0);  // frame pool untouched
}

TEST(FaultInjector, RollThenApplyEqualsCorruptCapture) {
  // corrupt_capture() must be exactly roll_capture() + apply_capture():
  // same RNG stream consumption, same mutations, same stats. The monitor's
  // roll-first observe path depends on this equivalence.
  const auto config = FaultConfig::uniform(0.35);
  FaultInjector combined(config, 1234);
  FaultInjector split(config, 1234);
  std::vector<std::uint8_t> base_client(96), base_server(64);
  for (std::size_t i = 0; i < base_client.size(); ++i) {
    base_client[i] = static_cast<std::uint8_t>(i * 7);
  }
  for (std::size_t i = 0; i < base_server.size(); ++i) {
    base_server[i] = static_cast<std::uint8_t>(i * 13);
  }
  for (int i = 0; i < 500; ++i) {
    auto c1 = base_client, s1 = base_server;
    auto c2 = base_client, s2 = base_server;
    const auto kind = combined.corrupt_capture(c1, s1);
    const auto kind2 = split.roll_capture();
    split.apply_capture(kind2, c2, s2);
    EXPECT_EQ(kind, kind2);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(s1, s2);
  }
  EXPECT_EQ(combined.stats().captures_seen, split.stats().captures_seen);
  EXPECT_EQ(combined.stats().total_faults(), split.stats().total_faults());
}

TEST(FaultInjector, FrameFaultsMutateOrDuplicate) {
  FaultInjector injector(FaultConfig::frames_only(1.0), 99);
  const std::vector<std::uint8_t> base(128, 0x5a);
  std::size_t truncated = 0, flipped = 0, duplicated = 0;
  for (int i = 0; i < 600; ++i) {
    auto frame = base;
    switch (injector.corrupt_frame(frame)) {
      case FaultKind::kFrameTruncate:
        ++truncated;
        EXPECT_LT(frame.size(), base.size());
        break;
      case FaultKind::kFrameBitFlip:
        ++flipped;
        EXPECT_EQ(frame.size(), base.size());
        EXPECT_NE(frame, base);
        break;
      case FaultKind::kFrameDuplicate:
        ++duplicated;
        EXPECT_EQ(frame, base);  // caller writes the extra copy
        break;
      default:
        FAIL() << "rate 1.0 must always pick a frame fault";
    }
  }
  // All three kinds occur, and every event was counted.
  EXPECT_GT(truncated, 0u);
  EXPECT_GT(flipped, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(injector.stats().frames_seen, 600u);
  EXPECT_EQ(injector.stats().total_faults(), 600u);
}

TEST(FaultInjector, ZeroFrameRateIsIdentity) {
  FaultInjector injector(FaultConfig{}, 7);
  const std::vector<std::uint8_t> base(64, 0x11);
  for (int i = 0; i < 100; ++i) {
    auto frame = base;
    EXPECT_EQ(injector.corrupt_frame(frame), FaultKind::kNone);
    EXPECT_EQ(frame, base);
  }
  EXPECT_EQ(injector.stats().total_faults(), 0u);
}

}  // namespace
}  // namespace tls::faults
