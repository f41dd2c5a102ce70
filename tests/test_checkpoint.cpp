// Durable checkpoint/resume (core/checkpoint.hpp). Built as its own binary
// (tls_checkpoint_tests) with a custom main: when invoked with
// `--checkpoint-child`, the process re-enters itself as a study worker that
// journals an export and — via StudyOptions::checkpoint_kill_after_frames —
// SIGKILLs itself mid-journal. The gtest side forks those children to drive
// a real crash matrix: murdered at several journal offsets, resumed, and
// byte-compared against an uninterrupted reference at multiple thread
// counts and fault rates.
//
// Also covered in-process: frame/manifest codecs, the options digest,
// journal replay/quarantine mechanics, and the frame-fault soak.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/journal.hpp"
#include "core/study.hpp"
#include "faults/injector.hpp"
#include "tlscore/fnv.hpp"
#include "wire/buffer.hpp"
#include "wire/errors.hpp"

namespace fs = std::filesystem;

namespace {

using tls::core::Month;
using tls::study::CheckpointManifest;
using tls::study::FrameHeader;
using tls::study::FrameKind;
using tls::study::LongitudinalStudy;
using tls::study::RunJournal;
using tls::study::StudyOptions;
using tls::wire::ParseError;

using Bytes = std::vector<std::uint8_t>;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string chart_csv(LongitudinalStudy& study) {
  std::string all;
  for (const auto& chart :
       {study.figure1_versions(), study.figure2_negotiated_classes(),
        study.figure3_advertised_classes(),
        study.figure4_fingerprint_support(),
        study.figure5_relative_positions(), study.figure6_rc4_advertised(),
        study.figure7_weak_advertised(), study.figure8_key_exchange(),
        study.figure9_aead_negotiated(), study.figure10_aead_advertised()}) {
    all += tls::analysis::to_csv(chart);
  }
  return all;
}

/// The one option set shared by parent references and forked children —
/// crash matrix comparisons are only meaningful if both sides agree on it.
StudyOptions matrix_options(int fault_milli) {
  StudyOptions o;
  o.connections_per_month = 300;
  o.full_catalog = false;
  o.window = {Month(2014, 6), Month(2015, 3)};
  if (fault_milli > 0) {
    o.faults = tls::faults::FaultConfig::uniform(fault_milli / 1000.0);
  }
  return o;
}

/// Small passive-only option set for the in-process journal tests.
StudyOptions journal_options(const std::string& ckpt_dir) {
  auto o = matrix_options(0);
  o.window = {Month(2015, 1), Month(2015, 6)};
  o.checkpoint_dir = ckpt_dir;
  return o;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Every frame the segment store under `ckpt` holds, in append order.
std::vector<Bytes> journal_frames(const fs::path& ckpt) {
  tls::study::PosixJournalBackend backend(ckpt.string());
  std::vector<Bytes> frames;
  for (const auto id : backend.list_segments()) {
    Bytes bytes;
    if (!backend.read_segment(id, bytes)) continue;
    for (auto& frame : tls::study::scan_segment(bytes).frames) {
      frames.push_back(std::move(frame));
    }
  }
  return frames;
}

/// Replaces the segment store under `ckpt` with one segment holding
/// `frames` as one checksummed group, followed by the raw bytes `tail`.
/// Damage forged into a frame passes the group checksum, so replay meets
/// it frame by frame.
void rewrite_journal(const fs::path& ckpt, std::uint64_t digest,
                     const std::vector<Bytes>& frames, const Bytes& tail) {
  tls::study::PosixJournalBackend backend(ckpt.string());
  for (const auto id : backend.list_segments()) backend.remove_segment(id);
  ASSERT_TRUE(backend.open_segment(1));
  ASSERT_TRUE(backend.append(tls::study::encode_group(digest, frames)));
  ASSERT_TRUE(backend.append(tail));
  ASSERT_TRUE(backend.sync());
  backend.close_segment();
}

/// The first half of a group holding `frame`: a write torn by a crash.
Bytes torn_group(std::uint64_t digest, const Bytes& frame) {
  const auto group =
      tls::study::encode_group(digest, std::vector<Bytes>{frame});
  return Bytes(group.begin(),
               group.begin() + static_cast<std::ptrdiff_t>(group.size() / 2));
}

// ---- child side of the crash matrix ------------------------------------

/// `<exe> --checkpoint-child <ckpt> <threads> <fault_milli> <kill> <out>
/// <group_frames>`: journals an export with that group-commit flush
/// threshold, possibly SIGKILLing itself after <kill> durable frames.
int run_checkpoint_child(int argc, char** argv) {
  if (argc != 8) return 2;
  auto opts = matrix_options(std::atoi(argv[4]));
  opts.checkpoint_dir = argv[2];
  opts.resume = true;  // empty dir on the first pass; replay afterwards
  opts.threads = static_cast<unsigned>(std::atoi(argv[3]));
  opts.checkpoint_kill_after_frames =
      static_cast<std::size_t>(std::atol(argv[5]));
  opts.journal_group_frames = static_cast<std::size_t>(std::atol(argv[7]));
  LongitudinalStudy study(opts);
  study.export_figures(argv[6]);
  return 0;
}

/// `<exe> --signal-drain-child <ckpt> <term_after> <out>`: journals an
/// export in grouped mode with UNREACHABLE group thresholds (the linger
/// buffer can never commit organically), arranges a SIGTERM after
/// <term_after> appends, and handles it exactly like study_cli does —
/// sigwait watcher, drain_checkpoint(), _Exit(0). Exits 1 if the export
/// completes without the signal ever firing, so the parent can tell a
/// dead seam from a successful drain.
int run_signal_drain_child(int argc, char** argv) {
  if (argc != 5) return 2;
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto opts = matrix_options(0);
  opts.checkpoint_dir = argv[2];
  opts.resume = true;
  opts.threads = 4;
  opts.checkpoint_term_after_frames =
      static_cast<std::size_t>(std::atol(argv[3]));
  // Thresholds no export of this size can reach: only a drain (flush +
  // fsync) can make the lingering frames durable, so every frame the
  // parent later replays is proof the signal path flushed.
  opts.journal_group_frames = 1u << 20;
  opts.journal_group_ms = 600'000;

  LongitudinalStudy study(opts);
  std::atomic<bool> done{false};
  std::thread watcher([&sigs, &study, &done] {
    int sig = 0;
    sigwait(&sigs, &sig);
    if (done.load()) return;
    study.drain_checkpoint();
    std::_Exit(0);  // mid-export, like study_cli: drained, leave now
  });
  study.export_figures(argv[4]);
  done.store(true);
  pthread_kill(watcher.native_handle(), SIGTERM);
  watcher.join();
  return 1;  // the seam was supposed to interrupt the export
}

int spawn_drain_child(const std::string& ckpt, const std::string& out,
                      std::size_t term_after) {
  const pid_t pid = fork();
  if (pid == 0) {
    const std::string term_s = std::to_string(term_after);
    const char* child_argv[] = {"tls_checkpoint_tests",
                                "--signal-drain-child",
                                ckpt.c_str(),
                                term_s.c_str(),
                                out.c_str(),
                                nullptr};
    execv("/proc/self/exe", const_cast<char* const*>(child_argv));
    _exit(127);  // exec failed
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

/// Forks + re-execs this binary in child mode; returns the wait status.
int spawn_child(const std::string& ckpt, const std::string& out,
                unsigned threads, int fault_milli, std::size_t kill_after,
                long group_frames) {
  const pid_t pid = fork();
  if (pid == 0) {
    const std::string threads_s = std::to_string(threads);
    const std::string fault_s = std::to_string(fault_milli);
    const std::string kill_s = std::to_string(kill_after);
    const std::string group_s = std::to_string(group_frames);
    const char* child_argv[] = {"tls_checkpoint_tests",
                                "--checkpoint-child",
                                ckpt.c_str(),
                                threads_s.c_str(),
                                fault_s.c_str(),
                                kill_s.c_str(),
                                out.c_str(),
                                group_s.c_str(),
                                nullptr};
    execv("/proc/self/exe", const_cast<char* const*>(child_argv));
    _exit(127);  // exec failed
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

// ---- codecs -------------------------------------------------------------

TEST(CheckpointCodec, FrameRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 0, 77};
  const FrameHeader header{FrameKind::kPassiveShard, 24184u, 3u};
  const auto bytes = tls::study::encode_frame(0xdeadbeefcafe1234ull, header,
                                              payload);
  const auto frame = tls::study::decode_frame(bytes);
  EXPECT_EQ(frame.header.kind, FrameKind::kPassiveShard);
  EXPECT_EQ(frame.header.month_index, 24184u);
  EXPECT_EQ(frame.header.slot, 3u);
  EXPECT_EQ(frame.options_digest, 0xdeadbeefcafe1234ull);
  EXPECT_EQ(frame.payload, payload);
  // Empty payloads are legal frames.
  const auto empty = tls::study::encode_frame(1, {}, {});
  EXPECT_TRUE(tls::study::decode_frame(empty).payload.empty());
}

TEST(CheckpointCodec, OnlyPassiveShardFramesDecode) {
  // Kind 2 held a scan-segment probe in format 1. A checksum-valid frame of
  // any kind but kPassiveShard is refused as a bad value.
  for (const std::uint8_t kind : {0, 2, 255}) {
    const auto bytes = tls::study::encode_frame(
        42, {static_cast<FrameKind>(kind), 10, 2}, Bytes(8, 0x11));
    try {
      (void)tls::study::decode_frame(bytes);
      FAIL() << "frame kind " << int{kind} << " must throw";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.code(), tls::wire::ParseErrorCode::kBadValue);
    }
  }
}

TEST(CheckpointCodec, FrameTamperingIsAlwaysDetected) {
  const std::vector<std::uint8_t> payload(64, 0xab);
  const auto bytes = tls::study::encode_frame(
      42, {FrameKind::kPassiveShard, 10, 2}, payload);
  // Any single bit flip anywhere in the frame breaks either a structural
  // check or the trailing checksum.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x20;
    EXPECT_THROW((void)tls::study::decode_frame(bad), ParseError)
        << "byte " << i;
  }
  // Every truncation (torn write) is detected.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)tls::study::decode_frame({bytes.data(), len}),
                 ParseError)
        << "prefix " << len;
  }
  // Trailing garbage after a valid frame is rejected.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)tls::study::decode_frame(padded), ParseError);
}

TEST(CheckpointCodec, OversizedDeclaredLengthRejectedBeforeAllocation) {
  const std::vector<std::uint8_t> payload(2048, 0x5a);
  const auto bytes = tls::study::encode_frame(
      7, {FrameKind::kPassiveShard, 1, 2}, payload);
  // At or above the declared size the frame decodes normally.
  EXPECT_EQ(tls::study::decode_frame(bytes).payload.size(), payload.size());
  EXPECT_EQ(tls::study::decode_frame(bytes, 2048).payload.size(), 2048u);
  // One byte under it: rejected as kBadLength, not kTruncated/kBadValue —
  // the length gate fires before the payload is ever materialized.
  try {
    (void)tls::study::decode_frame(bytes, 2047);
    FAIL() << "oversized declared payload must throw";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), tls::wire::ParseErrorCode::kBadLength);
  }
  // A forged astronomical length field (all 0xff — endian-proof) dies on
  // the same pre-allocation guard under the default cap; without it the
  // reader would chase a 4 GiB claim through a 2 KiB frame.
  auto forged = bytes;
  // payload_len is the u32 after magic(4) + version(4) + digest(8) +
  // kind(1) + month(4) + slot(4) = offset 25.
  for (std::size_t i = 25; i < 29; ++i) forged[i] = 0xff;
  try {
    (void)tls::study::decode_frame(forged);
    FAIL() << "forged length must throw";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), tls::wire::ParseErrorCode::kBadLength);
  }
}

TEST(CheckpointCodec, ManifestRoundTripAndVersionGate) {
  CheckpointManifest m;
  m.options_digest = 0x1122334455667788ull;
  m.seed = 99;
  m.window_begin = 24170;
  m.window_end = 24185;
  m.shards_per_month = 8;
  m.connections_per_month = 1200;
  const auto bytes = tls::study::encode_manifest(m);
  EXPECT_EQ(tls::study::decode_manifest(bytes), m);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)tls::study::decode_manifest({bytes.data(), len}),
                 ParseError);
  }
  auto foreign = m;
  foreign.format_version = tls::study::kCheckpointFormatVersion + 1;
  EXPECT_THROW((void)tls::study::decode_manifest(
                   tls::study::encode_manifest(foreign)),
               ParseError);
}

TEST(CheckpointCodec, OptionsDigestTracksByteAffectingFieldsOnly) {
  const auto base = matrix_options(0);
  const auto digest = tls::study::options_digest(base);
  EXPECT_EQ(tls::study::options_digest(base), digest);  // deterministic

  // Fields that change exported bytes must change the digest.
  auto o = base;
  o.seed = 43;
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.connections_per_month += 1;
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.window.end_month = Month(2015, 4);
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.full_catalog = !o.full_catalog;
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.faults = tls::faults::FaultConfig::uniform(0.10);
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.fault_seed ^= 1;
  EXPECT_NE(tls::study::options_digest(o), digest);
  o = base;
  o.shards_per_month = 4;
  EXPECT_NE(tls::study::options_digest(o), digest);

  // Pure accelerator / checkpoint knobs must NOT orphan a journal, and
  // neither may the scan policy: no scan result is journaled.
  o = base;
  o.threads = 8;
  o.fast_observe = false;
  o.checkpoint_dir = "/anywhere";
  o.resume = true;
  o.scan_policy.retry.max_attempts += 1;
  o.scan_policy.network.timeout = 0.25;
  o.scan_policy.seed ^= 1;
  o.checkpoint_faults = tls::faults::FaultConfig::frames_only(0.5);
  o.checkpoint_fault_seed ^= 1;
  o.checkpoint_kill_after_frames = 3;
  // Group-commit knobs only change how frames are batched; switching them
  // mid-project must resume, not orphan.
  o.journal_group_frames = 1;
  o.journal_group_ms = 0;
  EXPECT_EQ(tls::study::options_digest(o), digest);
}

// ---- journal mechanics (direct RunJournal use) --------------------------

TEST(RunJournal, AppendThenResumeReplaysVerifiedFrames) {
  const auto dir = fresh_dir("journal_basic");
  CheckpointManifest manifest;
  manifest.options_digest = 7;
  const std::vector<std::uint8_t> pay_a = {1, 2, 3};
  const std::vector<std::uint8_t> pay_b = {9};
  {
    RunJournal journal({dir.string(), /*resume=*/false, manifest});
    journal.append(FrameKind::kPassiveShard, 100, 0, pay_a);
    journal.append(FrameKind::kPassiveShard, 200, 5, pay_b);
  }
  RunJournal resumed({dir.string(), /*resume=*/true, manifest});
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 2u);
  EXPECT_EQ(report.frames_corrupt, 0u);
  ASSERT_NE(resumed.replayed(FrameKind::kPassiveShard, 100, 0), nullptr);
  EXPECT_EQ(*resumed.replayed(FrameKind::kPassiveShard, 100, 0), pay_a);
  ASSERT_NE(resumed.replayed(FrameKind::kPassiveShard, 200, 5), nullptr);
  EXPECT_EQ(*resumed.replayed(FrameKind::kPassiveShard, 200, 5), pay_b);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 100, 1), nullptr);
  fs::remove_all(dir);
}

TEST(RunJournal, ColdStartWipesExistingFrames) {
  const auto dir = fresh_dir("journal_wipe");
  CheckpointManifest manifest;
  {
    RunJournal journal({dir.string(), false, manifest});
    journal.append(FrameKind::kPassiveShard, 1, 0, {{1}});
  }
  ASSERT_EQ(journal_frames(dir).size(), 1u);
  RunJournal cold({dir.string(), /*resume=*/false, manifest});
  EXPECT_EQ(cold.replayed(FrameKind::kPassiveShard, 1, 0), nullptr);
  EXPECT_FALSE(cold.snapshot_report().resumed);
  EXPECT_TRUE(journal_frames(dir).empty());
  fs::remove_all(dir);
}

TEST(RunJournal, DamagedFramesAreQuarantinedNeverFatal) {
  const auto dir = fresh_dir("journal_damage");
  CheckpointManifest manifest;
  manifest.options_digest = 11;
  {
    RunJournal journal({dir.string(), false, manifest});
    for (std::uint32_t s = 0; s < 4; ++s) {
      journal.append(FrameKind::kPassiveShard, 50, s,
                     std::vector<std::uint8_t>(32, std::uint8_t(s)));
    }
  }
  auto frames = journal_frames(dir);
  ASSERT_EQ(frames.size(), 4u);
  frames[0][frames[0].size() / 2] ^= 0x01;  // bit-rot frame 0
  frames[1].resize(frames[1].size() / 3);   // tear frame 1
  // Frame 2 rewritten under a different options digest.
  frames[2] = tls::study::encode_frame(
      manifest.options_digest + 1, {FrameKind::kPassiveShard, 50, 2},
      Bytes(8, 0xcc));
  // A crash mid-write leaves half of a later group behind.
  rewrite_journal(
      dir, manifest.options_digest, frames,
      torn_group(manifest.options_digest,
                 tls::study::encode_frame(manifest.options_digest,
                                          {FrameKind::kPassiveShard, 50, 9},
                                          Bytes(8, 0x99))));

  RunJournal resumed({dir.string(), /*resume=*/true, manifest});
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 1u);  // only frame 3 survived
  EXPECT_EQ(report.frames_corrupt, 2u);   // bit-rot + tear
  EXPECT_EQ(report.groups_torn, 1u);      // the half group
  EXPECT_EQ(report.frames_mismatched, 1u);
  EXPECT_EQ(report.quarantined.size(), 4u);  // 3 frames + the torn tail
  for (const auto& q : report.quarantined) {
    EXPECT_TRUE(fs::exists(q)) << q;
  }
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 50, 0), nullptr);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 50, 1), nullptr);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 50, 2), nullptr);
  EXPECT_NE(resumed.replayed(FrameKind::kPassiveShard, 50, 3), nullptr);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 50, 9), nullptr);
  fs::remove_all(dir);
}

TEST(RunJournal, FramesAboveConfiguredMaxAreQuarantinedNotFatal) {
  const auto dir = fresh_dir("journal_maxlen");
  CheckpointManifest manifest;
  manifest.options_digest = 5;
  {
    RunJournal journal({dir.string(), /*resume=*/false, manifest});
    journal.append(FrameKind::kPassiveShard, 9, 0,
                   std::vector<std::uint8_t>(4096, 1));
    journal.append(FrameKind::kPassiveShard, 9, 1,
                   std::vector<std::uint8_t>(16, 2));
  }
  // Replay under a 1 KiB cap: the 4 KiB frame is booked corrupt and
  // quarantined (taxonomy, not abort); the small frame still replays.
  RunJournal::Config strict{dir.string(), /*resume=*/true, manifest};
  strict.max_frame_bytes = 1024;
  RunJournal resumed(std::move(strict));
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 1u);
  EXPECT_EQ(report.frames_corrupt, 1u);
  EXPECT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 9, 0), nullptr);
  EXPECT_NE(resumed.replayed(FrameKind::kPassiveShard, 9, 1), nullptr);
  fs::remove_all(dir);
}

TEST(RunJournal, ManifestMismatchInvalidatesEveryFrame) {
  const auto dir = fresh_dir("journal_mismatch");
  CheckpointManifest manifest;
  manifest.options_digest = 1;
  manifest.seed = 42;
  {
    RunJournal journal({dir.string(), false, manifest});
    journal.append(FrameKind::kPassiveShard, 7, 0, {{1, 2}});
  }
  auto other = manifest;
  other.seed = 43;
  other.options_digest = 2;
  RunJournal resumed({dir.string(), /*resume=*/true, other});
  const auto report = resumed.snapshot_report();
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 0u);
  EXPECT_EQ(report.frames_mismatched, 1u);
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 7, 0), nullptr);
  // The journal was re-stamped for the new run: appending then resuming
  // under `other` works.
  resumed.append(FrameKind::kPassiveShard, 7, 0, {{3, 4}});
  resumed.flush();
  RunJournal again({dir.string(), /*resume=*/true, other});
  EXPECT_TRUE(again.snapshot_report().resumed);
  ASSERT_NE(again.replayed(FrameKind::kPassiveShard, 7, 0), nullptr);
  fs::remove_all(dir);
}

// ---- study-level behaviour ----------------------------------------------

TEST(CheckpointStudy, JournalingChangesNoExportedByte) {
  const auto ckpt = fresh_dir("study_onoff_ckpt");
  const auto out_plain = fresh_dir("study_onoff_plain");
  const auto out_journaled = fresh_dir("study_onoff_journaled");

  auto plain_opts = matrix_options(0);
  LongitudinalStudy plain(plain_opts);
  const auto plain_files = plain.export_figures(out_plain.string());
  ASSERT_EQ(plain_files.size(), 11u);

  auto jopts = plain_opts;
  jopts.checkpoint_dir = ckpt.string();
  jopts.threads = 8;
  LongitudinalStudy journaled(jopts);
  const auto journaled_files = journaled.export_figures(out_journaled.string());
  ASSERT_EQ(journaled_files.size(), plain_files.size());
  for (std::size_t i = 0; i < plain_files.size(); ++i) {
    EXPECT_EQ(slurp(journaled_files[i]), slurp(plain_files[i]))
        << plain_files[i];
  }

  // The journal actually materialized — manifest plus checksummed groups
  // in the segment store, the only store there is.
  EXPECT_TRUE(fs::exists(ckpt / "MANIFEST"));
  const auto report = journaled.recovery();
  EXPECT_FALSE(report.resumed);
  EXPECT_GT(report.tasks_recomputed, 0u);
  EXPECT_EQ(report.tasks_skipped, 0u);
  EXPECT_GT(report.groups_committed, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);
  EXPECT_EQ(journal_frames(ckpt).size(), report.tasks_recomputed);
  EXPECT_FALSE(fs::exists(ckpt / "frames"));

  // Resume in a fresh process-equivalent: every task served from journal.
  auto ropts = jopts;
  ropts.resume = true;
  ropts.threads = 0;  // resume across thread counts, same bytes
  const auto out_resumed = fresh_dir("study_onoff_resumed");
  LongitudinalStudy resumed(ropts);
  const auto resumed_files = resumed.export_figures(out_resumed.string());
  for (std::size_t i = 0; i < plain_files.size(); ++i) {
    EXPECT_EQ(slurp(resumed_files[i]), slurp(plain_files[i]));
  }
  const auto rreport = resumed.recovery();
  EXPECT_TRUE(rreport.resumed);
  EXPECT_EQ(rreport.tasks_recomputed, 0u);
  EXPECT_EQ(rreport.tasks_skipped, report.tasks_recomputed);
  EXPECT_EQ(rreport.frames_replayed, report.tasks_recomputed);

  for (const auto& d : {ckpt, out_plain, out_journaled, out_resumed}) {
    fs::remove_all(d);
  }
}

TEST(CheckpointStudy, ExportJournalsOnlyThePassivePlan) {
  // A journaled export writes one frame per (month, shard) task and none
  // for the scan sweep. A resume accounts for exactly those tasks, even
  // with a different scan policy: the sweep is recomputed, so the policy
  // is not part of the journal's identity.
  const auto ckpt = fresh_dir("study_plan_only");
  const auto out = fresh_dir("study_plan_only_out");
  const auto opts = journal_options(ckpt.string());
  const std::size_t plan = static_cast<std::size_t>(opts.window.size()) *
                           opts.shards_per_month;
  {
    LongitudinalStudy first(opts);
    (void)first.export_figures(out.string());
    EXPECT_EQ(first.recovery().tasks_recomputed, plan);
  }
  const auto frames = journal_frames(ckpt);
  ASSERT_EQ(frames.size(), plan);
  for (const auto& frame : frames) {
    EXPECT_EQ(tls::study::decode_frame(frame).header.kind,
              FrameKind::kPassiveShard);
  }

  auto ropts = opts;
  ropts.resume = true;
  ropts.scan_policy.network.timeout = 0.2;
  auto plain = ropts;
  plain.checkpoint_dir.clear();
  const auto out_plain = fresh_dir("study_plan_only_plain");
  LongitudinalStudy reference(plain);
  const auto ref_files = reference.export_figures(out_plain.string());
  LongitudinalStudy resumed(ropts);
  const auto files = resumed.export_figures(out.string());
  ASSERT_EQ(files.size(), ref_files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(slurp(files[i]), slurp(ref_files[i])) << ref_files[i];
  }
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.tasks_skipped + report.tasks_recomputed, plan);
  EXPECT_EQ(report.tasks_skipped, plan);
  EXPECT_EQ(report.frames_mismatched, 0u);
  for (const auto& d : {ckpt, out, out_plain}) fs::remove_all(d);
}

TEST(CheckpointStudy, GroupCommitIssuesFewerFsyncsThanFrames) {
  // Over a whole journaled study, group commit amortizes fsyncs: strictly
  // fewer than the frames it commits. The linger is raised far past the
  // run's length so the count does not depend on how fast this build
  // runs (sanitizer builds are several times slower); groups then close
  // on the frame threshold or the end-of-run flush.
  const auto ckpt = fresh_dir("study_group_commit");
  auto opts = matrix_options(0);
  opts.checkpoint_dir = ckpt.string();
  opts.journal_group_ms = 60'000;
  LongitudinalStudy study(opts);
  const auto* fsync = study.metrics().find("tls_repro_journal_fsync_total");
  ASSERT_NE(fsync, nullptr);
  const std::uint64_t frames = study.recovery().tasks_recomputed;
  EXPECT_GT(frames, 1u);
  EXPECT_GT(fsync->counter.value, 0u);
  EXPECT_LT(fsync->counter.value, frames);
  fs::remove_all(ckpt);
}

TEST(CheckpointStudy, CorruptFramesAreRecomputedToIdenticalBytes) {
  const auto ckpt = fresh_dir("study_corrupt");
  const auto opts = journal_options(ckpt.string());
  const auto digest = tls::study::options_digest(opts);

  auto plain = opts;
  plain.checkpoint_dir.clear();
  LongitudinalStudy reference(plain);
  const auto ref_csv = chart_csv(reference);

  {
    LongitudinalStudy first(opts);
    (void)first.monitor();
    EXPECT_GT(first.recovery().tasks_recomputed, 0u);
  }
  // The damage is forged inside the segment's group, frame by frame.
  auto frames = journal_frames(ckpt);
  ASSERT_GE(frames.size(), 3u);
  // Bit-rot one frame (its frame checksum catches it on replay).
  frames[0][frames[0].size() - 9] ^= 0x40;
  // Valid wrapper, garbage payload: survives replay, fails the monitor
  // decode inside run(), and must take the invalidate() path.
  frames[1] = tls::study::encode_frame(
      digest, tls::study::decode_frame(frames[1]).header, Bytes(40, 0xee));
  // And a torn copy of frame 2 in a half-written later group.
  rewrite_journal(ckpt, digest, frames, torn_group(digest, frames[2]));

  auto ropts = opts;
  ropts.resume = true;
  LongitudinalStudy resumed(ropts);
  EXPECT_EQ(chart_csv(resumed), ref_csv);  // damage cost recompute, not bytes
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_corrupt, 2u);  // bit-rot + invalidated payload
  EXPECT_EQ(report.groups_torn, 1u);
  EXPECT_EQ(report.tasks_recomputed, 2u);
  EXPECT_GT(report.tasks_skipped, 0u);
  EXPECT_EQ(report.quarantined.size(), 3u);
  for (const auto& q : report.quarantined) EXPECT_TRUE(fs::exists(q)) << q;
  fs::remove_all(ckpt);
}

TEST(CheckpointStudy, VersionOneSnapshotIsRecomputedToIdenticalBytes) {
  // A journal written before the monitor snapshot format dropped its
  // observe-cache counters (version 1) holds well-formed frames whose
  // payload no longer decodes. Resume must recompute exactly those shards
  // and still export the same bytes.
  const auto ckpt = fresh_dir("study_snapshot_v1");
  const auto opts = journal_options(ckpt.string());

  auto plain = opts;
  plain.checkpoint_dir.clear();
  LongitudinalStudy reference(plain);
  const auto ref_csv = chart_csv(reference);

  {
    LongitudinalStudy first(opts);
    (void)first.monitor();
  }
  auto frames = journal_frames(ckpt);
  ASSERT_GE(frames.size(), 2u);
  const auto frame = tls::study::decode_frame(frames[1]);
  // Version 1 = version 2's layout plus 14 trailing cache-counter words.
  tls::wire::ByteWriter w;
  w.u32(1);
  w.bytes(std::span<const std::uint8_t>(frame.payload).subspan(4));
  for (int i = 0; i < 14; ++i) w.u64(0);
  frames[1] =
      tls::study::encode_frame(frame.options_digest, frame.header, w.data());
  rewrite_journal(ckpt, frame.options_digest, frames, {});

  auto ropts = opts;
  ropts.resume = true;
  LongitudinalStudy resumed(ropts);
  EXPECT_EQ(chart_csv(resumed), ref_csv);
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_corrupt, 1u);
  EXPECT_EQ(report.tasks_recomputed, 1u);
  EXPECT_EQ(report.tasks_skipped + 1, frames.size());
  fs::remove_all(ckpt);
}

TEST(CheckpointStudy, FrameFilesFromAnOlderBuildAreIgnored) {
  // Older builds could also keep one file per frame under frames/. That
  // store is gone: a frame file left there is neither read nor trusted,
  // and its task is recomputed.
  const auto ckpt = fresh_dir("study_old_frames");
  const auto out_plain = fresh_dir("study_old_frames_plain");
  const auto out_first = fresh_dir("study_old_frames_first");
  const auto out_resumed = fresh_dir("study_old_frames_resumed");
  const auto opts = journal_options(ckpt.string());
  const auto digest = tls::study::options_digest(opts);

  auto plain = opts;
  plain.checkpoint_dir.clear();
  LongitudinalStudy reference(plain);
  const auto ref_files = reference.export_figures(out_plain.string());
  ASSERT_EQ(ref_files.size(), 11u);
  {
    LongitudinalStudy first(opts);
    (void)first.export_figures(out_first.string());
  }

  // Move one passive task out of the segment store into a frames/ file,
  // carrying another shard's payload: trusting it would change bytes.
  auto frames = journal_frames(ckpt);
  ASSERT_GE(frames.size(), 2u);
  const auto moved = tls::study::decode_frame(frames[0]);
  const auto other = tls::study::decode_frame(frames[1]);
  ASSERT_EQ(moved.header.kind, FrameKind::kPassiveShard);
  ASSERT_EQ(other.header.kind, FrameKind::kPassiveShard);
  frames.erase(frames.begin());
  rewrite_journal(ckpt, digest, frames, {});
  char name[32];
  std::snprintf(name, sizeof(name), "p_%06u_%04u.frame",
                moved.header.month_index, moved.header.slot);
  fs::create_directories(ckpt / "frames");
  ASSERT_TRUE(tls::study::write_file_durable(
      (ckpt / "frames" / name).string(),
      tls::study::encode_frame(digest, moved.header, other.payload)));

  auto ropts = opts;
  ropts.resume = true;
  LongitudinalStudy resumed(ropts);
  std::vector<std::string> files;
  ASSERT_NO_THROW(files = resumed.export_figures(out_resumed.string()));
  ASSERT_EQ(files.size(), ref_files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(slurp(files[i]), slurp(ref_files[i])) << ref_files[i];
  }
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, frames.size());
  EXPECT_EQ(report.tasks_skipped, frames.size());
  EXPECT_EQ(report.tasks_recomputed, 1u);  // the moved task
  for (const auto& d : {ckpt, out_plain, out_first, out_resumed}) {
    fs::remove_all(d);
  }
}

TEST(CheckpointStudy, IndexFileFromAnOlderBuildIsIgnored) {
  // Older builds also kept an INDEX sidecar of {segment, offset, length}
  // entries next to the segments. Nothing reads it any more: a leftover
  // one, even pointing at a wrong offset and trailed by garbage, changes
  // neither what replays nor a single exported byte.
  const auto ckpt = fresh_dir("study_old_index");
  const auto out_plain = fresh_dir("study_old_index_plain");
  const auto out_first = fresh_dir("study_old_index_first");
  const auto out_resumed = fresh_dir("study_old_index_resumed");
  const auto opts = journal_options(ckpt.string());

  auto plain = opts;
  plain.checkpoint_dir.clear();
  LongitudinalStudy reference(plain);
  const auto ref_files = reference.export_figures(out_plain.string());
  ASSERT_EQ(ref_files.size(), 11u);
  {
    LongitudinalStudy first(opts);
    (void)first.export_figures(out_first.string());
  }
  const std::size_t n_frames = journal_frames(ckpt).size();
  ASSERT_GT(n_frames, 0u);

  // The old entry layout: magic "TLSX", segment u32, offset u64,
  // length u64, fnv1a64 of the preceding bytes.
  tls::wire::ByteWriter w;
  w.u32(0x544c5358);
  w.u32(1);
  w.u64(999999);
  w.u64(5);
  w.u64(tls::core::fnv1a64(w.data()));
  for (int i = 0; i < 19; ++i) w.u8(static_cast<std::uint8_t>(i * 37 + 11));
  ASSERT_TRUE(tls::study::write_file_durable(
      (ckpt / "segments" / "INDEX").string(), w.data()));

  auto ropts = opts;
  ropts.resume = true;
  LongitudinalStudy resumed(ropts);
  std::vector<std::string> files;
  ASSERT_NO_THROW(files = resumed.export_figures(out_resumed.string()));
  ASSERT_EQ(files.size(), ref_files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(slurp(files[i]), slurp(ref_files[i])) << ref_files[i];
  }
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, n_frames);
  EXPECT_EQ(report.tasks_skipped, n_frames);
  EXPECT_EQ(report.tasks_recomputed, 0u);
  for (const auto& d : {ckpt, out_plain, out_first, out_resumed}) {
    fs::remove_all(d);
  }
}

TEST(CheckpointStudy, OptionChangeOrphansJournalGracefully) {
  const auto ckpt = fresh_dir("study_orphan");
  auto opts = journal_options(ckpt.string());
  std::size_t n_frames = 0;
  {
    LongitudinalStudy first(opts);
    (void)first.monitor();
    // One frame journaled per computed task — counted via the report since
    // grouped mode keeps frames inside segments, not one file each.
    n_frames = first.recovery().tasks_recomputed;
  }
  ASSERT_GT(n_frames, 0u);

  // Different seed => different bytes => every old frame must be rejected.
  auto other = opts;
  other.seed = opts.seed + 1;
  other.resume = true;
  auto other_plain = other;
  other_plain.checkpoint_dir.clear();
  LongitudinalStudy reference(other_plain);
  LongitudinalStudy resumed(other);
  EXPECT_EQ(chart_csv(resumed), chart_csv(reference));
  const auto report = resumed.recovery();
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.frames_mismatched, n_frames);
  EXPECT_EQ(report.tasks_skipped, 0u);
  fs::remove_all(ckpt);
}

TEST(CheckpointStudy, FrameFaultSoakNeverChangesBytes) {
  // Hostile journal: a third of appended frames are torn, bit-flipped, or
  // duplicated before reaching disk. Neither the journaled run nor a
  // resume over the damaged journal may change one exported byte.
  const auto ckpt = fresh_dir("study_soak");
  auto opts = journal_options(ckpt.string());
  auto plain = opts;
  plain.checkpoint_dir.clear();
  LongitudinalStudy reference(plain);
  const auto ref_csv = chart_csv(reference);

  opts.checkpoint_faults = tls::faults::FaultConfig::frames_only(0.9);
  {
    LongitudinalStudy soaked(opts);
    EXPECT_EQ(chart_csv(soaked), ref_csv);
  }
  auto ropts = opts;
  ropts.resume = true;
  ropts.checkpoint_faults = {};  // repair pass journals cleanly
  LongitudinalStudy resumed(ropts);
  EXPECT_EQ(chart_csv(resumed), ref_csv);
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  // At a 90% combined frame-fault rate, the damage must actually land.
  EXPECT_GT(report.frames_corrupt + report.frames_duplicate +
                report.frames_mismatched,
            0u);
  const auto n_tasks = static_cast<std::size_t>(opts.window.size()) *
                       opts.shards_per_month;
  EXPECT_EQ(report.tasks_skipped + report.tasks_recomputed, n_tasks);
  fs::remove_all(ckpt);
}

// ---- the crash matrix ---------------------------------------------------

TEST(CheckpointCrashMatrix, KillResumeByteIdenticalAcrossThreadsAndFaults) {
  for (const int fault_milli : {0, 100}) {
    SCOPED_TRACE("fault_milli=" + std::to_string(fault_milli));

    // Uninterrupted reference export (no checkpointing at all).
    const auto ref_dir =
        fresh_dir("crash_ref_" + std::to_string(fault_milli));
    LongitudinalStudy reference(matrix_options(fault_milli));
    const auto ref_files = reference.export_figures(ref_dir.string());
    ASSERT_EQ(ref_files.size(), 11u);

    // One complete journaled run establishes the total frame count (one
    // frame per passive task) so the kill offsets below provably land
    // inside the journal: after the first frame, mid-plan, and two frames
    // before the plan's end.
    const auto probe_ckpt =
        fresh_dir("crash_probe_" + std::to_string(fault_milli));
    const auto probe_out =
        fresh_dir("crash_probe_out_" + std::to_string(fault_milli));
    std::size_t total_frames = 0;
    {
      auto probe_opts = matrix_options(fault_milli);
      probe_opts.checkpoint_dir = probe_ckpt.string();
      LongitudinalStudy probe(probe_opts);
      (void)probe.export_figures(probe_out.string());
      total_frames = probe.recovery().tasks_recomputed;
    }
    ASSERT_GT(total_frames, 4u);
    for (const auto& f : ref_files) {
      const auto name = fs::path(f).filename();
      EXPECT_EQ(slurp((probe_out / name).string()), slurp(f)) << name;
    }
    fs::remove_all(probe_ckpt);
    fs::remove_all(probe_out);

    // Group-size lanes: the default flush threshold (64) and degenerate
    // one-frame groups (1) — the latter as a cheap smoke lane; CI runs the
    // full matrix at both group sizes.
    const std::size_t offsets[] = {1, total_frames / 2, total_frames - 2};
    for (const long group_frames : {64L, 1L}) {
      SCOPED_TRACE("group_frames=" + std::to_string(group_frames));
      for (const unsigned threads : {0u, 8u}) {
        for (const std::size_t kill_after : offsets) {
          // Keep the matrix affordable: the serial lane runs the mid
          // offset only; the threaded lane runs all three; the one-frame
          // group lane runs only threaded-mid.
          if (threads == 0 && kill_after != total_frames / 2) continue;
          if (group_frames == 1L &&
              (threads == 0 || kill_after != total_frames / 2)) {
            continue;
          }
          SCOPED_TRACE("threads=" + std::to_string(threads) +
                       " kill_after=" + std::to_string(kill_after));
          const auto tag = std::to_string(fault_milli) + "_" +
                           std::to_string(threads) + "_" +
                           std::to_string(kill_after) + "_g" +
                           std::to_string(group_frames);
          const auto ckpt = fresh_dir("crash_ckpt_" + tag);
          const auto out = fresh_dir("crash_out_" + tag);

          // Phase 1: the child is SIGKILLed mid-journal — no atexit, no
          // stack unwinding, exactly like a power cut. The seam fires in
          // the writer right after a group fsync, so at least kill_after
          // frames are durable in the segments.
          const int killed = spawn_child(ckpt.string(), out.string(),
                                         threads, fault_milli, kill_after,
                                         group_frames);
          ASSERT_TRUE(WIFSIGNALED(killed)) << "status " << killed;
          EXPECT_EQ(WTERMSIG(killed), SIGKILL);
          EXPECT_GE(journal_frames(ckpt).size(), kill_after);
          // The killed journal really replays: a probe over a copy (phase 2
          // must meet the journal exactly as the kill left it) accepts the
          // child's manifest and verifies at least kill_after frames. A
          // manifest or digest bug would turn the resume into a cold run
          // that still exports the right bytes.
          const auto copy = fresh_dir("crash_copy_" + tag);
          fs::copy(ckpt, copy, fs::copy_options::recursive);
          {
            RunJournal probe({copy.string(), /*resume=*/true,
                              tls::study::make_manifest(
                                  matrix_options(fault_milli))});
            const auto report = probe.snapshot_report();
            EXPECT_TRUE(report.resumed);
            EXPECT_GE(report.frames_replayed, kill_after);
            EXPECT_EQ(report.frames_corrupt, 0u);
            EXPECT_EQ(report.frames_mismatched, 0u);
          }
          fs::remove_all(copy);

          // Phase 2: resume to completion in a fresh process.
          const int resumed = spawn_child(ckpt.string(), out.string(),
                                          threads, fault_milli, 0,
                                          group_frames);
          ASSERT_TRUE(WIFEXITED(resumed) && WEXITSTATUS(resumed) == 0)
              << "status " << resumed;

          // Byte-compare all 11 CSVs against the uninterrupted run.
          for (const auto& f : ref_files) {
            const auto name = fs::path(f).filename();
            EXPECT_EQ(slurp((out / name).string()), slurp(f)) << name;
          }
          fs::remove_all(ckpt);
          fs::remove_all(out);
        }
      }
    }
    fs::remove_all(ref_dir);
  }
}

// ---- the signal-drain lane ----------------------------------------------

TEST(CheckpointSignalDrain, SigtermFlushesLingeringGroupAndResumeCompletes) {
  // Uninterrupted reference export.
  const auto ref_dir = fresh_dir("drain_ref");
  LongitudinalStudy reference(matrix_options(0));
  const auto ref_files = reference.export_figures(ref_dir.string());
  ASSERT_EQ(ref_files.size(), 11u);

  const auto ckpt = fresh_dir("drain_ckpt");
  const auto out = fresh_dir("drain_out");
  constexpr std::size_t kTermAfter = 3;

  // Phase 1: the child gets SIGTERM after 3 appends. Its group thresholds
  // are unreachable, so nothing is durable at signal time — a graceful
  // drain must exit 0 having flushed the lingering group; exit 1 means the
  // seam never fired, a termsig means the drain path crashed.
  const int status = spawn_drain_child(ckpt.string(), out.string(),
                                       kTermAfter);
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The watcher _Exit()s mid-run: no figure CSV may have been written.
  EXPECT_TRUE(fs::is_empty(out));

  // The drained frames are really on disk: a fresh replay over the same
  // manifest sees at least kTermAfter verified frames, none of which
  // could have committed organically.
  {
    const auto manifest = tls::study::make_manifest(matrix_options(0));
    RunJournal probe({ckpt.string(), /*resume=*/true, manifest});
    const auto report = probe.snapshot_report();
    EXPECT_TRUE(report.resumed);
    EXPECT_GE(report.frames_replayed, kTermAfter);
    EXPECT_EQ(report.frames_corrupt, 0u);
  }

  // Phase 2: resume to completion in a fresh process; bytes must match
  // the uninterrupted reference exactly.
  const int resumed = spawn_child(ckpt.string(), out.string(), /*threads=*/4,
                                  /*fault_milli=*/0, /*kill_after=*/0,
                                  /*group_frames=*/64);
  ASSERT_TRUE(WIFEXITED(resumed) && WEXITSTATUS(resumed) == 0)
      << "status " << resumed;
  for (const auto& f : ref_files) {
    const auto name = fs::path(f).filename();
    EXPECT_EQ(slurp((out / name).string()), slurp(f)) << name;
  }
  fs::remove_all(ckpt);
  fs::remove_all(out);
  fs::remove_all(ref_dir);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--checkpoint-child") {
    return run_checkpoint_child(argc, argv);
  }
  if (argc > 1 && std::string(argv[1]) == "--signal-drain-child") {
    return run_signal_drain_child(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
