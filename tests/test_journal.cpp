// The group-commit segmented journal (core/journal.hpp): group/index
// codecs, segment scanning, the two backends, the writer's batching and
// its drop-and-count failure policy, and RunJournal-level recovery
// semantics — power cuts, torn tails, torn appends, stale index entries
// and duplicated groups. Study-level soak: group-fault chaos may never
// change an exported byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/study.hpp"
#include "faults/injector.hpp"
#include "wire/errors.hpp"

namespace fs = std::filesystem;

namespace {

using tls::study::CheckpointManifest;
using tls::study::FrameKind;
using tls::study::GroupCommitWriter;
using tls::study::JournalErrorClass;
using tls::study::JournalErrorTaxonomy;
using tls::study::JournalStage;
using tls::study::MemoryJournalBackend;
using tls::study::RunJournal;
using tls::wire::ParseError;

using Bytes = std::vector<std::uint8_t>;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Bytes make_frame(std::uint64_t digest, std::uint32_t month,
                 std::uint32_t slot, std::size_t payload_size) {
  Bytes payload(payload_size);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i + slot);
  }
  return tls::study::encode_frame(
      digest, {FrameKind::kPassiveShard, month, slot}, payload);
}

/// Waits (bounded) until `pred` holds — for the writer's time-based flush.
template <typename Pred>
bool eventually(Pred&& pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---- error taxonomy -----------------------------------------------------

TEST(JournalTaxonomy, ClassifiesErrnoAndExcludesRetriesFromFailures) {
  EXPECT_EQ(tls::study::classify_errno(EINTR), JournalErrorClass::kRetried);
  EXPECT_EQ(tls::study::classify_errno(EAGAIN), JournalErrorClass::kRetried);
  EXPECT_EQ(tls::study::classify_errno(ENOSPC), JournalErrorClass::kNoSpace);
  EXPECT_EQ(tls::study::classify_errno(EDQUOT), JournalErrorClass::kNoSpace);
  EXPECT_EQ(tls::study::classify_errno(EIO), JournalErrorClass::kIo);
  EXPECT_EQ(tls::study::classify_errno(EBADF), JournalErrorClass::kOther);

  JournalErrorTaxonomy t;
  t.record(JournalStage::kWrite, JournalErrorClass::kRetried);
  t.record(JournalStage::kWrite, JournalErrorClass::kRetried);
  t.record(JournalStage::kSync, JournalErrorClass::kIo);
  t.record(JournalStage::kRemove, JournalErrorClass::kNoSpace);
  EXPECT_EQ(t.total(), 4u);
  EXPECT_EQ(t.failures(), 2u);  // retried-and-recovered excluded
  EXPECT_EQ(t.count(JournalStage::kWrite, JournalErrorClass::kRetried), 2u);
  EXPECT_EQ(t.stage_total(JournalStage::kWrite), 2u);

  JournalErrorTaxonomy other;
  other.record(JournalStage::kSync, JournalErrorClass::kIo);
  t.merge(other);
  EXPECT_EQ(t.count(JournalStage::kSync, JournalErrorClass::kIo), 2u);
  EXPECT_EQ(t.failures(), 3u);
}

// ---- group record codec -------------------------------------------------

TEST(GroupCodec, RoundTripPreservesEveryFrameByte) {
  const std::uint64_t digest = 0xabcdef0123456789ull;
  std::vector<Bytes> frames;
  frames.push_back(make_frame(digest, 1, 0, 40));
  frames.push_back(make_frame(digest, 1, 1, 0));  // empty payload is legal
  frames.push_back(make_frame(digest, 2, 0, 333));
  const auto group = tls::study::encode_group(digest, frames);

  std::size_t consumed = 0;
  const auto decoded = tls::study::decode_group(group, &consumed);
  EXPECT_EQ(consumed, group.size());
  EXPECT_EQ(decoded.options_digest, digest);
  ASSERT_EQ(decoded.frames.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded.frames[i], frames[i]) << "frame " << i;
  }
}

TEST(GroupCodec, DecodeStopsAtGroupBoundaryWithTrailingData) {
  const std::uint64_t digest = 7;
  const std::vector<Bytes> frames = {make_frame(digest, 3, 0, 16)};
  auto bytes = tls::study::encode_group(digest, frames);
  const std::size_t group_size = bytes.size();
  // A second group follows — decode_group must consume exactly the first.
  const auto second = tls::study::encode_group(digest, frames);
  bytes.insert(bytes.end(), second.begin(), second.end());
  std::size_t consumed = 0;
  (void)tls::study::decode_group(bytes, &consumed);
  EXPECT_EQ(consumed, group_size);
  // And the remainder decodes as the second group.
  const std::span<const std::uint8_t> rest =
      std::span<const std::uint8_t>(bytes).subspan(consumed);
  std::size_t consumed2 = 0;
  (void)tls::study::decode_group(rest, &consumed2);
  EXPECT_EQ(consumed2, second.size());
}

TEST(GroupCodec, EveryTruncationAndSingleFlipIsRejected) {
  const std::uint64_t digest = 99;
  std::vector<Bytes> frames;
  frames.push_back(make_frame(digest, 8, 0, 24));
  frames.push_back(make_frame(digest, 8, 1, 31));
  const auto group = tls::study::encode_group(digest, frames);

  std::size_t consumed = 0;
  for (std::size_t len = 0; len < group.size(); ++len) {
    EXPECT_THROW((void)tls::study::decode_group({group.data(), len},
                                                &consumed),
                 ParseError)
        << "prefix " << len;
  }
  for (std::size_t i = 0; i < group.size(); ++i) {
    auto bad = group;
    bad[i] ^= 0x10;
    EXPECT_THROW((void)tls::study::decode_group(bad, &consumed), ParseError)
        << "byte " << i;
  }
}

// ---- segment scanning ---------------------------------------------------

TEST(SegmentScan, FindsGroupsAndTruncatesAtTornTail) {
  const std::uint64_t digest = 11;
  Bytes segment;
  std::size_t n_frames = 0;
  for (std::uint32_t g = 0; g < 3; ++g) {
    std::vector<Bytes> frames;
    for (std::uint32_t f = 0; f <= g; ++f) {
      frames.push_back(make_frame(digest, g, f, 10 + 7 * f));
      ++n_frames;
    }
    const auto group = tls::study::encode_group(digest, frames);
    segment.insert(segment.end(), group.begin(), group.end());
  }
  const std::size_t committed = segment.size();
  // A torn tail: half of a fourth group.
  const auto torn = tls::study::encode_group(
      digest, std::vector<Bytes>{make_frame(digest, 9, 0, 50)});
  segment.insert(segment.end(), torn.begin(),
                 torn.begin() + static_cast<std::ptrdiff_t>(torn.size() / 2));

  const auto scan = tls::study::scan_segment(segment);
  EXPECT_EQ(scan.groups, 3u);
  EXPECT_EQ(scan.frames.size(), n_frames);
  EXPECT_EQ(scan.valid_bytes, committed);
  EXPECT_EQ(scan.torn_bytes, segment.size() - committed);
}

TEST(SegmentScan, GarbageAndEmptySegmentsNeverThrow) {
  EXPECT_EQ(tls::study::scan_segment({}).groups, 0u);
  Bytes garbage(513);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 5);
  }
  const auto scan = tls::study::scan_segment(garbage);
  EXPECT_EQ(scan.groups, 0u);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.torn_bytes, garbage.size());
}

TEST(SegmentScan, StopsAtFirstDamagedGroupMidSegment) {
  const std::uint64_t digest = 5;
  const auto a = tls::study::encode_group(
      digest, std::vector<Bytes>{make_frame(digest, 1, 0, 20)});
  auto b = tls::study::encode_group(
      digest, std::vector<Bytes>{make_frame(digest, 2, 0, 20)});
  const auto c = tls::study::encode_group(
      digest, std::vector<Bytes>{make_frame(digest, 3, 0, 20)});
  b[b.size() / 2] ^= 0x01;  // bit flip inside a committed group
  Bytes segment = a;
  segment.insert(segment.end(), b.begin(), b.end());
  segment.insert(segment.end(), c.begin(), c.end());
  // The scan cannot trust anything past the first damaged record (group
  // framing is self-delimiting only while checksums hold), so the suffix —
  // including the still-intact third group — is recompute territory.
  const auto scan = tls::study::scan_segment(segment);
  EXPECT_EQ(scan.groups, 1u);
  EXPECT_EQ(scan.valid_bytes, a.size());
  EXPECT_EQ(scan.torn_bytes, segment.size() - a.size());
}

// ---- in-memory backend --------------------------------------------------

TEST(MemoryBackend, SyncWatermarkSurvivesPowerCutUnsyncedTailDoesNot) {
  MemoryJournalBackend backend;
  ASSERT_TRUE(backend.open_segment(4));
  const Bytes a = {1, 2, 3, 4};
  const Bytes b = {9, 9};
  ASSERT_TRUE(backend.append(a));
  ASSERT_TRUE(backend.sync());
  ASSERT_TRUE(backend.append(b));
  backend.drop_unsynced();  // power cut: the un-fsynced tail vanishes
  backend.close_segment();

  Bytes out;
  ASSERT_TRUE(backend.read_segment(4, out));
  EXPECT_EQ(out, a);
  EXPECT_EQ(backend.list_segments(), std::vector<std::uint32_t>{4u});
  EXPECT_EQ(backend.sync_calls(), 1u);

  ASSERT_TRUE(backend.truncate_segment(4, 1));
  ASSERT_TRUE(backend.read_segment(4, out));
  EXPECT_EQ(out, Bytes{1});
  ASSERT_TRUE(backend.remove_segment(4));
  EXPECT_TRUE(backend.list_segments().empty());
}

// ---- group-commit writer ------------------------------------------------

TEST(GroupWriter, BatchesManyFramesIntoOneFsync) {
  MemoryJournalBackend backend;
  GroupCommitWriter::Config wc;
  wc.group_frames = 8;
  wc.group_ms = 10'000;  // only the count threshold may trigger
  wc.options_digest = 21;
  GroupCommitWriter writer(&backend, wc, nullptr);
  for (std::uint32_t i = 0; i < 8; ++i) {
    writer.enqueue(make_frame(21, 1, i, 64));
  }
  writer.flush();
  const auto stats = writer.stats();
  EXPECT_EQ(stats.frames, 8u);
  EXPECT_EQ(stats.groups, 1u);
  EXPECT_EQ(stats.fsyncs, 1u);
  EXPECT_EQ(stats.dropped_frames, 0u);
  writer.stop();
  EXPECT_EQ(backend.sync_calls(), 1u);

  // The committed group replays to the same 8 frames.
  Bytes segment;
  ASSERT_TRUE(backend.read_segment(wc.first_segment_id, segment));
  const auto scan = tls::study::scan_segment(segment);
  EXPECT_EQ(scan.groups, 1u);
  EXPECT_EQ(scan.frames.size(), 8u);
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST(GroupWriter, TimeThresholdCommitsATrickleWithoutFlush) {
  MemoryJournalBackend backend;
  GroupCommitWriter::Config wc;
  wc.group_frames = 64;  // never reached
  wc.group_ms = 1;
  wc.options_digest = 3;
  GroupCommitWriter writer(&backend, wc, nullptr);
  writer.enqueue(make_frame(3, 2, 0, 32));
  EXPECT_TRUE(eventually([&] { return writer.stats().frames == 1; }));
  EXPECT_EQ(writer.stats().groups, 1u);
  writer.stop();
}

TEST(GroupWriter, BrokenBackendDropsAndCountsFrames) {
  MemoryJournalBackend backend;
  backend.fail_appends_after(0);  // the device is broken from the start
  GroupCommitWriter::Config wc;
  wc.group_frames = 1;  // one group per frame
  wc.group_ms = 1;
  wc.options_digest = 17;
  GroupCommitWriter writer(&backend, wc, nullptr);
  for (std::uint32_t i = 0; i < 4; ++i) {
    writer.enqueue(make_frame(17, 6, i, 48));
  }
  writer.flush();  // returns: a dropped group counts as done
  auto stats = writer.stats();
  EXPECT_EQ(stats.dropped_frames, 4u);
  EXPECT_EQ(stats.frames, 0u);  // nothing made it into a group
  EXPECT_EQ(stats.groups, 0u);
  // Each group was tried twice — once, then once more in a fresh segment.
  EXPECT_EQ(backend.errors().stage_total(JournalStage::kWrite), 8u);

  // The device recovers: later frames commit, the dropped ones stay gone
  // (their tasks are recomputed on resume).
  backend.fail_appends_after(static_cast<std::size_t>(-1));
  writer.enqueue(make_frame(17, 6, 4, 48));
  writer.flush();
  stats = writer.stats();
  EXPECT_EQ(stats.frames, 1u);
  EXPECT_EQ(stats.dropped_frames, 4u);
  writer.stop();
  std::size_t replayable = 0;
  for (const auto id : backend.list_segments()) {
    Bytes segment;
    ASSERT_TRUE(backend.read_segment(id, segment));
    const auto scan = tls::study::scan_segment(segment);
    EXPECT_EQ(scan.torn_bytes, 0u);
    replayable += scan.frames.size();
  }
  EXPECT_EQ(replayable, 1u);
}

// ---- RunJournal over the segment store ----------------------------------

RunJournal::Config grouped_config(const fs::path& dir,
                                  const CheckpointManifest& manifest,
                                  MemoryJournalBackend* backend) {
  RunJournal::Config cfg;
  cfg.directory = dir.string();
  cfg.manifest = manifest;
  cfg.group_frames = 2;
  cfg.group_ms = 1;
  cfg.backend = backend;
  return cfg;
}

TEST(RunJournalGrouped, AppendFlushResumeReplaysEveryFrame) {
  const auto dir = fresh_dir("journal_grouped_resume");
  CheckpointManifest manifest;
  manifest.options_digest = 31;
  {
    RunJournal::Config cfg;
    cfg.directory = dir.string();
    cfg.manifest = manifest;
    cfg.group_frames = 4;
    RunJournal journal(cfg);
    for (std::uint32_t s = 0; s < 10; ++s) {
      journal.append(FrameKind::kPassiveShard, 60, s,
                     Bytes(20 + s, static_cast<std::uint8_t>(s)));
    }
  }  // dtor stops the writer, flushing every pending group
  // Frames live inside segments; there is no other store.
  EXPECT_TRUE(fs::exists(dir / "segments"));
  EXPECT_FALSE(fs::exists(dir / "frames"));

  RunJournal::Config cfg;
  cfg.directory = dir.string();
  cfg.resume = true;
  cfg.manifest = manifest;
  RunJournal resumed(cfg);
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 10u);
  EXPECT_EQ(report.frames_corrupt, 0u);
  EXPECT_GT(report.groups_committed, 0u);
  for (std::uint32_t s = 0; s < 10; ++s) {
    const auto* payload = resumed.replayed(FrameKind::kPassiveShard, 60, s);
    ASSERT_NE(payload, nullptr) << "slot " << s;
    EXPECT_EQ(*payload, Bytes(20 + s, static_cast<std::uint8_t>(s)));
  }
  fs::remove_all(dir);
}

TEST(RunJournalGrouped, PowerCutLosesOnlyTheUnsyncedTail) {
  const auto dir = fresh_dir("journal_grouped_powercut");
  CheckpointManifest manifest;
  manifest.options_digest = 47;
  MemoryJournalBackend backend;
  {
    RunJournal journal(grouped_config(dir, manifest, &backend));
    for (std::uint32_t s = 0; s < 4; ++s) {
      journal.append(FrameKind::kPassiveShard, 70, s, Bytes(16, 0xaa));
    }
    journal.flush();
  }
  // Power cut mid-group: a later segment holds an appended but never
  // fsynced half-group. The crash rule says it was never written.
  const auto partial = tls::study::encode_group(
      manifest.options_digest,
      std::vector<Bytes>{make_frame(manifest.options_digest, 70, 8, 30)});
  ASSERT_TRUE(backend.open_segment(50));
  ASSERT_TRUE(backend.append(
      std::span<const std::uint8_t>(partial).first(partial.size() - 3)));
  backend.drop_unsynced();
  backend.close_segment();

  auto cfg = grouped_config(dir, manifest, &backend);
  cfg.resume = true;
  RunJournal resumed(cfg);
  const auto report = resumed.snapshot_report();
  // The manifest lives in the backend too: nothing was written to disk,
  // yet the resume accepts the journal.
  EXPECT_FALSE(fs::exists(dir / "MANIFEST"));
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 4u);
  EXPECT_EQ(report.groups_torn, 0u);  // clean cut at a group boundary
  EXPECT_EQ(resumed.replayed(FrameKind::kPassiveShard, 70, 8), nullptr);
  fs::remove_all(dir);
}

TEST(RunJournalGrouped, TornTailIsQuarantinedTruncatedAndRecomputable) {
  const auto dir = fresh_dir("journal_grouped_torn");
  CheckpointManifest manifest;
  manifest.options_digest = 53;
  MemoryJournalBackend backend;
  {
    RunJournal journal(grouped_config(dir, manifest, &backend));
    for (std::uint32_t s = 0; s < 4; ++s) {
      journal.append(FrameKind::kPassiveShard, 80, s, Bytes(16, 0xbb));
    }
    journal.flush();
  }
  // This torn tail DID reach the platters (synced) — media damage rather
  // than a power cut. Replay must truncate and quarantine it.
  Bytes garbage(37, 0x5a);
  ASSERT_TRUE(backend.open_segment(60));
  ASSERT_TRUE(backend.append(garbage));
  ASSERT_TRUE(backend.sync());
  backend.close_segment();

  auto cfg = grouped_config(dir, manifest, &backend);
  cfg.resume = true;
  RunJournal resumed(cfg);
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 4u);
  EXPECT_EQ(report.groups_torn, 1u);
  EXPECT_EQ(report.torn_bytes, garbage.size());
  ASSERT_FALSE(report.quarantined.empty());
  bool found_tail = false;
  for (const auto& q : report.quarantined) {
    if (q.find("tail.torn") != std::string::npos) {
      found_tail = true;
      EXPECT_TRUE(fs::exists(q)) << q;
      EXPECT_EQ(slurp(q).size(), garbage.size());
    }
  }
  EXPECT_TRUE(found_tail);
  Bytes after;
  ASSERT_TRUE(backend.read_segment(60, after));
  EXPECT_TRUE(after.empty());  // scan-truncated to the last valid boundary

  // A third pass sees a clean journal: the tail is gone for good.
  RunJournal again(cfg);
  EXPECT_EQ(again.snapshot_report().groups_torn, 0u);
  EXPECT_EQ(again.snapshot_report().frames_replayed, 4u);
  fs::remove_all(dir);
}

/// A device whose second append writes half the group and then fails.
class TearOnceBackend : public MemoryJournalBackend {
 public:
  bool append(std::span<const std::uint8_t> bytes) override {
    if (++appends_ != 2) return MemoryJournalBackend::append(bytes);
    (void)MemoryJournalBackend::append(bytes.first(bytes.size() / 2));
    return false;
  }

 private:
  int appends_ = 0;
};

TEST(RunJournalGrouped, TornAppendDoesNotHideLaterGroups) {
  // The failed append leaves half a group in the segment, and the replay
  // scan stops there. The retry and every later group must therefore go
  // to a fresh segment, or they are lost.
  const auto dir = fresh_dir("journal_grouped_torn_append");
  CheckpointManifest manifest;
  manifest.options_digest = 59;
  TearOnceBackend backend;
  {
    auto cfg = grouped_config(dir, manifest, &backend);
    cfg.group_frames = 1;
    RunJournal journal(cfg);
    for (std::uint32_t s = 0; s < 4; ++s) {
      journal.append(FrameKind::kPassiveShard, 85, s, Bytes(16, 0xdd));
      journal.flush();
    }
    const auto report = journal.snapshot_report();
    EXPECT_EQ(report.groups_committed, 4u);
    EXPECT_EQ(report.frames_dropped, 0u);
  }
  auto cfg = grouped_config(dir, manifest, &backend);
  cfg.resume = true;
  RunJournal resumed(cfg);
  const auto report = resumed.snapshot_report();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.frames_replayed, 4u);
  EXPECT_EQ(report.groups_torn, 1u);  // the half group, in its own segment
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_NE(resumed.replayed(FrameKind::kPassiveShard, 85, s), nullptr)
        << "slot " << s;
  }
  fs::remove_all(dir);
}

TEST(RunJournalGrouped, DuplicatedGroupRecordsDedupeOnReplay) {
  const auto dir = fresh_dir("journal_grouped_dup");
  CheckpointManifest manifest;
  manifest.options_digest = 71;
  MemoryJournalBackend backend;
  {  // cold construction stamps the manifest so the resume below accepts
    RunJournal journal(grouped_config(dir, manifest, &backend));
  }
  const auto group = tls::study::encode_group(
      manifest.options_digest,
      std::vector<Bytes>{make_frame(manifest.options_digest, 95, 0, 25)});
  ASSERT_TRUE(backend.open_segment(1));
  ASSERT_TRUE(backend.append(group));
  ASSERT_TRUE(backend.append(group));  // replayed write: same group twice
  ASSERT_TRUE(backend.sync());
  backend.close_segment();

  auto cfg = grouped_config(dir, manifest, &backend);
  cfg.resume = true;
  RunJournal resumed(cfg);
  const auto report = resumed.snapshot_report();
  EXPECT_EQ(report.groups_committed, 2u);
  EXPECT_EQ(report.frames_replayed, 1u);  // first verified copy wins
  EXPECT_EQ(report.frames_duplicate, 1u);
  ASSERT_NE(resumed.replayed(FrameKind::kPassiveShard, 95, 0), nullptr);
  fs::remove_all(dir);
}

// ---- durable-file helper ------------------------------------------------

TEST(DurableFile, WritesAtomicallyAndBooksFailures) {
  const auto dir = fresh_dir("durable_file");
  const Bytes bytes = {1, 2, 3, 4, 5};
  const auto path = (dir / "blob.bin").string();
  EXPECT_TRUE(tls::study::write_file_durable(path, bytes));
  const auto text = slurp(path);
  EXPECT_EQ(Bytes(text.begin(), text.end()), bytes);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  JournalErrorTaxonomy errors;
  EXPECT_FALSE(tls::study::write_file_durable(
      (dir / "no_such_subdir" / "blob.bin").string(), bytes, &errors));
  EXPECT_GT(errors.failures(), 0u);
  fs::remove_all(dir);
}

// ---- study-level group-fault soak ---------------------------------------

TEST(JournalStudy, GroupFaultSoakNeverChangesBytes) {
  // Hostile segment store: most committed groups are torn, bit-flipped or
  // truncated. Neither the soaked run nor a
  // resume over the damaged journal may change one exported byte — the
  // damage only costs recompute on resume.
  const auto ckpt = fresh_dir("journal_group_soak");
  tls::study::StudyOptions opts;
  opts.connections_per_month = 300;
  opts.full_catalog = false;
  opts.window = {tls::core::Month(2015, 1), tls::core::Month(2015, 6)};
  opts.journal_group_frames = 2;  // many groups -> many fault rolls
  auto plain = opts;
  tls::study::LongitudinalStudy reference(plain);
  std::string ref_csv;
  for (const auto& chart :
       {reference.figure1_versions(), reference.figure8_key_exchange()}) {
    ref_csv += tls::analysis::to_csv(chart);
  }

  opts.checkpoint_dir = ckpt.string();
  opts.checkpoint_faults = tls::faults::FaultConfig::groups_only(0.9);
  {
    tls::study::LongitudinalStudy soaked(opts);
    std::string soaked_csv;
    for (const auto& chart :
         {soaked.figure1_versions(), soaked.figure8_key_exchange()}) {
      soaked_csv += tls::analysis::to_csv(chart);
    }
    EXPECT_EQ(soaked_csv, ref_csv);
  }
  auto ropts = opts;
  ropts.resume = true;
  ropts.checkpoint_faults = {};  // repair pass journals cleanly
  tls::study::LongitudinalStudy resumed(ropts);
  std::string resumed_csv;
  for (const auto& chart :
       {resumed.figure1_versions(), resumed.figure8_key_exchange()}) {
    resumed_csv += tls::analysis::to_csv(chart);
  }
  EXPECT_EQ(resumed_csv, ref_csv);
  const auto report = resumed.recovery();
  EXPECT_TRUE(report.resumed);
  // At a 90% group-fault rate the damage must actually land somewhere.
  EXPECT_GT(report.groups_torn + report.torn_bytes + report.tasks_recomputed,
            0u);
  fs::remove_all(ckpt);
}

}  // namespace
