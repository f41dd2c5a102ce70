#include "core/checkpoint.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "core/study.hpp"
#include "tlscore/fnv.hpp"
#include "wire/buffer.hpp"

namespace tls::study {

namespace fs = std::filesystem;
using tls::core::fnv1a64;
using tls::wire::ByteReader;
using tls::wire::ByteWriter;
using tls::wire::ParseError;
using tls::wire::ParseErrorCode;

namespace {

constexpr std::uint32_t kFrameMagic = 0x544c534a;     // "TLSJ"
constexpr std::uint32_t kManifestMagic = 0x544c534d;  // "TLSM"

void write_double(ByteWriter& w, double v) {
  w.u64(std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::uint64_t options_digest(const StudyOptions& options) {
  // Canonical encoding of every option a passive frame's bytes depend on.
  // Field order is part of the format: changing it (or what is included)
  // orphans old journals, which is the safe failure mode. Deliberately
  // absent: the scan policy (the sweep is recomputed on every run, never
  // journaled) and the pure performance toggles (fast_observe, gen_cache,
  // the journal knobs) — none of them changes a journaled byte, so a run
  // may resume with any of them changed.
  ByteWriter w;
  w.u64(options.seed);
  w.u64(options.connections_per_month);
  w.u32(static_cast<std::uint32_t>(options.window.begin_month.index()));
  w.u32(static_cast<std::uint32_t>(options.window.end_month.index()));
  w.u8(options.full_catalog ? 1 : 0);
  // Capture-plane fault rates only: the frame_* rates of this config are
  // never rolled by the passive pipeline.
  for (const double rate :
       {options.faults.truncate, options.faults.bit_flip,
        options.faults.length_corrupt, options.faults.trailing_garbage,
        options.faults.record_split, options.faults.record_coalesce,
        options.faults.drop_flight, options.faults.one_sided}) {
    write_double(w, rate);
  }
  w.u64(options.fault_seed);
  w.u64(options.shards_per_month);
  return fnv1a64(w.data());
}

CheckpointManifest make_manifest(const StudyOptions& options, std::size_t) {
  CheckpointManifest m;
  m.options_digest = options_digest(options);
  m.seed = options.seed;
  m.window_begin =
      static_cast<std::uint32_t>(options.window.begin_month.index());
  m.window_end = static_cast<std::uint32_t>(options.window.end_month.index());
  m.shards_per_month = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, options.shards_per_month));
  m.connections_per_month = options.connections_per_month;
  return m;
}

std::vector<std::uint8_t> encode_manifest(const CheckpointManifest& manifest) {
  ByteWriter w;
  w.u32(kManifestMagic);
  w.u32(manifest.format_version);
  w.u64(manifest.options_digest);
  w.u64(manifest.seed);
  w.u32(manifest.window_begin);
  w.u32(manifest.window_end);
  w.u32(manifest.shards_per_month);
  w.u64(manifest.connections_per_month);
  w.u64(fnv1a64(w.data()));
  return w.take();
}

CheckpointManifest decode_manifest(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8) {
    throw ParseError(ParseErrorCode::kTruncated, "manifest too short");
  }
  const std::uint64_t expected = fnv1a64(bytes.first(bytes.size() - 8));
  ByteReader r(bytes);
  if (r.u32() != kManifestMagic) {
    throw ParseError(ParseErrorCode::kBadValue, "manifest magic");
  }
  CheckpointManifest m;
  m.format_version = r.u32();
  if (m.format_version != kCheckpointFormatVersion) {
    throw ParseError(ParseErrorCode::kUnsupported,
                     "manifest format version " +
                         std::to_string(m.format_version));
  }
  m.options_digest = r.u64();
  m.seed = r.u64();
  m.window_begin = r.u32();
  m.window_end = r.u32();
  m.shards_per_month = r.u32();
  m.connections_per_month = r.u64();
  if (r.u64() != expected) {
    throw ParseError(ParseErrorCode::kBadValue, "manifest checksum");
  }
  r.expect_empty("checkpoint manifest");
  return m;
}

std::vector<std::uint8_t> encode_frame(std::uint64_t options_digest,
                                       const FrameHeader& header,
                                       std::span<const std::uint8_t> payload) {
  ByteWriter w;
  w.u32(kFrameMagic);
  w.u32(kCheckpointFormatVersion);
  w.u64(options_digest);
  w.u8(static_cast<std::uint8_t>(header.kind));
  w.u32(header.month_index);
  w.u32(header.slot);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  w.u64(fnv1a64(w.data()));
  return w.take();
}

DecodedFrame decode_frame(std::span<const std::uint8_t> bytes,
                          std::uint32_t max_payload) {
  if (bytes.size() < 8) {
    throw ParseError(ParseErrorCode::kTruncated, "frame too short");
  }
  const std::uint64_t expected = fnv1a64(bytes.first(bytes.size() - 8));
  ByteReader r(bytes);
  if (r.u32() != kFrameMagic) {
    throw ParseError(ParseErrorCode::kBadValue, "frame magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kCheckpointFormatVersion) {
    throw ParseError(ParseErrorCode::kUnsupported,
                     "frame format version " + std::to_string(version));
  }
  DecodedFrame frame;
  frame.options_digest = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(FrameKind::kPassiveShard)) {
    throw ParseError(ParseErrorCode::kBadValue,
                     "frame kind " + std::to_string(kind));
  }
  frame.header.kind = static_cast<FrameKind>(kind);
  frame.header.month_index = r.u32();
  frame.header.slot = r.u32();
  const std::uint32_t payload_len = r.u32();
  if (payload_len > max_payload) {
    // Checked against the declared length BEFORE r.bytes() materializes a
    // view and before the payload vector allocates: a hostile 4 GiB length
    // field costs one comparison, not an allocation.
    throw ParseError(ParseErrorCode::kBadLength,
                     "frame payload length " + std::to_string(payload_len));
  }
  const auto payload = r.bytes(payload_len);
  frame.payload.assign(payload.begin(), payload.end());
  if (r.u64() != expected) {
    throw ParseError(ParseErrorCode::kBadValue, "frame checksum");
  }
  r.expect_empty("checkpoint frame");
  return frame;
}

RunJournal::RunJournal(Config config) : config_(std::move(config)) {
  quarantine_dir_ = (fs::path(config_.directory) / "quarantine").string();
  if (config_.backend != nullptr) {
    backend_ = config_.backend;
  } else {
    owned_backend_ = std::make_unique<PosixJournalBackend>(config_.directory);
    backend_ = owned_backend_.get();
  }
  replay();
  GroupCommitWriter::Config wc;
  wc.group_frames = config_.group_frames;  // the writer clamps 0 to 1
  wc.group_ms = config_.group_ms;
  wc.options_digest = config_.manifest.options_digest;
  wc.first_segment_id = next_segment_id_;
  wc.kill_after_frames = config_.kill_after_frames;
  wc.faults_mutex = &mutex_;
  writer_ = std::make_unique<GroupCommitWriter>(backend_, wc,
                                                config_.frame_faults);
}

RunJournal::~RunJournal() { writer_->stop(); }

void RunJournal::replay() {
  if (config_.resume) {
    bool accept_frames = false;
    std::vector<std::uint8_t> on_disk;
    if (backend_->read_manifest(on_disk)) {
      try {
        accept_frames = decode_manifest(on_disk) == config_.manifest;
      } catch (const ParseError&) {
        accept_frames = false;
      }
    }
    report_.resumed = accept_frames;
    replay_segments(accept_frames);
    if (accept_frames) return;  // the manifest on disk is already ours
  }
  // Cold start, or a foreign or absent manifest whose frames were just
  // quarantined as mismatched: wipe the segments, then lay down the
  // manifest. Segments go first, so the journal never adopts frames it
  // rejected — not even when a crash lands between the two steps.
  for (const auto id : backend_->list_segments()) {
    backend_->remove_segment(id);
  }
  backend_->write_manifest(encode_manifest(config_.manifest));
}

void RunJournal::accept_frame(std::vector<std::uint8_t>&& bytes,
                              bool accept_any) {
  const auto reject = [&](const char* reason) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "seg_frame_%s.frame", reason);
    quarantine_bytes(buf, bytes);
  };
  if (!accept_any) {
    // Foreign or absent manifest: every frame describes different work.
    ++report_.frames_mismatched;
    reject("mismatched");
    return;
  }
  DecodedFrame frame;
  try {
    frame = decode_frame(bytes, config_.max_frame_bytes);
  } catch (const ParseError&) {
    ++report_.frames_corrupt;
    reject("corrupt");
    return;
  }
  if (frame.options_digest != config_.manifest.options_digest) {
    ++report_.frames_mismatched;
    reject("mismatched");
    return;
  }
  const FrameKey key{static_cast<std::uint8_t>(frame.header.kind),
                     frame.header.month_index, frame.header.slot};
  auto [it, inserted] = frames_.try_emplace(key);
  if (inserted || !it->second.usable) {
    // First sighting — or a duplicate of a frame we already threw out;
    // an independently-written copy may still verify.
    if (!inserted) ++report_.frames_duplicate;
    it->second.payload = std::move(frame.payload);
    it->second.usable = true;
    ++report_.frames_replayed;
  } else {
    // Same task twice (e.g. an injected duplicate append). The first
    // verified copy wins; the extra copy is quarantined.
    ++report_.frames_duplicate;
    reject("duplicate");
  }
}

void RunJournal::replay_segments(bool accept_frames) {
  for (const auto id : backend_->list_segments()) {
    next_segment_id_ = std::max(next_segment_id_, id + 1);
    std::vector<std::uint8_t> bytes;
    if (!backend_->read_segment(id, bytes)) {
      // Unreadable segment: everything it held is recomputed.
      ++report_.groups_torn;
      continue;
    }
    SegmentScan scan = scan_segment(bytes);
    report_.groups_committed += scan.groups;
    for (auto& frame : scan.frames) {
      accept_frame(std::move(frame), accept_frames);
    }
    if (scan.torn_bytes > 0) {
      // The crash rule in action: an un-fsynced (or damaged) tail is as
      // if never written. Quarantine the bytes for the post-mortem, then
      // scan-truncate the segment to the last valid group boundary.
      ++report_.groups_torn;
      report_.torn_bytes += scan.torn_bytes;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "seg_%06u_tail.torn", id);
      quarantine_bytes(
          buf, std::span<const std::uint8_t>(bytes).subspan(
                   static_cast<std::size_t>(scan.valid_bytes)));
      backend_->truncate_segment(id, scan.valid_bytes);
    }
  }
}

const std::vector<std::uint8_t>* RunJournal::replayed(
    FrameKind kind, std::uint32_t month_index, std::uint32_t slot) const {
  const auto it = frames_.find(
      FrameKey{static_cast<std::uint8_t>(kind), month_index, slot});
  if (it == frames_.end() || !it->second.usable) return nullptr;
  return &it->second.payload;
}

std::vector<std::uint32_t> RunJournal::replayed_slots(
    FrameKind kind, std::uint32_t month_index) const {
  const auto k = static_cast<std::uint8_t>(kind);
  std::vector<std::uint32_t> slots;
  for (auto it = frames_.lower_bound(FrameKey{k, month_index, 0});
       it != frames_.end() && std::get<0>(it->first) == k &&
       std::get<1>(it->first) == month_index;
       ++it) {
    if (it->second.usable) slots.push_back(std::get<2>(it->first));
  }
  return slots;
}

void RunJournal::append(FrameKind kind, std::uint32_t month_index,
                        std::uint32_t slot,
                        std::span<const std::uint8_t> payload) {
  FrameHeader header{kind, month_index, slot};
  std::vector<std::uint8_t> bytes =
      encode_frame(config_.manifest.options_digest, header, payload);

  std::lock_guard<std::mutex> lock(mutex_);
  bool duplicate = false;
  if (config_.frame_faults != nullptr) {
    const auto fault = config_.frame_faults->corrupt_frame(bytes);
    duplicate = fault == tls::faults::FaultKind::kFrameDuplicate;
  }
  // Hand the frame to the group-commit writer and return; durability
  // arrives with the frame's group (flush() to wait for it). The
  // crash-matrix kill seam lives in the writer, after the fsync.
  ++appended_;
  if (duplicate) {
    // A replayed append: the same frame enters the journal twice; replay
    // dedupes on (kind, month, slot).
    writer_->enqueue(std::vector<std::uint8_t>(bytes));
  }
  writer_->enqueue(std::move(bytes));
  fire_term_seam();
}

void RunJournal::fire_term_seam() {
  // Signal-drain seam: fires exactly once, right after the Nth append was
  // handed to the journal (durable or still lingering in an uncommitted
  // group). ::kill, not std::raise — the signal must be deliverable to the
  // host's sigwait watcher thread, which raise() on a signal-blocked
  // worker thread would bypass (thread-directed pending, never consumed).
  if (config_.term_after_frames != 0 &&
      appended_ == config_.term_after_frames) {
    ::kill(::getpid(), SIGTERM);
  }
}

void RunJournal::invalidate(FrameKind kind, std::uint32_t month_index,
                            std::uint32_t slot) {
  const auto it = frames_.find(
      FrameKey{static_cast<std::uint8_t>(kind), month_index, slot});
  if (it == frames_.end() || !it->second.usable) return;
  it->second.usable = false;
  std::lock_guard<std::mutex> lock(mutex_);
  --report_.frames_replayed;
  ++report_.frames_corrupt;
  quarantine_bytes("seg_frame_invalidated.bin", it->second.payload);
}

void RunJournal::note_task(bool replayed_from_journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (replayed_from_journal) {
    ++report_.tasks_skipped;
  } else {
    ++report_.tasks_recomputed;
  }
}

void RunJournal::quarantine_bytes(const std::string& name,
                                  std::span<const std::uint8_t> bytes) {
  std::error_code ec;
  fs::create_directories(quarantine_dir_, ec);
  char seq[16];
  std::snprintf(seq, sizeof(seq), "q%04zu_", report_.quarantined.size());
  const fs::path to = fs::path(quarantine_dir_) / (seq + name);
  // Best-effort, non-durable: the quarantine copy is forensic material,
  // never replayed, so a failed write must not fail the recovery.
  std::ofstream out(to, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  report_.quarantined.push_back(to.string());
}

void RunJournal::flush() { writer_->flush(); }

void RunJournal::collect_metrics(tls::telemetry::MetricsRegistry& out) const {
  writer_->collect_metrics(out);
  const JournalErrorTaxonomy& errors = backend_->errors();
  for (std::size_t s = 0; s < kJournalStageCount; ++s) {
    for (std::size_t c = 0; c < kJournalErrorClassCount; ++c) {
      const auto stage = static_cast<JournalStage>(s);
      const auto cls = static_cast<JournalErrorClass>(c);
      const std::uint64_t n = errors.count(stage, cls);
      if (n == 0) continue;
      const std::string labels =
          "stage=\"" + std::string(journal_stage_name(stage)) +
          "\",class=\"" + std::string(journal_error_class_name(cls)) + "\"";
      out.counter("tls_repro_journal_io_errors_total", labels,
                  "journal IO incidents by stage and errno class", true)
          .add(n);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (report_.torn_bytes != 0) {
    out.counter("tls_repro_journal_torn_bytes_total", {},
                "bytes scan-truncated off torn segment tails on replay",
                true)
        .add(report_.torn_bytes);
  }
  if (report_.groups_torn != 0) {
    out.counter("tls_repro_journal_torn_groups_total", {},
                "segments found with a torn or damaged tail on replay", true)
        .add(report_.groups_torn);
  }
}

tls::analysis::RecoveryReport RunJournal::snapshot_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  tls::analysis::RecoveryReport report = report_;
  const auto stats = writer_->stats();
  report.groups_committed += stats.groups;
  report.frames_dropped = stats.dropped_frames;
  const JournalErrorTaxonomy& errors = backend_->errors();
  for (std::size_t s = 0; s < kJournalStageCount; ++s) {
    report.io_retries += errors.count(static_cast<JournalStage>(s),
                                      JournalErrorClass::kRetried);
  }
  report.io_errors = errors.failures();
  return report;
}

std::uint64_t RunJournal::dropped_frames() const {
  return writer_->stats().dropped_frames;
}

}  // namespace tls::study
