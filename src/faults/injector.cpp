#include "faults/injector.hpp"

#include <algorithm>

namespace tls::faults {

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kTruncate: return "truncate";
    case FaultKind::kBitFlip: return "bit_flip";
    case FaultKind::kLengthCorrupt: return "length_corrupt";
    case FaultKind::kTrailingGarbage: return "trailing_garbage";
    case FaultKind::kRecordSplit: return "record_split";
    case FaultKind::kRecordCoalesce: return "record_coalesce";
    case FaultKind::kDropFlight: return "drop_flight";
    case FaultKind::kOneSided: return "one_sided";
    case FaultKind::kFrameTruncate: return "frame_truncate";
    case FaultKind::kFrameBitFlip: return "frame_bit_flip";
    case FaultKind::kFrameDuplicate: return "frame_duplicate";
    case FaultKind::kGroupTornTail: return "group_torn_tail";
    case FaultKind::kGroupBitFlip: return "group_bit_flip";
    case FaultKind::kSegmentTruncate: return "segment_truncate";
  }
  return "?";
}

FaultConfig FaultConfig::uniform(double rate) {
  const double r = rate / 8.0;
  FaultConfig c;
  c.truncate = c.bit_flip = c.length_corrupt = c.trailing_garbage =
      c.record_split = c.record_coalesce = c.drop_flight = c.one_sided = r;
  return c;
}

FaultConfig FaultConfig::bytes_only(double rate) {
  const double r = rate / 6.0;
  FaultConfig c;
  c.truncate = c.bit_flip = c.length_corrupt = c.trailing_garbage =
      c.record_split = c.record_coalesce = r;
  return c;
}

FaultConfig FaultConfig::frames_only(double rate) {
  const double r = rate / 3.0;
  FaultConfig c;
  c.frame_truncate = c.frame_bit_flip = c.frame_duplicate = r;
  return c;
}

FaultConfig FaultConfig::groups_only(double rate) {
  const double r = rate / 3.0;
  FaultConfig c;
  c.group_torn_tail = c.group_bit_flip = c.segment_truncate = r;
  return c;
}

FaultInjector::FaultInjector(FaultConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

FaultKind FaultInjector::roll() {
  double u = rng_.uniform();
  const std::pair<FaultKind, double> weights[] = {
      {FaultKind::kTruncate, config_.truncate},
      {FaultKind::kBitFlip, config_.bit_flip},
      {FaultKind::kLengthCorrupt, config_.length_corrupt},
      {FaultKind::kTrailingGarbage, config_.trailing_garbage},
      {FaultKind::kRecordSplit, config_.record_split},
      {FaultKind::kRecordCoalesce, config_.record_coalesce},
      {FaultKind::kDropFlight, config_.drop_flight},
      {FaultKind::kOneSided, config_.one_sided},
  };
  for (const auto& [kind, w] : weights) {
    if (u < w) return kind;
    u -= w;
  }
  return FaultKind::kNone;
}

void FaultInjector::apply_bytes(FaultKind kind,
                                std::vector<std::uint8_t>& stream) {
  switch (kind) {
    case FaultKind::kTruncate:
      truncate_at(stream, stream.empty() ? 0 : rng_.below(stream.size()));
      break;
    case FaultKind::kBitFlip:
      flip_bits(stream, rng_, 1 + static_cast<int>(rng_.below(8)));
      break;
    case FaultKind::kLengthCorrupt:
      corrupt_record_length(stream, rng_);
      break;
    case FaultKind::kTrailingGarbage:
      append_garbage(stream, rng_);
      break;
    case FaultKind::kRecordSplit:
      if (!split_record(stream, rng_)) flip_bits(stream, rng_, 1);
      break;
    case FaultKind::kRecordCoalesce:
      if (!coalesce_records(stream)) flip_bits(stream, rng_, 1);
      break;
    case FaultKind::kDropFlight:
    case FaultKind::kOneSided:
      stream.clear();
      break;
    case FaultKind::kNone:
    case FaultKind::kFrameTruncate:
    case FaultKind::kFrameBitFlip:
    case FaultKind::kFrameDuplicate:
    case FaultKind::kGroupTornTail:
    case FaultKind::kGroupBitFlip:
    case FaultKind::kSegmentTruncate:
      break;  // journal kinds are handled by corrupt_frame/corrupt_group
  }
}

FaultKind FaultInjector::corrupt_stream(std::vector<std::uint8_t>& stream) {
  ++stats_.streams_seen;
  const FaultKind kind = roll();
  if (kind != FaultKind::kNone) {
    apply_bytes(kind, stream);
    ++stats_.applied[static_cast<std::size_t>(kind)];
  }
  return kind;
}

FaultKind FaultInjector::roll_capture() {
  ++stats_.captures_seen;
  return roll();
}

void FaultInjector::apply_capture(FaultKind kind,
                                  std::vector<std::uint8_t>& client,
                                  std::vector<std::uint8_t>& server) {
  switch (kind) {
    case FaultKind::kNone:
      return;
    case FaultKind::kDropFlight:
      client.clear();
      server.clear();
      break;
    case FaultKind::kOneSided:
      (rng_.next() & 1 ? client : server).clear();
      break;
    default:
      apply_bytes(kind, rng_.next() & 1 ? client : server);
      break;
  }
  ++stats_.applied[static_cast<std::size_t>(kind)];
}

FaultKind FaultInjector::corrupt_capture(std::vector<std::uint8_t>& client,
                                         std::vector<std::uint8_t>& server) {
  const FaultKind kind = roll_capture();
  apply_capture(kind, client, server);
  return kind;
}

FaultKind FaultInjector::corrupt_frame(std::vector<std::uint8_t>& frame) {
  ++stats_.frames_seen;
  double u = rng_.uniform();
  const std::pair<FaultKind, double> weights[] = {
      {FaultKind::kFrameTruncate, config_.frame_truncate},
      {FaultKind::kFrameBitFlip, config_.frame_bit_flip},
      {FaultKind::kFrameDuplicate, config_.frame_duplicate},
  };
  FaultKind kind = FaultKind::kNone;
  for (const auto& [k, w] : weights) {
    if (u < w) {
      kind = k;
      break;
    }
    u -= w;
  }
  switch (kind) {
    case FaultKind::kFrameTruncate:
      truncate_at(frame, frame.empty() ? 0 : rng_.below(frame.size()));
      break;
    case FaultKind::kFrameBitFlip:
      // One byte XORed with a non-zero mask: guaranteed to change the
      // frame (flip_bits may revisit a bit and cancel itself out), which
      // the checksum-detection contract relies on.
      if (!frame.empty()) {
        frame[rng_.below(frame.size())] ^=
            static_cast<std::uint8_t>(1 + rng_.below(255));
      }
      break;
    case FaultKind::kFrameDuplicate:
      break;  // no mutation: the journal writes the frame twice
    default:
      break;
  }
  if (kind != FaultKind::kNone) {
    ++stats_.applied[static_cast<std::size_t>(kind)];
  }
  return kind;
}

FaultKind FaultInjector::corrupt_group(std::vector<std::uint8_t>& group) {
  ++stats_.groups_seen;
  double u = rng_.uniform();
  const std::pair<FaultKind, double> weights[] = {
      {FaultKind::kGroupTornTail, config_.group_torn_tail},
      {FaultKind::kGroupBitFlip, config_.group_bit_flip},
      {FaultKind::kSegmentTruncate, config_.segment_truncate},
  };
  FaultKind kind = FaultKind::kNone;
  for (const auto& [k, w] : weights) {
    if (u < w) {
      kind = k;
      break;
    }
    u -= w;
  }
  switch (kind) {
    case FaultKind::kGroupTornTail:
      // Cut strictly inside the record: the scan must find a torn tail.
      truncate_at(group, group.empty() ? 0 : rng_.below(group.size()));
      break;
    case FaultKind::kGroupBitFlip:
      // One byte XORed with a non-zero mask (see corrupt_frame): the group
      // checksum is guaranteed to notice.
      if (!group.empty()) {
        group[rng_.below(group.size())] ^=
            static_cast<std::uint8_t>(1 + rng_.below(255));
      }
      break;
    case FaultKind::kSegmentTruncate:
      break;  // a decision only; the journal writer executes it
    default:
      break;
  }
  if (kind != FaultKind::kNone) {
    ++stats_.applied[static_cast<std::size_t>(kind)];
  }
  return kind;
}

std::vector<std::size_t> record_offsets(
    const std::vector<std::uint8_t>& stream) {
  std::vector<std::size_t> offsets;
  std::size_t at = 0;
  while (at + 5 <= stream.size()) {
    const std::size_t frag_len =
        (static_cast<std::size_t>(stream[at + 3]) << 8) | stream[at + 4];
    if (at + 5 + frag_len > stream.size()) break;
    offsets.push_back(at);
    at += 5 + frag_len;
  }
  return offsets;
}

void truncate_at(std::vector<std::uint8_t>& stream, std::size_t offset) {
  stream.resize(std::min(offset, stream.size()));
}

void flip_bits(std::vector<std::uint8_t>& stream, tls::core::Rng& rng,
               int flips) {
  if (stream.empty()) return;
  for (int i = 0; i < flips; ++i) {
    stream[rng.below(stream.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
  }
}

void corrupt_record_length(std::vector<std::uint8_t>& stream,
                           tls::core::Rng& rng) {
  const auto offsets = record_offsets(stream);
  if (offsets.empty()) {
    flip_bits(stream, rng, 1);
    return;
  }
  const std::size_t at = offsets[rng.below(offsets.size())];
  const std::uint16_t bogus = static_cast<std::uint16_t>(rng.next());
  stream[at + 3] = static_cast<std::uint8_t>(bogus >> 8);
  stream[at + 4] = static_cast<std::uint8_t>(bogus & 0xff);
}

void append_garbage(std::vector<std::uint8_t>& stream, tls::core::Rng& rng,
                    std::size_t max_bytes) {
  const std::size_t n = 1 + rng.below(max_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(static_cast<std::uint8_t>(rng.next()));
  }
}

bool split_record(std::vector<std::uint8_t>& stream, tls::core::Rng& rng) {
  const auto offsets = record_offsets(stream);
  // Candidates: records whose fragment has >= 2 bytes to split.
  std::vector<std::size_t> candidates;
  for (const auto at : offsets) {
    const std::size_t frag_len =
        (static_cast<std::size_t>(stream[at + 3]) << 8) | stream[at + 4];
    if (frag_len >= 2) candidates.push_back(at);
  }
  if (candidates.empty()) return false;
  const std::size_t at = candidates[rng.below(candidates.size())];
  const std::size_t frag_len =
      (static_cast<std::size_t>(stream[at + 3]) << 8) | stream[at + 4];
  const std::size_t cut = 1 + rng.below(frag_len - 1);  // in [1, frag_len-1]

  std::vector<std::uint8_t> out;
  out.reserve(stream.size() + 5);
  out.insert(out.end(), stream.begin(),
             stream.begin() + static_cast<std::ptrdiff_t>(at));
  // First half: original header with patched length.
  out.push_back(stream[at]);
  out.push_back(stream[at + 1]);
  out.push_back(stream[at + 2]);
  out.push_back(static_cast<std::uint8_t>(cut >> 8));
  out.push_back(static_cast<std::uint8_t>(cut & 0xff));
  out.insert(out.end(), stream.begin() + static_cast<std::ptrdiff_t>(at + 5),
             stream.begin() + static_cast<std::ptrdiff_t>(at + 5 + cut));
  // Second half: a fresh header for the remainder.
  const std::size_t rest = frag_len - cut;
  out.push_back(stream[at]);
  out.push_back(stream[at + 1]);
  out.push_back(stream[at + 2]);
  out.push_back(static_cast<std::uint8_t>(rest >> 8));
  out.push_back(static_cast<std::uint8_t>(rest & 0xff));
  out.insert(out.end(),
             stream.begin() + static_cast<std::ptrdiff_t>(at + 5 + cut),
             stream.end());
  stream = std::move(out);
  return true;
}

bool coalesce_records(std::vector<std::uint8_t>& stream) {
  const auto offsets = record_offsets(stream);
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    const std::size_t a = offsets[i];
    const std::size_t b = offsets[i + 1];
    const std::size_t a_len =
        (static_cast<std::size_t>(stream[a + 3]) << 8) | stream[a + 4];
    const std::size_t b_len =
        (static_cast<std::size_t>(stream[b + 3]) << 8) | stream[b + 4];
    if (stream[a] != stream[b] || stream[a + 1] != stream[b + 1] ||
        stream[a + 2] != stream[b + 2]) {
      continue;
    }
    const std::size_t merged = a_len + b_len;
    if (merged > 0x3fff) continue;  // keep the merged record legal
    stream[a + 3] = static_cast<std::uint8_t>(merged >> 8);
    stream[a + 4] = static_cast<std::uint8_t>(merged & 0xff);
    // Erase the second header; fragments become contiguous.
    stream.erase(stream.begin() + static_cast<std::ptrdiff_t>(b),
                 stream.begin() + static_cast<std::ptrdiff_t>(b + 5));
    return true;
  }
  return false;
}

}  // namespace tls::faults
