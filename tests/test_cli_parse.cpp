// Regression tests for ISSUE 7's CLI-parsing bugfix: study_cli used raw
// atol/atoi, so `--journal-group-frames garbage` silently became 0 and
// negatives flowed into the group-commit config unchecked. parse_long is
// the checked replacement; the GroupCommitWriter clamp is the programmatic
// backstop for callers that bypass the CLI.
#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <cstdint>
#include <thread>
#include <vector>

#include "../examples/cli_parse.hpp"
#include "core/checkpoint.hpp"
#include "core/journal.hpp"

namespace {

using tls::cli::parse_long;

TEST(ParseLong, AcceptsWholeDecimalIntegersInRange) {
  long v = 99;
  EXPECT_TRUE(parse_long("0", 0, LONG_MAX, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(parse_long("64", 1, LONG_MAX, &v));
  EXPECT_EQ(v, 64);
  EXPECT_TRUE(parse_long("-5", LONG_MIN, 0, &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(parse_long("10", 1, 10, &v));
  EXPECT_EQ(v, 10);
}

TEST(ParseLong, RejectsGarbageWithoutTouchingOut) {
  long v = 42;
  EXPECT_FALSE(parse_long("garbage", 0, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("", 0, LONG_MAX, &v));
  EXPECT_FALSE(parse_long(nullptr, 0, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("12x", 0, LONG_MAX, &v));   // trailing junk
  EXPECT_FALSE(parse_long("1 2", 0, LONG_MAX, &v));   // embedded space
  EXPECT_FALSE(parse_long("0x10", 0, LONG_MAX, &v));  // decimal only
  EXPECT_EQ(v, 42);
}

TEST(ParseLong, RejectsOutOfRangeAndOverflow) {
  long v = 42;
  // The study_cli contracts: --journal-group-frames wants [1, LONG_MAX],
  // --journal-group-ms wants [0, LONG_MAX], figure wants [1, 10].
  EXPECT_FALSE(parse_long("0", 1, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("-1", 1, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("-1", 0, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("11", 1, 10, &v));
  EXPECT_FALSE(parse_long("99999999999999999999999", 0, LONG_MAX, &v));
  EXPECT_FALSE(parse_long("-99999999999999999999999", LONG_MIN, 0, &v));
  EXPECT_EQ(v, 42);
}

// Programmatic callers get the same guarantee as the CLI: a Config with
// group_frames == 0 (which would otherwise make the writer take zero-frame
// groups forever, never draining the queue) is clamped to 1 at
// construction, so a lone enqueued frame still commits via the count
// threshold.
TEST(GroupWriterConfig, ZeroGroupFramesIsClampedToOne) {
  tls::study::MemoryJournalBackend backend;
  tls::study::GroupCommitWriter::Config wc;
  wc.group_frames = 0;
  wc.group_ms = 60'000;  // linger may not mask the clamp under test
  wc.options_digest = 7;
  tls::study::GroupCommitWriter writer(&backend, wc, nullptr);

  std::vector<std::uint8_t> payload(16, 0xabu);
  writer.enqueue(tls::study::encode_frame(
      7, {tls::study::FrameKind::kPassiveShard, 1, 0}, payload));
  bool committed = false;
  for (int i = 0; i < 2000 && !committed; ++i) {
    committed = writer.stats().frames == 1;
    if (!committed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(committed);
  writer.stop();
  EXPECT_EQ(backend.sync_calls(), 1u);
}

}  // namespace
