// Snapshot codec for the passive monitor: serializes the complete
// absorb-state of one shard monitor — monthly stats (every counter, the
// Fig. 5 position accumulators bit-exactly, the fingerprint flag maps),
// the duration tracker, dataset tallies, the error taxonomy and the
// quarantine ring — into a deterministic byte string, and rebuilds a
// monitor whose absorb() behaviour is indistinguishable from the
// original's. This is the payload format of
// the crash-safe checkpoint journal (core/checkpoint.hpp): a journaled
// (month, shard) task is replayed by decoding its snapshot instead of
// regenerating its traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "notary/monitor.hpp"

namespace tls::notary {

/// Monitor-state wire format version. Bumped on any layout change; decode
/// rejects every other version with ParseError(kUnsupported), which the
/// journal treats as a corrupt frame (quarantine + recompute). Version 2
/// dropped version 1's trailing 14 observe-cache counter words.
inline constexpr std::uint32_t kMonitorSnapshotVersion = 2;

/// Serializes `monitor`'s absorb-state. Deterministic: unordered
/// containers are emitted in sorted key order, doubles as their exact bit
/// patterns, so the same state always yields the same bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_monitor_state(
    const PassiveMonitor& monitor);

/// Rebuilds a monitor from encode_monitor_state bytes. Absorbing the
/// result is bit-identical to absorbing the original monitor (position
/// sums round-trip exactly). Throws tls::wire::ParseError on truncated,
/// malformed, or version-mismatched input — all reads are bounds-checked,
/// so hostile bytes can never read out of range.
[[nodiscard]] PassiveMonitor decode_monitor_state(
    std::span<const std::uint8_t> bytes,
    const tls::fp::FingerprintDatabase* database = nullptr);

}  // namespace tls::notary
