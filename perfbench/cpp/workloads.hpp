// The three workloads. Each fills `out` with the end-to-end metrics
// (untraced) or the per-layer metrics (traced) and books every correctness
// gate; a returned false means the workload could not run at all.
#pragma once

#include "common.hpp"

namespace perfbench {

bool run_study(const Args& args, Tracer* tracer, Outcome& out);
bool run_tap(const Args& args, Tracer* tracer, Outcome& out);
bool run_daemon(const Args& args, Tracer* tracer, Outcome& out);

/// Set-ups timed in one run of the study and the daemon (the daemon's half
/// before, half after its timed cycles); setup_s is their median. The tap
/// sets up once per pass instead.
inline constexpr int kSetupRepeats = 16;

/// Captures the traced run's wire/fingerprint/frame probes walk.
inline constexpr std::size_t kProbeCaptures = 20000;

}  // namespace perfbench
