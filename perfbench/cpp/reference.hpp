// Host-speed reference. On a shared virtual machine the same code runs up
// to 1.5x slower for seconds or minutes at a time, for every program alike.
// A fixed CPU kernel (fill, sort and hash of a 64 KiB array; no library
// code) is timed next to the workload's own measurements, and rates and
// times are scaled to a host that runs the kernel in kReferenceNominalNs:
//
//   scaled rate = rate * reference_ns / kReferenceNominalNs
//   scaled time = time * kReferenceNominalNs / reference_ns
//
// A change to the library cannot move the kernel (it is built as its own
// target, linked to nothing), so the scaled numbers still move one for one
// with the library's speed. The raw numbers are printed beside them.
#pragma once

namespace perfbench {

/// Kernel time of the reference host (ns).
inline constexpr double kReferenceNominalNs = 1e6;

/// Runs the kernel once on the calling thread; returns its time in ns.
double reference_kernel_ns();

/// Median kernel time of `rounds` runs on the calling thread.
double reference_ns(int rounds);

/// Runs the kernel on `threads` threads at once, `rounds` times each;
/// returns the median of all the times. Used next to multi-threaded work.
double reference_parallel_ns(unsigned threads, int rounds);

inline double scale_rate(double rate, double reference_ns) {
  return rate * reference_ns / kReferenceNominalNs;
}
inline double scale_time(double time, double reference_ns) {
  return time * kReferenceNominalNs / reference_ns;
}

}  // namespace perfbench
