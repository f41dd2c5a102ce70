#include "daemon/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/journal.hpp"
#include "notary/snapshot.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/trace.hpp"
#include "tlscore/fnv.hpp"

namespace tls::daemon {
namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t now_ms() { return now_us() / 1000; }

tls::core::Month month_from_index(std::uint32_t index) {
  return tls::core::Month(static_cast<int>(index / 12),
                          static_cast<int>(index % 12) + 1);
}

/// Stage timeline vocabulary (DESIGN.md §17). The ISSUE's "journal-enqueue"
/// edge is `complete` here: the daemon journals aggregate epochs rather
/// than individual frames, so the edge a frame crosses after observe is
/// the worker->event-loop completion handoff that makes it journal- and
/// credit-visible.
constexpr std::size_t kStageCount = 7;
constexpr const char* kStageNames[kStageCount] = {
    "decode", "enqueue", "queue", "observe", "complete", "grant", "total"};

std::uint64_t sub_sat(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

struct NotaryDaemon::AtomicCounters {
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> credit_violations{0};
  std::atomic<std::uint64_t> frame_errors{0};
  std::atomic<std::uint64_t> idle_timeouts{0};
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> sslv2{0};
  std::atomic<std::uint64_t> checkpoint_epochs{0};
};

/// Absolute monotonic stamps (us) as a frame crosses each stage edge.
struct NotaryDaemon::StageStamps {
  std::uint64_t ingress = 0;  // frame complete, before payload decode
  std::uint64_t decode = 0;   // capture payload decoded
  std::uint64_t enqueue = 0;  // admitted to the shard queue
  std::uint64_t dequeue = 0;  // worker popped it
  std::uint64_t observe = 0;  // monitor observe returned
};

struct NotaryDaemon::Job {
  CapturePayload capture;
  std::uint64_t conn_id = 0;
  std::uint64_t admit_us = 0;
  StageStamps at;
};

/// One resolved capture flowing back to the event loop: the credit to
/// return plus the stage timeline to finalize (the last two edges —
/// completion drain and credit grant — only exist on the event thread).
struct NotaryDaemon::Completion {
  std::uint64_t conn_id = 0;
  std::uint32_t shard = 0;
  StageStamps at;
};

/// One slow frame kept for the waterfall: full per-stage breakdown.
struct NotaryDaemon::Exemplar {
  std::uint64_t conn_id = 0;
  std::uint32_t shard = 0;
  std::uint64_t ts_us = 0;  // ingress, relative to daemon start
  std::uint64_t total_us = 0;
  std::uint64_t stage_us[kStageCount - 1] = {0, 0, 0, 0, 0, 0};
};

/// Reservoir of the K slowest frames per window, double-buffered so a
/// query right after a window roll still sees a full window.
struct NotaryDaemon::TracePlane {
  std::mutex mutex;
  std::uint64_t window_start_ms = 0;
  std::uint64_t window_events = 0;
  std::uint64_t prev_window_events = 0;
  std::vector<Exemplar> current;
  std::vector<Exemplar> previous;
};

/// Ticker-sampled gauges (queue depth, outstanding credits, shed rate) in
/// their own registry island, merged into merged_metrics() on demand.
struct NotaryDaemon::TickerPlane {
  std::mutex mutex;
  tls::telemetry::MetricsRegistry registry;
  std::uint64_t last_sample_ms = 0;
  std::uint64_t last_shed = 0;
};

/// Single-writer seqlock over the outcome ledger. The event thread
/// publishes; readers retry until they catch a quiescent (even, stable)
/// sequence. All fields are atomics, so the retry loop is race-free under
/// TSan, not just in practice.
struct NotaryDaemon::StatsSeqlock {
  std::atomic<std::uint64_t> seq{0};
  std::array<std::atomic<std::uint64_t>, 12> words{};
};

struct NotaryDaemon::Shard {
  // Admission plane: the bounded queue. Locked by the event thread (push)
  // and this shard's worker (pop) only — observes never block admission.
  std::mutex queue_mutex;
  std::condition_variable cv;
  std::deque<Job> queue;

  // Observe plane: exclusive monitor access for the worker; checkpoint
  // aggregation and query serving take it briefly.
  std::mutex monitor_mutex;
  std::unique_ptr<tls::notary::PassiveMonitor> monitor;

  // Telemetry island, merged on demand.
  std::mutex telemetry_mutex;
  tls::telemetry::MetricsRegistry registry;
  tls::telemetry::Histogram* latency = nullptr;
  /// Wide-dynamic-range stage histograms (one per kStageNames entry),
  /// resolved once at start() so the hot path never does a map lookup.
  tls::telemetry::Histogram* stage[kStageCount] = {};
};

struct NotaryDaemon::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;
  CreditGate gate;
  std::vector<std::uint8_t> outbound;
  std::size_t out_off = 0;
  std::uint64_t last_progress_ms = 0;
  bool pending_close = false;
  /// Month of the last well-formed capture — the best anchor we have for
  /// quarantining this connection's later wire-level garbage.
  tls::core::Month last_month{2012, 1};

  Connection(int fd_, std::uint64_t id_, std::uint32_t max_frame,
             std::uint32_t window, std::uint64_t now)
      : fd(fd_), id(id_), decoder(max_frame), gate(window),
        last_progress_ms(now) {}
};

struct NotaryDaemon::JournalPlane {
  explicit JournalPlane(const std::string& dir) : backend(dir) {}
  tls::study::PosixJournalBackend backend;
  std::unique_ptr<tls::study::GroupCommitWriter> writer;
};

NotaryDaemon::NotaryDaemon(DaemonConfig config)
    : config_(std::move(config)),
      counters_(std::make_unique<AtomicCounters>()) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.shard_queue_depth == 0) config_.shard_queue_depth = 1;
  if (config_.credit_window == 0) config_.credit_window = 1;
}

NotaryDaemon::~NotaryDaemon() {
  request_stop();
  join();
  if (crash_handler_installed_) {
    tls::telemetry::uninstall_flight_crash_handler();
    crash_handler_installed_ = false;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rx_ >= 0) ::close(wake_rx_);
  if (wake_tx_ >= 0) ::close(wake_tx_);
}

bool NotaryDaemon::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    last_error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    last_error_ = "bad bind address: " + config_.bind_address;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    last_error_ = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) {
    last_error_ = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) != 0) {
    last_error_ = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  wake_rx_ = pipefd[0];
  wake_tx_ = pipefd[1];

  if (!config_.checkpoint_dir.empty() && !open_journal()) return false;

  start_us_ = now_us();
  stats_seq_ = std::make_unique<StatsSeqlock>();
  if (config_.observability) {
    flight_ = std::make_unique<tls::telemetry::FlightRecorder>(
        1 + config_.shards, config_.flight_events);
    trace_ = std::make_unique<TracePlane>();
    trace_->window_start_ms = now_ms();
    ticker_ = std::make_unique<TickerPlane>();
    ticker_->last_sample_ms = now_ms();
    if (config_.crash_handler && !config_.checkpoint_dir.empty()) {
      tls::telemetry::install_flight_crash_handler(
          flight_.get(), config_.checkpoint_dir + "/FLIGHT.bin");
      crash_handler_installed_ = true;
    }
  }

  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->monitor =
        std::make_unique<tls::notary::PassiveMonitor>(config_.database);
    shard->latency = &shard->registry.histogram(
        "tls_repro_daemon_ingest_latency_us",
        tls::telemetry::wide_latency_buckets_us(), {},
        "Admission-to-observe latency of ingested captures", true);
    if (config_.observability) {
      for (std::size_t s = 0; s < kStageCount; ++s) {
        std::string labels = "shard=\"" + std::to_string(i) + "\",stage=\"";
        labels += kStageNames[s];
        labels += "\"";
        shard->stage[s] = &shard->registry.histogram(
            "tls_repro_daemon_stage_us",
            tls::telemetry::wide_latency_buckets_us(), labels,
            "Per-stage frame latency (log-linear wide-range buckets)", true);
      }
    }
    shards_.push_back(std::move(shard));
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  event_thread_ = std::thread([this] { event_loop(); });
  return true;
}

bool NotaryDaemon::open_journal() {
  journal_ = std::make_unique<JournalPlane>(config_.checkpoint_dir);
  auto segments = journal_->backend.list_segments();
  std::sort(segments.begin(), segments.end());
  std::uint32_t next_segment = 1;
  if (!segments.empty()) next_segment = segments.back() + 1;

  if (config_.resume) {
    // Scan-is-ground-truth replay: every checksummed group in every
    // segment is a candidate; the newest epoch that decodes wins. Torn
    // tails and foreign frames are simply skipped — worst case the daemon
    // falls back one epoch and the sensors re-send.
    struct Candidate {
      std::uint64_t slot;
      std::vector<std::uint8_t> payload;
    };
    std::vector<Candidate> candidates;
    for (auto id : segments) {
      std::vector<std::uint8_t> bytes;
      if (!journal_->backend.read_segment(id, bytes)) continue;
      auto scan = tls::study::scan_segment(bytes);
      for (const auto& frame_bytes : scan.frames) {
        try {
          auto frame = tls::study::decode_frame(frame_bytes);
          if (frame.options_digest != kDaemonOptionsDigest) continue;
          if (frame.header.kind != tls::study::FrameKind::kPassiveShard)
            continue;
          candidates.push_back({frame.header.slot, std::move(frame.payload)});
        } catch (const tls::wire::ParseError&) {
          // Corrupt frame inside a valid group: skip, older epochs remain.
        }
      }
    }
    // Newest first; of two frames with one slot, the later-written wins.
    std::reverse(candidates.begin(), candidates.end());
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.slot > b.slot;
                     });
    // New epochs number above every slot seen, decodable or not, so a
    // later resume never prefers an undecodable epoch over newer data.
    if (!candidates.empty()) epoch_ = candidates.front().slot;
    for (const auto& candidate : candidates) {
      try {
        baseline_ = std::make_unique<tls::notary::PassiveMonitor>(
            tls::notary::decode_monitor_state(candidate.payload,
                                              config_.database));
        resumed_epoch_ = candidate.slot;
        break;
      } catch (const tls::wire::ParseError&) {
        // Checksum-valid but undecodable (e.g. an older snapshot version):
        // count it and fall back to the next older epoch.
        ++resume_decode_failures_;
      }
    }
  } else {
    for (auto id : segments) journal_->backend.remove_segment(id);
    journal_->backend.clear_index();
    next_segment = 1;
  }

  tls::study::GroupCommitWriter::Config wcfg;
  wcfg.group_frames = config_.journal_group_frames;
  wcfg.group_ms = config_.journal_group_ms;
  wcfg.options_digest = kDaemonOptionsDigest;
  wcfg.first_segment_id = next_segment;
  journal_->writer = std::make_unique<tls::study::GroupCommitWriter>(
      &journal_->backend, wcfg, nullptr);
  return true;
}

void NotaryDaemon::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void NotaryDaemon::wake() {
  if (wake_tx_ < 0) return;
  const std::uint8_t byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] auto n = ::write(wake_tx_, &byte, 1);
}

void NotaryDaemon::join() {
  if (event_thread_.joinable()) event_thread_.join();
}

DaemonCounters NotaryDaemon::counters() const {
  DaemonCounters c;
  c.offered = counters_->offered.load(std::memory_order_relaxed);
  c.admitted = counters_->admitted.load(std::memory_order_relaxed);
  c.ingested = counters_->ingested.load(std::memory_order_relaxed);
  c.shed = counters_->shed.load(std::memory_order_relaxed);
  c.malformed = counters_->malformed.load(std::memory_order_relaxed);
  c.credit_violations =
      counters_->credit_violations.load(std::memory_order_relaxed);
  c.frame_errors = counters_->frame_errors.load(std::memory_order_relaxed);
  c.idle_timeouts = counters_->idle_timeouts.load(std::memory_order_relaxed);
  c.connections_accepted =
      counters_->connections_accepted.load(std::memory_order_relaxed);
  c.connections_closed =
      counters_->connections_closed.load(std::memory_order_relaxed);
  c.sslv2 = counters_->sslv2.load(std::memory_order_relaxed);
  c.checkpoint_epochs =
      counters_->checkpoint_epochs.load(std::memory_order_relaxed);
  return c;
}

void NotaryDaemon::publish_stats_snapshot() {
  if (!stats_seq_) return;
  // Read the worker-written counters FIRST: every ingested capture's
  // offered/admitted increments happened-before its ingest (the handoff
  // goes through the shard queue mutex), so reading offered/admitted
  // afterwards can only observe values >= the ones implied by `ingested`.
  // Combined with shed/malformed being event-thread-owned (and this runs
  // on the event thread), the published snapshot always satisfies
  //   offered >= ingested + shed + malformed   and   admitted >= ingested.
  DaemonCounters c;
  c.ingested = counters_->ingested.load(std::memory_order_acquire);
  c.sslv2 = counters_->sslv2.load(std::memory_order_relaxed);
  c.offered = counters_->offered.load(std::memory_order_relaxed);
  c.admitted = counters_->admitted.load(std::memory_order_relaxed);
  c.shed = counters_->shed.load(std::memory_order_relaxed);
  c.malformed = counters_->malformed.load(std::memory_order_relaxed);
  c.credit_violations =
      counters_->credit_violations.load(std::memory_order_relaxed);
  c.frame_errors = counters_->frame_errors.load(std::memory_order_relaxed);
  c.idle_timeouts = counters_->idle_timeouts.load(std::memory_order_relaxed);
  c.connections_accepted =
      counters_->connections_accepted.load(std::memory_order_relaxed);
  c.connections_closed =
      counters_->connections_closed.load(std::memory_order_relaxed);
  c.checkpoint_epochs =
      counters_->checkpoint_epochs.load(std::memory_order_relaxed);

  StatsSeqlock& s = *stats_seq_;
  const std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(seq + 1, std::memory_order_relaxed);  // odd: write in flight
  // Pairs with snapshot_counters()' acquire fence: a reader that loads any
  // word stored below also sees the odd sequence, and retries.
  std::atomic_thread_fence(std::memory_order_release);
  const std::uint64_t words[12] = {
      c.offered,        c.admitted,       c.ingested,
      c.shed,           c.malformed,      c.credit_violations,
      c.frame_errors,   c.idle_timeouts,  c.connections_accepted,
      c.connections_closed, c.sslv2,      c.checkpoint_epochs};
  for (std::size_t i = 0; i < 12; ++i) {
    s.words[i].store(words[i], std::memory_order_relaxed);
  }
  s.seq.store(seq + 2, std::memory_order_release);  // even: stable
}

DaemonCounters NotaryDaemon::snapshot_counters() const {
  if (!stats_seq_ || stats_seq_->seq.load(std::memory_order_acquire) == 0) {
    // Never published (start() not reached): the raw read is all there is.
    return counters();
  }
  const StatsSeqlock& s = *stats_seq_;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // publish in flight
    std::uint64_t words[12];
    for (std::size_t i = 0; i < 12; ++i) {
      words[i] = s.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != s1) continue;
    DaemonCounters c;
    c.offered = words[0];
    c.admitted = words[1];
    c.ingested = words[2];
    c.shed = words[3];
    c.malformed = words[4];
    c.credit_violations = words[5];
    c.frame_errors = words[6];
    c.idle_timeouts = words[7];
    c.connections_accepted = words[8];
    c.connections_closed = words[9];
    c.sslv2 = words[10];
    c.checkpoint_epochs = words[11];
    return c;
  }
  return counters();  // pathological contention; raw read beats livelock
}

namespace {

/// Upper-bound quantile from histogram buckets: the smallest bucket bound
/// covering fraction `q` of the samples (conservative — never understates).
std::uint64_t bucket_quantile(const tls::telemetry::Histogram& h, double q) {
  if (h.count == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(h.count) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    seen += h.counts[i];
    if (seen >= target) {
      return i < h.bounds.size() ? h.bounds[i] : h.max;
    }
  }
  return h.max;
}

}  // namespace

std::string NotaryDaemon::stats_text() {
  // Seqlock snapshot, not the raw atomics: a query racing a worker must
  // never see a ledger that transiently violates closure.
  const DaemonCounters c = snapshot_counters();
  std::uint64_t quarantined = 0;
  {
    std::lock_guard<std::mutex> lock(wire_mutex_);
    quarantined = wire_quarantine_.total_pushed();
  }
  tls::telemetry::Histogram latency;
  latency.bounds = tls::telemetry::wide_latency_buckets_us();
  latency.counts.assign(latency.bounds.size() + 1, 0);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->telemetry_mutex);
    latency.merge(*shard->latency);
  }
  const std::uint64_t journal_dropped =
      journal_ ? journal_->writer->stats().dropped_frames : 0;
  std::ostringstream out;
  out << "admitted=" << c.admitted << '\n'
      << "checkpoint_epochs=" << c.checkpoint_epochs << '\n'
      << "connections_accepted=" << c.connections_accepted << '\n'
      << "connections_closed=" << c.connections_closed << '\n'
      << "credit_violations=" << c.credit_violations << '\n'
      << "frame_errors=" << c.frame_errors << '\n'
      << "idle_timeouts=" << c.idle_timeouts << '\n'
      << "ingest_p50_us=" << bucket_quantile(latency, 0.50) << '\n'
      << "ingest_p99_us=" << bucket_quantile(latency, 0.99) << '\n'
      << "ingest_p999_us=" << bucket_quantile(latency, 0.999) << '\n'
      << "ingested=" << c.ingested << '\n'
      << "journal_dropped_frames=" << journal_dropped << '\n'
      << "malformed=" << c.malformed << '\n'
      << "offered=" << c.offered << '\n'
      << "resume_decode_failures=" << resume_decode_failures_ << '\n'
      << "resumed_epoch=" << resumed_epoch_ << '\n'
      << "shed=" << c.shed << '\n'
      << "sslv2=" << c.sslv2 << '\n'
      << "wire_quarantined=" << quarantined << '\n';
  return out.str();
}

tls::telemetry::MetricsRegistry NotaryDaemon::merged_metrics() {
  tls::telemetry::MetricsRegistry reg;
  const DaemonCounters c = snapshot_counters();
  const auto add = [&reg](const char* name, const char* help,
                          std::uint64_t value) {
    reg.counter(name, {}, help).add(value);
  };
  add("tls_repro_daemon_offered_total", "Captures offered by clients",
      c.offered);
  add("tls_repro_daemon_admitted_total", "Captures admitted to a shard queue",
      c.admitted);
  add("tls_repro_daemon_ingested_total", "Captures observed by a shard",
      c.ingested);
  add("tls_repro_daemon_shed_total",
      "Captures refused admission (queue full or credit violation)", c.shed);
  add("tls_repro_daemon_malformed_total",
      "Checksum-valid frames whose capture payload failed to parse",
      c.malformed);
  add("tls_repro_daemon_credit_violations_total",
      "Captures sent past the granted credit window", c.credit_violations);
  add("tls_repro_daemon_frame_errors_total",
      "Connections dropped for wire-framing violations", c.frame_errors);
  add("tls_repro_daemon_idle_timeouts_total",
      "Connections dropped mid-frame by the slow-loris guard",
      c.idle_timeouts);
  add("tls_repro_daemon_connections_total", "Connections accepted",
      c.connections_accepted);
  add("tls_repro_daemon_checkpoint_epochs_total",
      "Aggregate checkpoint epochs committed to the journal",
      c.checkpoint_epochs);
  {
    std::lock_guard<std::mutex> lock(wire_mutex_);
    for (std::size_t s = 0; s < tls::notary::kIngestStageCount; ++s) {
      for (std::size_t e = 0; e < tls::wire::kParseErrorCodeCount; ++e) {
        const auto stage = static_cast<tls::notary::IngestStage>(s);
        const auto code = static_cast<tls::wire::ParseErrorCode>(e);
        const std::uint64_t n = wire_errors_.count(stage, code);
        if (n == 0) continue;
        std::string labels = "stage=\"";
        labels += tls::notary::ingest_stage_name(stage);
        labels += "\",code=\"";
        labels += tls::wire::parse_error_code_name(code);
        labels += "\"";
        reg.counter("tls_repro_daemon_wire_errors_total", labels,
                    "Wire-level decode failures by stage and code")
            .add(n);
      }
    }
    reg.gauge("tls_repro_daemon_quarantine_pushed", {},
              "Total wire-level records quarantined")
        .set(wire_quarantine_.total_pushed());
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    auto& shard = *shards_[i];
    {
      std::lock_guard<std::mutex> lock(shard.telemetry_mutex);
      reg.merge(shard.registry);
    }
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      depth = shard.queue.size();
    }
    reg.gauge("tls_repro_daemon_queue_depth",
              "shard=\"" + std::to_string(i) + "\"",
              "Shard ingest-queue occupancy at scrape time", true)
        .set(depth);
  }
  if (ticker_) {
    std::lock_guard<std::mutex> lock(ticker_->mutex);
    reg.merge(ticker_->registry);
  }
  if (flight_) {
    std::uint64_t recorded = 0, dropped = 0;
    for (std::size_t i = 0; i < flight_->lanes(); ++i) {
      recorded += flight_->lane(i).total();
      dropped += flight_->lane(i).dropped();
    }
    reg.gauge("tls_repro_daemon_flight_events", {},
              "Flight-recorder events recorded across all lanes", true)
        .set(recorded);
    reg.gauge("tls_repro_daemon_flight_dropped", {},
              "Flight-recorder events lost to drop-oldest", true)
        .set(dropped);
  }
  return reg;
}

// ---------------------------------------------------------------------------
// Observability plane
// ---------------------------------------------------------------------------

void NotaryDaemon::flight(std::size_t lane,
                          tls::telemetry::FlightEventKind kind,
                          std::uint32_t a, std::uint64_t b) {
  if (!flight_) return;
  flight_->lane(lane).record(kind, a, b, now_us() - start_us_);
}

std::vector<std::uint8_t> NotaryDaemon::flight_bytes() const {
  if (!flight_) return {};
  return flight_->serialize();
}

void NotaryDaemon::finalize_completion(const Completion& done,
                                       std::uint64_t complete_us,
                                       std::uint64_t grant_us) {
  // Stage durations; saturating subtraction guards the (clock-monotonic,
  // but stamped on two threads) edges against zero-length inversions.
  std::uint64_t stage_us[kStageCount];
  stage_us[0] = sub_sat(done.at.decode, done.at.ingress);
  stage_us[1] = sub_sat(done.at.enqueue, done.at.decode);
  stage_us[2] = sub_sat(done.at.dequeue, done.at.enqueue);
  stage_us[3] = sub_sat(done.at.observe, done.at.dequeue);
  stage_us[4] = sub_sat(complete_us, done.at.observe);
  stage_us[5] = sub_sat(grant_us, complete_us);
  stage_us[6] = sub_sat(grant_us, done.at.ingress);  // total

  auto& shard = *shards_[done.shard];
  {
    std::lock_guard<std::mutex> lock(shard.telemetry_mutex);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      shard.stage[s]->record(stage_us[s]);
    }
  }

  std::lock_guard<std::mutex> lock(trace_->mutex);
  const std::uint64_t now = now_ms();
  if (now - trace_->window_start_ms >= config_.trace_window_ms) {
    trace_->previous.swap(trace_->current);
    trace_->prev_window_events = trace_->window_events;
    trace_->current.clear();
    trace_->window_events = 0;
    trace_->window_start_ms = now;
  }
  ++trace_->window_events;
  Exemplar ex;
  ex.conn_id = done.conn_id;
  ex.shard = done.shard;
  ex.ts_us = sub_sat(done.at.ingress, start_us_);
  ex.total_us = stage_us[6];
  for (std::size_t s = 0; s + 1 < kStageCount; ++s) ex.stage_us[s] = stage_us[s];
  if (trace_->current.size() < config_.trace_exemplars) {
    trace_->current.push_back(ex);
    return;
  }
  // Reservoir of the K slowest: evict the fastest resident if slower.
  std::size_t min_i = 0;
  for (std::size_t i = 1; i < trace_->current.size(); ++i) {
    if (trace_->current[i].total_us < trace_->current[min_i].total_us) {
      min_i = i;
    }
  }
  if (ex.total_us > trace_->current[min_i].total_us) {
    trace_->current[min_i] = ex;
  }
}

std::string NotaryDaemon::trace_text() {
  if (!trace_) return "observability=off\n";
  // Merge each stage's histogram across shards for the percentile lines.
  std::array<tls::telemetry::Histogram, kStageCount> merged;
  for (auto& h : merged) {
    h.bounds = tls::telemetry::wide_latency_buckets_us();
    h.counts.assign(h.bounds.size() + 1, 0);
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->telemetry_mutex);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      if (shard->stage[s] != nullptr) merged[s].merge(*shard->stage[s]);
    }
  }
  std::vector<Exemplar> exemplars;
  std::uint64_t window_events = 0, prev_window_events = 0;
  {
    std::lock_guard<std::mutex> lock(trace_->mutex);
    exemplars = trace_->current;
    exemplars.insert(exemplars.end(), trace_->previous.begin(),
                     trace_->previous.end());
    window_events = trace_->window_events;
    prev_window_events = trace_->prev_window_events;
  }
  std::sort(exemplars.begin(), exemplars.end(),
            [](const Exemplar& a, const Exemplar& b) {
              return a.total_us > b.total_us;
            });
  if (exemplars.size() > config_.trace_exemplars) {
    exemplars.resize(config_.trace_exemplars);
  }
  std::ostringstream out;
  out << "trace window_ms=" << config_.trace_window_ms
      << " exemplars=" << config_.trace_exemplars
      << " window_events=" << window_events
      << " prev_window_events=" << prev_window_events << '\n';
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out << "stage " << kStageNames[s] << " count=" << merged[s].count
        << " p50_us=" << bucket_quantile(merged[s], 0.50)
        << " p99_us=" << bucket_quantile(merged[s], 0.99)
        << " p999_us=" << bucket_quantile(merged[s], 0.999)
        << " max_us=" << merged[s].max << '\n';
  }
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    const Exemplar& ex = exemplars[i];
    out << "exemplar rank=" << (i + 1) << " shard=" << ex.shard
        << " conn=" << ex.conn_id << " ts_us=" << ex.ts_us
        << " total_us=" << ex.total_us;
    for (std::size_t s = 0; s + 1 < kStageCount; ++s) {
      out << ' ' << kStageNames[s] << "_us=" << ex.stage_us[s];
    }
    out << '\n';
  }
  return out.str();
}

std::string NotaryDaemon::trace_chrome() {
  tls::telemetry::TraceRecorder rec;
  if (!trace_) return rec.to_json();
  std::vector<Exemplar> exemplars;
  {
    std::lock_guard<std::mutex> lock(trace_->mutex);
    exemplars = trace_->current;
    exemplars.insert(exemplars.end(), trace_->previous.begin(),
                     trace_->previous.end());
  }
  std::sort(exemplars.begin(), exemplars.end(),
            [](const Exemplar& a, const Exemplar& b) {
              return a.total_us > b.total_us;
            });
  if (exemplars.size() > config_.trace_exemplars) {
    exemplars.resize(config_.trace_exemplars);
  }
  for (std::size_t i = 0; i < exemplars.size(); ++i) {
    const Exemplar& ex = exemplars[i];
    std::uint64_t cursor = ex.ts_us;
    for (std::size_t s = 0; s + 1 < kStageCount; ++s) {
      tls::telemetry::TraceEvent event;
      event.name = kStageNames[s];
      event.category = "frame";
      event.ts_us = cursor;
      event.dur_us = ex.stage_us[s];
      event.tid = static_cast<std::uint32_t>(i + 1);
      event.args.emplace_back("conn", ex.conn_id);
      event.args.emplace_back("shard", ex.shard);
      event.args.emplace_back("total_us", ex.total_us);
      rec.add(std::move(event));
      cursor += ex.stage_us[s];
    }
  }
  return rec.to_json();
}

void NotaryDaemon::sample_gauges(std::uint64_t now) {
  if (!ticker_) return;
  if (now - ticker_->last_sample_ms < config_.gauge_sample_ms) return;
  const std::uint64_t elapsed_ms = now - ticker_->last_sample_ms;
  ticker_->last_sample_ms = now;

  std::vector<std::size_t> depths(shards_.size(), 0);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->queue_mutex);
    depths[i] = shards_[i]->queue.size();
  }
  std::uint64_t outstanding = 0;
  for (auto& [id, conn] : conns_) outstanding += conn->gate.outstanding();
  const std::uint64_t shed = counters_->shed.load(std::memory_order_relaxed);
  const std::uint64_t shed_delta = sub_sat(shed, ticker_->last_shed);
  ticker_->last_shed = shed;
  const std::uint64_t shed_per_s =
      elapsed_ms == 0 ? 0 : shed_delta * 1000 / elapsed_ms;

  std::lock_guard<std::mutex> lock(ticker_->mutex);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    const std::string label = "shard=\"" + std::to_string(i) + "\"";
    auto& peak = ticker_->registry.gauge(
        "tls_repro_daemon_queue_depth_peak", label,
        "High-water shard queue occupancy across ticker samples", true);
    peak.set(std::max<std::uint64_t>(peak.value, depths[i]));
  }
  ticker_->registry
      .gauge("tls_repro_daemon_credits_outstanding", {},
             "Credits spent by clients and not yet resolved", true)
      .set(outstanding);
  ticker_->registry
      .gauge("tls_repro_daemon_shed_rate_per_s", {},
             "Sheds per second over the last ticker interval", true)
      .set(shed_per_s);
}

void NotaryDaemon::write_flight_files() {
  if (!flight_ || config_.checkpoint_dir.empty()) return;
  flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/1, 0);
  const auto bytes = flight_->serialize();
  tls::study::write_file_durable(config_.checkpoint_dir + "/FLIGHT.bin",
                                 bytes);
  const std::string text = tls::telemetry::render_flight(bytes);
  const std::span<const std::uint8_t> text_bytes(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  tls::study::write_file_durable(config_.checkpoint_dir + "/FLIGHT.txt",
                                 text_bytes);
}

tls::notary::PassiveMonitor NotaryDaemon::aggregate_locked() {
  tls::notary::PassiveMonitor aggregate(config_.database);
  if (baseline_) aggregate.absorb(*baseline_);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->monitor_mutex);
    aggregate.absorb(*shard->monitor);
  }
  return aggregate;
}

tls::notary::PassiveMonitor NotaryDaemon::aggregate_monitor() {
  return aggregate_locked();
}

void NotaryDaemon::checkpoint_epoch(bool final_epoch) {
  if (!journal_ || !journal_->writer) return;
  auto aggregate = aggregate_locked();
  const auto state = tls::notary::encode_monitor_state(aggregate);
  ++epoch_;
  tls::study::FrameHeader header;
  header.kind = tls::study::FrameKind::kPassiveShard;
  header.month_index = 0;
  header.slot = static_cast<std::uint32_t>(epoch_);
  auto frame = tls::study::encode_frame(kDaemonOptionsDigest, header, state);
  journal_->writer->enqueue(std::move(frame));
  journal_->writer->flush();
  counters_->checkpoint_epochs.fetch_add(1, std::memory_order_relaxed);
  flight(0, tls::telemetry::FlightEventKind::kCheckpointEpoch,
         static_cast<std::uint32_t>(epoch_),
         counters_->ingested.load(std::memory_order_relaxed));
  last_checkpoint_ingested_ =
      counters_->ingested.load(std::memory_order_relaxed);
  if (final_epoch) journal_->writer->stop();
}

void NotaryDaemon::write_snapshot_files() {
  if (config_.checkpoint_dir.empty()) return;
  auto aggregate = aggregate_locked();
  const auto state = tls::notary::encode_monitor_state(aggregate);
  tls::study::FrameHeader header;
  header.kind = tls::study::FrameKind::kPassiveShard;
  header.month_index = 0;
  header.slot = static_cast<std::uint32_t>(epoch_);
  const auto frame =
      tls::study::encode_frame(kDaemonOptionsDigest, header, state);
  tls::study::write_file_durable(config_.checkpoint_dir + "/SNAPSHOT.bin",
                                 frame);
  std::string text = stats_text();
  text += "clean_drain=1\n";
  const std::span<const std::uint8_t> text_bytes(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
  tls::study::write_file_durable(config_.checkpoint_dir + "/SNAPSHOT.txt",
                                 text_bytes);
}

// ---------------------------------------------------------------------------
// Worker plane
// ---------------------------------------------------------------------------

void NotaryDaemon::worker_loop(std::size_t shard_index) {
  auto& shard = *shards_[shard_index];
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      shard.cv.wait(lock, [&] {
        return workers_stop_.load(std::memory_order_acquire) ||
               !shard.queue.empty();
      });
      if (shard.queue.empty()) {
        if (workers_stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      job = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    if (config_.observability) job.at.dequeue = now_us();
    if (config_.observe_delay_us_for_test != 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.observe_delay_us_for_test));
    }
    const auto month = month_from_index(job.capture.month_index);
    {
      std::lock_guard<std::mutex> lock(shard.monitor_mutex);
      if (job.capture.sslv2) {
        shard.monitor->observe_sslv2(month);
        counters_->sslv2.fetch_add(1, std::memory_order_relaxed);
      } else {
        shard.monitor->observe_wire(month, job.capture.day,
                                    job.capture.client, job.capture.server,
                                    job.capture.ske, job.capture.success,
                                    job.capture.used_fallback,
                                    job.capture.alert);
      }
    }
    const std::uint64_t observed_at = now_us();
    if (config_.observability) job.at.observe = observed_at;
    const std::uint64_t latency = observed_at - job.admit_us;
    {
      std::lock_guard<std::mutex> lock(shard.telemetry_mutex);
      shard.latency->record(latency);
    }
    // This lane's ring belongs to this worker alone (lane 1 + shard).
    flight(1 + shard_index, tls::telemetry::FlightEventKind::kIngest,
           static_cast<std::uint32_t>(shard_index), latency);
    counters_->ingested.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      Completion done;
      done.conn_id = job.conn_id;
      done.shard = static_cast<std::uint32_t>(shard_index);
      done.at = job.at;
      completions_.push_back(done);
    }
    wake();
  }
}

// ---------------------------------------------------------------------------
// Event plane
// ---------------------------------------------------------------------------

void NotaryDaemon::queue_frame(Connection& conn, FrameType type,
                               std::span<const std::uint8_t> payload) {
  const auto bytes = encode_frame(type, payload);
  conn.outbound.insert(conn.outbound.end(), bytes.begin(), bytes.end());
}

bool NotaryDaemon::flush_outbound(Connection& conn) {
  while (conn.out_off < conn.outbound.size()) {
    const auto n =
        ::send(conn.fd, conn.outbound.data() + conn.out_off,
               conn.outbound.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn.out_off == conn.outbound.size()) {
    conn.outbound.clear();
    conn.out_off = 0;
  } else if (conn.out_off > 65536) {
    conn.outbound.erase(conn.outbound.begin(),
                        conn.outbound.begin() +
                            static_cast<std::ptrdiff_t>(conn.out_off));
    conn.out_off = 0;
  }
  return true;
}

void NotaryDaemon::close_connection(std::uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second->fd);
  conns_.erase(it);
  counters_->connections_closed.fetch_add(1, std::memory_order_relaxed);
  flight(0, tls::telemetry::FlightEventKind::kConnClose,
         static_cast<std::uint32_t>(id), 0);
}

void NotaryDaemon::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(
        fd, id, config_.max_frame_bytes, config_.credit_window, now_ms());
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    flight(0, tls::telemetry::FlightEventKind::kConnAccept,
           static_cast<std::uint32_t>(id), 0);
    // Open the credit window immediately: the client may not send a
    // capture before it holds credit.
    const auto grant = encode_credit_grant(config_.credit_window);
    queue_frame(*conn, FrameType::kCreditGrant, grant);
    auto* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    if (!flush_outbound(*raw)) close_connection(id);
  }
}

void NotaryDaemon::handle_capture(Connection& conn,
                                  std::vector<std::uint8_t> payload) {
  const std::uint64_t ingress_us = config_.observability ? now_us() : 0;
  const auto conn_a = static_cast<std::uint32_t>(conn.id);
  counters_->offered.fetch_add(1, std::memory_order_relaxed);
  if (!conn.gate.consume()) {
    // Protocol violation: the client overran its window. The capture is
    // refused admission (a shed, honestly counted) and the connection
    // goes away — a sensor that ignores backpressure cannot be reasoned
    // about.
    counters_->credit_violations.fetch_add(1, std::memory_order_relaxed);
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
    flight(0, tls::telemetry::FlightEventKind::kCreditViolation, conn_a, 0);
    close_connection(conn.id);  // erases conn — caller must not touch it
    return;
  }
  CapturePayload capture;
  try {
    capture = decode_capture(payload);
  } catch (const tls::wire::ParseError& err) {
    counters_->malformed.fetch_add(1, std::memory_order_relaxed);
    flight(0, tls::telemetry::FlightEventKind::kMalformed, conn_a,
           static_cast<std::uint64_t>(err.code()));
    {
      std::lock_guard<std::mutex> lock(wire_mutex_);
      wire_errors_.record(tls::notary::IngestStage::kClientHello, err.code());
      wire_quarantine_.push(tls::notary::IngestStage::kClientHello, err.code(),
                            conn.last_month, payload);
    }
    conn.gate.complete();
    return;
  }
  const std::uint64_t decode_us = config_.observability ? now_us() : 0;
  conn.last_month = month_from_index(capture.month_index);
  const std::size_t shard_index =
      capture.client.empty()
          ? capture.month_index % shards_.size()
          : tls::core::fnv1a64(capture.client) % shards_.size();
  auto& shard = *shards_[shard_index];
  bool admitted = false;
  std::size_t depth_at_refusal = 0;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    if (shard.queue.size() < config_.shard_queue_depth) {
      Job job;
      job.capture = std::move(capture);
      job.conn_id = conn.id;
      job.admit_us = now_us();
      if (config_.observability) {
        job.at.ingress = ingress_us;
        job.at.decode = decode_us;
        job.at.enqueue = job.admit_us;
      }
      shard.queue.push_back(std::move(job));
      admitted = true;
    } else {
      depth_at_refusal = shard.queue.size();
    }
  }
  if (admitted) {
    counters_->admitted.fetch_add(1, std::memory_order_relaxed);
    flight(0, tls::telemetry::FlightEventKind::kAdmit, conn_a, shard_index);
    shard.cv.notify_one();
  } else {
    counters_->shed.fetch_add(1, std::memory_order_relaxed);
    flight(0, tls::telemetry::FlightEventKind::kShed, conn_a,
           depth_at_refusal);
    conn.gate.complete();
  }
}

bool NotaryDaemon::process_frame(Connection& conn, Frame frame) {
  if (!is_client_frame(frame.type)) {
    counters_->frame_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  switch (frame.type) {
    case FrameType::kHello:
      break;
    case FrameType::kCapture: {
      const std::uint64_t id = conn.id;
      handle_capture(conn, std::move(frame.payload));
      // handle_capture may have erased the connection (credit violation);
      // `conn` is dangling in that case, so re-resolve by id.
      return conns_.find(id) != conns_.end();
    }
    case FrameType::kQueryStats: {
      // Re-publish before serving so the reply reflects every capture that
      // arrived earlier on this ordered connection (read-your-writes), not
      // the snapshot from the previous loop iteration.
      publish_stats_snapshot();
      const std::string text = stats_text();
      queue_frame(conn, FrameType::kStats,
                  {reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()});
      break;
    }
    case FrameType::kQueryMetrics: {
      publish_stats_snapshot();  // same read-your-writes contract as kStats
      const auto registry = merged_metrics();
      const std::string text = tls::telemetry::to_prometheus(registry);
      queue_frame(conn, FrameType::kMetrics,
                  {reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()});
      break;
    }
    case FrameType::kQueryTrace: {
      const std::string text = trace_text();
      queue_frame(conn, FrameType::kTrace,
                  {reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()});
      break;
    }
    case FrameType::kQueryFlight: {
      flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/2, 0);
      const auto bytes = flight_bytes();
      queue_frame(conn, FrameType::kFlight, bytes);
      break;
    }
    case FrameType::kGoodbye:
      conn.pending_close = true;
      break;
    default:
      break;
  }
  return true;
}

bool NotaryDaemon::read_ready(Connection& conn) {
  const std::uint64_t id = conn.id;
  std::uint8_t buf[65536];
  for (;;) {
    const auto n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    auto frames = conn.decoder.feed({buf, static_cast<std::size_t>(n)});
    for (auto& frame : frames) {
      conn.last_progress_ms = now_ms();
      if (!process_frame(conn, std::move(frame))) return false;
      if (conns_.find(id) == conns_.end()) return true;  // closed inside
    }
    if (conn.decoder.poisoned()) {
      counters_->frame_errors.fetch_add(1, std::memory_order_relaxed);
      flight(0, tls::telemetry::FlightEventKind::kFramePoison,
             static_cast<std::uint32_t>(conn.id),
             static_cast<std::uint64_t>(conn.decoder.error()));
      {
        std::lock_guard<std::mutex> lock(wire_mutex_);
        const auto code = parse_code_for(conn.decoder.error());
        wire_errors_.record(tls::notary::IngestStage::kClientFlight, code);
        wire_quarantine_.push(tls::notary::IngestStage::kClientFlight, code,
                              conn.last_month, conn.decoder.poison_prefix());
      }
      return false;
    }
  }
  return true;
}

void NotaryDaemon::drain_completions() {
  std::vector<Completion> resolved;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    resolved.swap(completions_);
  }
  const std::uint64_t complete_us =
      config_.observability && !resolved.empty() ? now_us() : 0;
  for (const auto& done : resolved) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection already gone
    it->second->gate.complete();
  }
  // Batch the resolved credits into one grant frame per connection.
  std::vector<std::uint64_t> to_close;
  for (auto& [id, conn] : conns_) {
    const std::uint32_t grant = conn->gate.take_grant();
    if (grant > 0) {
      const auto payload = encode_credit_grant(grant);
      queue_frame(*conn, FrameType::kCreditGrant, payload);
      flight(0, tls::telemetry::FlightEventKind::kCreditGrant,
             static_cast<std::uint32_t>(id), grant);
    }
    if (!conn->outbound.empty() && !flush_outbound(*conn)) {
      to_close.push_back(id);
      continue;
    }
    if (conn->pending_close && conn->outbound.empty() &&
        conn->gate.outstanding() == 0) {
      to_close.push_back(id);
    }
  }
  for (const auto id : to_close) close_connection(id);
  if (config_.observability && !resolved.empty()) {
    // The batch's grant frames are all queued by now; one stamp closes the
    // `grant` edge for every completion in the batch (documented
    // approximation — grants are batched, so the edge is batch-grained).
    const std::uint64_t grant_us = now_us();
    for (const auto& done : resolved) {
      finalize_completion(done, complete_us, grant_us);
    }
  }
}

void NotaryDaemon::sweep_idle(std::uint64_t now) {
  std::vector<std::uint64_t> to_close;
  for (auto& [id, conn] : conns_) {
    if (conn->decoder.buffered_bytes() == 0) continue;
    if (now - conn->last_progress_ms > config_.idle_timeout_ms) {
      counters_->idle_timeouts.fetch_add(1, std::memory_order_relaxed);
      flight(0, tls::telemetry::FlightEventKind::kIdleTimeout,
             static_cast<std::uint32_t>(id), 0);
      to_close.push_back(id);
    }
  }
  for (const auto id : to_close) close_connection(id);
}

void NotaryDaemon::event_loop() {
  bool draining = false;
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;
  for (;;) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rx_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (!draining && listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    if (!draining) {
      for (auto& [id, conn] : conns_) {
        short events = POLLIN;
        if (!conn->outbound.empty()) events |= POLLOUT;
        pfds.push_back({conn->fd, events, 0});
        pfd_conn.push_back(id);
      }
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

    if (pfds[0].revents & POLLIN) {
      std::uint8_t scratch[256];
      while (::read(wake_rx_, scratch, sizeof(scratch)) > 0) {
      }
    }
    drain_completions();

    std::size_t index = 1;
    if (!draining && listen_fd_ >= 0) {
      if (pfds[index].revents & POLLIN) accept_ready();
      ++index;
    }
    if (!draining) {
      for (; index < pfds.size(); ++index) {
        const std::uint64_t id = pfd_conn[index];
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        auto& conn = *it->second;
        const short re = pfds[index].revents;
        if (re & (POLLERR | POLLHUP | POLLNVAL)) {
          close_connection(id);
          continue;
        }
        if ((re & POLLOUT) && !flush_outbound(conn)) {
          close_connection(id);
          continue;
        }
        if ((re & POLLIN) && !read_ready(conn)) {
          close_connection(id);
          continue;
        }
      }
      drain_completions();
      sweep_idle(now_ms());
    }

    publish_stats_snapshot();
    if (config_.observability) {
      const std::uint64_t now = now_ms();
      sample_gauges(now);
      if (journal_ && journal_->writer && !journal_drop_booked_) {
        const std::uint64_t dropped =
            journal_->writer->stats().dropped_frames;
        if (dropped != 0) {
          journal_drop_booked_ = true;
          flight(0, tls::telemetry::FlightEventKind::kJournalDrop,
                 static_cast<std::uint32_t>(dropped), 0);
        }
      }
      if (flight_ && config_.flight_autodump_ms > 0 &&
          !config_.checkpoint_dir.empty() &&
          now - last_flight_dump_ms_ >= config_.flight_autodump_ms) {
        last_flight_dump_ms_ = now;
        flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/0, 0);
        flight_->write_file(config_.checkpoint_dir + "/FLIGHT.bin");
      }
    }

    if (config_.checkpoint_every > 0 && journal_) {
      const auto ingested =
          counters_->ingested.load(std::memory_order_relaxed);
      if (ingested - last_checkpoint_ingested_ >= config_.checkpoint_every) {
        checkpoint_epoch(false);
      }
    }

    if (!draining && stop_requested_.load(std::memory_order_acquire)) {
      draining = true;
      flight(0, tls::telemetry::FlightEventKind::kDrainStart, 0, 0);
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      // Admission stops here; already-admitted work drains below. The
      // sockets close now — sensors reconnect after the restart.
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, conn] : conns_) ids.push_back(id);
      for (const auto id : ids) close_connection(id);
    }
    if (draining) {
      const auto admitted =
          counters_->admitted.load(std::memory_order_relaxed);
      const auto ingested =
          counters_->ingested.load(std::memory_order_relaxed);
      if (admitted == ingested) break;
    }
  }

  workers_stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->cv.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  if (journal_) checkpoint_epoch(true);
  publish_stats_snapshot();  // final: readers after join() see the ledger
  write_snapshot_files();
  write_flight_files();
  running_.store(false, std::memory_order_release);
}

}  // namespace tls::daemon
