#include "daemon/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/journal.hpp"
#include "notary/snapshot.hpp"
#include "telemetry/export.hpp"
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

/// Per-thread CPU time in merged_metrics(); busy share = delta CPU over
/// delta wall time between two scrapes. Microseconds, since registry
/// counters are integers.
constexpr const char* kThreadCpuName = "tls_repro_daemon_thread_cpu_us_total";
constexpr const char* kThreadCpuHelp =
    "CPU time of each daemon thread (event loop, shard workers)";

/// Queue-depth / outstanding-credit / shed-rate gauge sampling cadence.
constexpr std::uint64_t kGaugeSampleMs = 200;

/// Flight-ring capacity per lane (lane 0 = event loop, one per shard),
/// within the ceiling that decode_flight accepts.
constexpr std::size_t kFlightEvents = 4096;
static_assert(kFlightEvents <= tls::telemetry::kFlightMaxRingCapacity);
/// Exemplar reservoir: the K slowest frames kept per trace window.
constexpr std::size_t kTraceExemplars = 8;
constexpr std::uint64_t kTraceWindowMs = 5000;

/// Journal group commit for the aggregate epochs: flush at this many
/// pending frames or when the oldest is this old, whichever comes first.
constexpr std::size_t kJournalGroupFrames = 8;
constexpr std::uint64_t kJournalGroupMs = 50;

/// Largest field capacity a recycled capture payload keeps after its
/// observe: one maximal TLS record (2^14-byte fragment plus the 5-byte
/// header). A larger field is freed, so a hostile sensor's oversized
/// captures cannot pin up to max_frame_bytes in every ring slot.
constexpr std::size_t kRetainedFieldBytes = (1u << 14) + 5;

/// Capacity every field of a new recycled payload starts with: a typical
/// hello record fits, so a payload does not allocate the first time it
/// meets a field (an alert, say) that most captures leave empty.
constexpr std::size_t kInitialFieldBytes = 512;

/// Observe time after which a worker hands back the completions of its
/// batch so far instead of at the batch's end, so a capture's credit does
/// not wait behind every later observe of a long batch. Read off the
/// dequeue and observe stamps the worker takes anyway; at microsecond
/// observes and batches of a few jobs it never fires mid-batch.
constexpr std::uint64_t kCompletionBudgetUs = 1000;

/// Ring slots a shard starts with (or shard_queue_depth, if smaller): the
/// in-flight captures of a few sensors at the default credit window.
/// The ring doubles, up to the depth, when a load queues more.
constexpr std::size_t kInitialRingSlots = 64;

CapturePayload reserved_payload() {
  CapturePayload capture;
  for (auto* field :
       {&capture.client, &capture.server, &capture.ske, &capture.alert}) {
    field->reserve(kInitialFieldBytes);
  }
  return capture;
}

/// Text (a query reply, a snapshot file) as bytes.
std::span<const std::uint8_t> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace

std::size_t shard_of(const CapturePayload& capture, std::size_t shards) {
  return capture.client.empty()
             ? capture.month_index % shards
             : tls::core::fnv1a64(capture.client) % shards;
}

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
  CapturePayload capture = reserved_payload();
  std::uint64_t conn_id = 0;
  StageStamps at;
};

/// One daemon thread's CPU time, readable from any thread: the thread's
/// own CPU clock while it runs, the total it stored on its way out after.
struct NotaryDaemon::ThreadCpu {
  std::atomic<clockid_t> clock{};
  std::atomic<bool> running{false};
  std::atomic<std::uint64_t> final_us{0};

  static std::uint64_t read_us(clockid_t id) {
    timespec ts{};
    if (::clock_gettime(id, &ts) != 0) return 0;
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000;
  }
  /// On the owning thread, first thing.
  void begin() {
    clockid_t id{};
    if (::pthread_getcpuclockid(::pthread_self(), &id) != 0) return;
    clock.store(id, std::memory_order_relaxed);
    running.store(true, std::memory_order_release);
  }
  /// On the owning thread, last thing.
  void end() {
    if (!running.load(std::memory_order_relaxed)) return;
    final_us.store(read_us(clock.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
    running.store(false, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t cpu_us() const {
    // The thread may end between the load and the read; its clock is then
    // gone (the read gives 0), and the total it stored is the answer.
    if (running.load(std::memory_order_acquire)) {
      const std::uint64_t us = read_us(clock.load(std::memory_order_relaxed));
      if (us != 0) return us;
    }
    return final_us.load(std::memory_order_relaxed);
  }
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
  /// Resolved in start(), so a sample allocates nothing.
  std::vector<tls::telemetry::Gauge*> depth_peak;  // one per shard
  tls::telemetry::Gauge* credits_outstanding = nullptr;
  tls::telemetry::Gauge* shed_rate = nullptr;
  std::uint64_t last_sample_ms = 0;
  std::uint64_t last_shed = 0;
};

struct NotaryDaemon::Shard {
  // Admission plane: the bounded queue, a ring of at most shard_queue_depth
  // jobs whose payload buffers are recycled (DESIGN.md §17). Locked by the
  // event thread (push) and this shard's worker (pop) only — observes
  // never block admission.
  std::mutex queue_mutex;
  std::condition_variable cv;
  /// `count` queued jobs start at `head`; the other slots are spare, each
  /// holding the buffers of a job already observed. Doubles (up to the
  /// depth) when every slot is queued, so the ring only reaches the
  /// occupancy the load asks of it.
  std::vector<Job> ring;
  std::size_t head = 0;
  std::size_t count = 0;
  /// Jobs the worker popped as its current batch and has not handed
  /// back: admitted but maybe unobserved, so they count against the depth.
  std::size_t in_batch = 0;
  /// Batches the worker popped (tls_repro_daemon_shard_batches_total).
  std::atomic<std::uint64_t> batches{0};
  ThreadCpu cpu;

  /// Admitted jobs not yet observed (under queue_mutex): queued plus the
  /// worker's batch. This is what shard_queue_depth bounds.
  [[nodiscard]] std::size_t occupancy() const { return count + in_batch; }

  /// The slot for the next job (under queue_mutex), or null when the
  /// occupancy has reached `depth`.
  Job* push_slot(std::size_t depth) {
    if (occupancy() >= depth) return nullptr;
    if (count == ring.size()) {
      std::rotate(ring.begin(),
                  ring.begin() + static_cast<std::ptrdiff_t>(head),
                  ring.end());
      head = 0;
      ring.resize(std::min(depth, 2 * ring.size()));
    }
    Job& slot = ring[(head + count) % ring.size()];
    ++count;
    return &slot;
  }
  /// Swaps every queued job into `batch` (under queue_mutex); each slot
  /// takes back the observed buffers of the batch entry it traded with.
  /// The batch grows to the ring's size, so like the ring it grows only
  /// when a load queues more than ever before. Returns the jobs popped.
  std::size_t pop_all_into(std::vector<Job>& batch) {
    const std::size_t n = count;
    if (batch.size() < n) batch.resize(ring.size());
    for (std::size_t i = 0; i < n; ++i) {
      std::swap(batch[i], ring[head]);
      head = (head + 1) % ring.size();
    }
    count = 0;
    in_batch = n;
    return n;
  }

  // Observe plane: exclusive monitor access for the worker; checkpoint
  // aggregation and query serving take it briefly.
  std::mutex monitor_mutex;
  std::unique_ptr<tls::notary::PassiveMonitor> monitor;

  // Telemetry island, merged on demand.
  std::mutex telemetry_mutex;
  tls::telemetry::MetricsRegistry registry;
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

NotaryDaemon::NotaryDaemon(DaemonConfig config)
    : config_(std::move(config)),
      trace_(std::make_unique<TracePlane>()),
      ticker_(std::make_unique<TickerPlane>()),
      event_cpu_(std::make_unique<ThreadCpu>()),
      counters_(std::make_unique<AtomicCounters>()) {
  scratch_ = reserved_payload();
  // Both exemplar windows at full size up front: a window roll swaps
  // them, so neither ever grows on the event thread.
  trace_->current.reserve(kTraceExemplars);
  trace_->previous.reserve(kTraceExemplars);
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
  if (config_.shards > kMaxShards) {
    last_error_ = "shards: " + std::to_string(config_.shards) +
                  " exceeds the maximum of " + std::to_string(kMaxShards);
    return false;
  }
  // One flight lane for the event loop plus one per shard.
  flight_ = std::make_unique<tls::telemetry::FlightRecorder>(
      1 + config_.shards, kFlightEvents);
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

  if (!config_.checkpoint_dir.empty()) open_journal();

  start_us_ = now_us();
  trace_->window_start_ms = ticker_->last_sample_ms = start_us_ / 1000;
  if (config_.crash_handler && !config_.checkpoint_dir.empty()) {
    tls::telemetry::install_flight_crash_handler(
        flight_.get(), config_.checkpoint_dir + "/FLIGHT.bin");
    crash_handler_installed_ = true;
  }

  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->ring.resize(std::min(config_.shard_queue_depth, kInitialRingSlots));
    shard->monitor =
        std::make_unique<tls::notary::PassiveMonitor>(config_.database);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      std::string labels = "shard=\"" + std::to_string(i) + "\",stage=\"";
      labels += kStageNames[s];
      labels += "\"";
      shard->stage[s] = &shard->registry.histogram(
          "tls_repro_daemon_stage_us",
          tls::telemetry::wide_latency_buckets_us(), labels,
          "Per-stage frame latency (log-linear wide-range buckets)", true);
    }
    shards_.push_back(std::move(shard));
  }
  {
    std::lock_guard<std::mutex> lock(ticker_->mutex);
    auto& reg = ticker_->registry;
    for (std::size_t i = 0; i < config_.shards; ++i) {
      ticker_->depth_peak.push_back(&reg.gauge(
          "tls_repro_daemon_queue_depth_peak",
          "shard=\"" + std::to_string(i) + "\"",
          "High-water shard occupancy across ticker samples", true));
    }
    ticker_->credits_outstanding = &reg.gauge(
        "tls_repro_daemon_credits_outstanding", {},
        "Credits spent by clients and not yet resolved", true);
    ticker_->shed_rate = &reg.gauge(
        "tls_repro_daemon_shed_rate_per_s", {},
        "Sheds per second over the last ticker interval", true);
  }
  running_.store(true, std::memory_order_release);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  event_thread_ = std::thread([this] { event_loop(); });
  return true;
}

void NotaryDaemon::open_journal() {
  tls::study::RunJournal::Config jc;
  jc.directory = config_.checkpoint_dir;
  jc.resume = config_.resume;
  jc.manifest.options_digest = kDaemonOptionsDigest;
  jc.group_frames = kJournalGroupFrames;
  jc.group_ms = kJournalGroupMs;
  journal_ = std::make_unique<tls::study::RunJournal>(jc);

  // The newest verified epoch that decodes wins; one that does not (e.g.
  // an older snapshot version) is invalidated and the next older tried.
  // New epochs number above every verified slot, decodable or not, so a
  // later resume never prefers an undecodable epoch over newer data.
  constexpr auto kEpoch = tls::study::FrameKind::kPassiveShard;
  const auto slots = journal_->replayed_slots(kEpoch, 0);
  if (!slots.empty()) epoch_ = slots.back();
  for (auto it = slots.rbegin(); it != slots.rend(); ++it) {
    try {
      baseline_ = std::make_unique<tls::notary::PassiveMonitor>(
          tls::notary::decode_monitor_state(*journal_->replayed(kEpoch, 0, *it),
                                            config_.database));
      resumed_epoch_ = *it;
      break;
    } catch (const tls::wire::ParseError&) {
      journal_->invalidate(kEpoch, 0, *it);
      ++resume_decode_failures_;
    }
  }
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
  // One ordered read of the live atomics. The words are not read at one
  // instant, but every counter only grows, so this load order keeps each
  // read closure-consistent:
  //  1. `ingested` (acquire) first. A worker bumps it (release) once per
  //     hand-back, after it pops the jobs, and the event thread counted each
  //     capture's `offered` and `admitted` before the queue unlock that
  //     handed the job over, so the later loads see admitted >= ingested.
  //  2. `admitted`, `shed`, `malformed` (acquire). The event thread bumps
  //     each (release) after the capture's `offered`, so the `offered`
  //     loaded last is >= admitted + shed + malformed.
  //  3. `connections_closed` (acquire) before `connections_accepted`.
  // A kStats reply reflects every capture sent before the query on the
  // same connection: the event thread counted its `offered` first.
  const AtomicCounters& a = *counters_;
  DaemonCounters c;
  c.ingested = a.ingested.load(std::memory_order_acquire);
  c.sslv2 = a.sslv2.load(std::memory_order_relaxed);
  c.admitted = a.admitted.load(std::memory_order_acquire);
  c.shed = a.shed.load(std::memory_order_acquire);
  c.malformed = a.malformed.load(std::memory_order_acquire);
  c.credit_violations = a.credit_violations.load(std::memory_order_relaxed);
  c.frame_errors = a.frame_errors.load(std::memory_order_relaxed);
  c.idle_timeouts = a.idle_timeouts.load(std::memory_order_relaxed);
  c.connections_closed = a.connections_closed.load(std::memory_order_acquire);
  c.connections_accepted =
      a.connections_accepted.load(std::memory_order_relaxed);
  c.checkpoint_epochs = a.checkpoint_epochs.load(std::memory_order_relaxed);
  c.offered = a.offered.load(std::memory_order_relaxed);
  return c;
}

std::vector<tls::telemetry::Histogram> NotaryDaemon::merged_stages() {
  std::vector<tls::telemetry::Histogram> merged(kStageCount);
  for (auto& h : merged) {
    h.bounds = tls::telemetry::wide_latency_buckets_us();
    h.counts.assign(h.bounds.size() + 1, 0);
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->telemetry_mutex);
    for (std::size_t s = 0; s < kStageCount; ++s) {
      merged[s].merge(*shard->stage[s]);
    }
  }
  return merged;
}

std::string NotaryDaemon::stats_text() {
  const DaemonCounters c = counters();
  std::uint64_t quarantined = 0;
  {
    std::lock_guard<std::mutex> lock(wire_mutex_);
    quarantined = wire_quarantine_.total_pushed();
  }
  // Ingest latency is the merged ingress->grant `total` stage.
  const tls::telemetry::Histogram latency = merged_stages()[kStageCount - 1];
  const std::uint64_t journal_dropped =
      journal_ ? journal_->dropped_frames() : 0;
  std::ostringstream out;
  out << "admitted=" << c.admitted << '\n'
      << "checkpoint_epochs=" << c.checkpoint_epochs << '\n'
      << "connections_accepted=" << c.connections_accepted << '\n'
      << "connections_closed=" << c.connections_closed << '\n'
      << "credit_violations=" << c.credit_violations << '\n'
      << "frame_errors=" << c.frame_errors << '\n'
      << "idle_timeouts=" << c.idle_timeouts << '\n'
      << "ingest_p50_us=" << latency.quantile(0.50) << '\n'
      << "ingest_p99_us=" << latency.quantile(0.99) << '\n'
      << "ingest_p999_us=" << latency.quantile(0.999) << '\n'
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
  const DaemonCounters c = counters();
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
    {
      std::lock_guard<std::mutex> lock(shard.monitor_mutex);
      shard.monitor->collect_metrics(reg);
    }
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(shard.queue_mutex);
      depth = shard.occupancy();
    }
    const std::string label = "shard=\"" + std::to_string(i) + "\"";
    reg.gauge("tls_repro_daemon_queue_depth", label,
              "Shard occupancy (queued plus the worker's batch) at scrape time",
              true)
        .set(depth);
    reg.counter(kThreadCpuName, "thread=\"shard\"," + label, kThreadCpuHelp,
                true)
        .add(shard.cpu.cpu_us());
    reg.counter("tls_repro_daemon_shard_batches_total", label,
                "Batches of queued captures each shard worker popped", true)
        .add(shard.batches.load(std::memory_order_relaxed));
  }
  reg.counter(kThreadCpuName, "thread=\"event\"", kThreadCpuHelp, true)
      .add(event_cpu_->cpu_us());
  reg.counter("tls_repro_daemon_loop_iterations_total", {},
              "Event-loop iterations (poll returns)", true)
      .add(loop_iterations_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(ticker_->mutex);
    reg.merge(ticker_->registry);
  }
  if (journal_) journal_->collect_metrics(reg);
  std::uint64_t recorded = 0, dropped = 0;
  const std::size_t lanes = flight_ ? flight_->lanes() : 0;  // before start()
  for (std::size_t i = 0; i < lanes; ++i) {
    recorded += flight_->lane(i).total();
    dropped += flight_->lane(i).dropped();
  }
  reg.gauge("tls_repro_daemon_flight_events", {},
            "Flight-recorder events recorded across all lanes", true)
      .set(recorded);
  reg.gauge("tls_repro_daemon_flight_dropped", {},
            "Flight-recorder events lost to drop-oldest", true)
      .set(dropped);
  return reg;
}

// ---------------------------------------------------------------------------
// Observability plane
// ---------------------------------------------------------------------------

void NotaryDaemon::flight(std::size_t lane,
                          tls::telemetry::FlightEventKind kind,
                          std::uint32_t a, std::uint64_t b) {
  flight_->lane(lane).record(kind, a, b, now_us() - start_us_);
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
  // The batch's grant stamp, not a clock read per completion: the
  // exemplar window is batch-grained like the grant edge.
  const std::uint64_t now = grant_us / 1000;
  if (now - trace_->window_start_ms >= kTraceWindowMs) {
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
  if (trace_->current.size() < kTraceExemplars) {
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

std::vector<NotaryDaemon::Exemplar> NotaryDaemon::slowest_exemplars() {
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
  if (exemplars.size() > kTraceExemplars) exemplars.resize(kTraceExemplars);
  return exemplars;
}

std::string NotaryDaemon::trace_text() {
  const auto merged = merged_stages();
  std::uint64_t window_events = 0, prev_window_events = 0;
  {
    std::lock_guard<std::mutex> lock(trace_->mutex);
    window_events = trace_->window_events;
    prev_window_events = trace_->prev_window_events;
  }
  const auto exemplars = slowest_exemplars();
  std::ostringstream out;
  out << "trace window_ms=" << kTraceWindowMs
      << " exemplars=" << kTraceExemplars
      << " window_events=" << window_events
      << " prev_window_events=" << prev_window_events << '\n';
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out << "stage " << kStageNames[s] << " count=" << merged[s].count
        << " p50_us=" << merged[s].quantile(0.50)
        << " p99_us=" << merged[s].quantile(0.99)
        << " p999_us=" << merged[s].quantile(0.999)
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
  const auto exemplars = slowest_exemplars();
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
  if (now - ticker_->last_sample_ms < kGaugeSampleMs) return;
  const std::uint64_t elapsed_ms = now - ticker_->last_sample_ms;
  ticker_->last_sample_ms = now;

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(shards_[i]->queue_mutex);
      depth = shards_[i]->occupancy();
    }
    std::lock_guard<std::mutex> lock(ticker_->mutex);
    auto& peak = *ticker_->depth_peak[i];
    peak.set(std::max<std::uint64_t>(peak.value, depth));
  }
  std::uint64_t outstanding = 0;
  for (auto& [id, conn] : conns_) outstanding += conn->gate.outstanding();
  const std::uint64_t shed = counters_->shed.load(std::memory_order_relaxed);
  const std::uint64_t shed_delta = sub_sat(shed, ticker_->last_shed);
  ticker_->last_shed = shed;
  const std::uint64_t shed_per_s =
      elapsed_ms == 0 ? 0 : shed_delta * 1000 / elapsed_ms;

  std::lock_guard<std::mutex> lock(ticker_->mutex);
  ticker_->credits_outstanding->set(outstanding);
  ticker_->shed_rate->set(shed_per_s);
}

void NotaryDaemon::write_flight_files() {
  if (config_.checkpoint_dir.empty()) return;
  flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/1, 0);
  const auto bytes = flight_->serialize();
  tls::study::write_file_durable(config_.checkpoint_dir + "/FLIGHT.bin",
                                 bytes);
  const std::string text = tls::telemetry::render_flight(bytes);
  tls::study::write_file_durable(config_.checkpoint_dir + "/FLIGHT.txt",
                                 as_bytes(text));
}

tls::notary::PassiveMonitor NotaryDaemon::aggregate_monitor() {
  tls::notary::PassiveMonitor aggregate(config_.database);
  if (baseline_) aggregate.absorb(*baseline_);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->monitor_mutex);
    aggregate.absorb(*shard->monitor);
  }
  return aggregate;
}

void NotaryDaemon::checkpoint_epoch() {
  const auto state = tls::notary::encode_monitor_state(aggregate_monitor());
  ++epoch_;
  journal_->append(tls::study::FrameKind::kPassiveShard, 0,
                   static_cast<std::uint32_t>(epoch_), state);
  journal_->flush();
  counters_->checkpoint_epochs.fetch_add(1, std::memory_order_relaxed);
  flight(0, tls::telemetry::FlightEventKind::kCheckpointEpoch,
         static_cast<std::uint32_t>(epoch_),
         counters_->ingested.load(std::memory_order_relaxed));
  last_checkpoint_ingested_ =
      counters_->ingested.load(std::memory_order_relaxed);
}

void NotaryDaemon::write_snapshot_files() {
  if (config_.checkpoint_dir.empty()) return;
  auto aggregate = aggregate_monitor();
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
  tls::study::write_file_durable(config_.checkpoint_dir + "/SNAPSHOT.txt",
                                 as_bytes(text));
}

// ---------------------------------------------------------------------------
// Worker plane
// ---------------------------------------------------------------------------

void NotaryDaemon::worker_loop(std::size_t shard_index) {
  auto& shard = *shards_[shard_index];
  shard.cpu.begin();
  // Kept across iterations: each pop trades these jobs' observed buffers
  // for the queued ones.
  std::vector<Job> batch;
  // Hands back batch[from, to): counts the jobs ingested, then queues
  // their completions. The event loop takes the whole vector at once, so
  // only the push that finds it empty has to wake the loop.
  const auto hand_back = [&](std::size_t from, std::size_t to) {
    counters_->ingested.fetch_add(to - from, std::memory_order_release);
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      was_empty = completions_.empty();
      for (std::size_t i = from; i < to; ++i) {
        completions_.push_back(
            {batch[i].conn_id, static_cast<std::uint32_t>(shard_index),
             batch[i].at});
      }
    }
    if (was_empty) wake();
  };
  for (;;) {
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      shard.in_batch = 0;  // the last batch is observed
      shard.cv.wait(lock, [&] {
        return workers_stop_.load(std::memory_order_acquire) ||
               shard.count != 0;
      });
      if (shard.count == 0) break;  // stopping, and nothing is queued
      n = shard.pop_all_into(batch);
    }
    shard.batches.fetch_add(1, std::memory_order_relaxed);
    std::size_t handed = 0;  // batch[0, handed) is handed back
    for (std::size_t i = 0; i < n; ++i) {
      Job& job = batch[i];
      job.at.dequeue = now_us();
      if (config_.observe_delay_us_for_test != 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.observe_delay_us_for_test));
      }
      const auto month = tls::core::month_from_index(job.capture.month_index);
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
      job.at.observe = now_us();
      release_oversized_fields(job.capture, kRetainedFieldBytes);
      // This lane's ring belongs to this worker alone (lane 1 + shard).
      flight(1 + shard_index, tls::telemetry::FlightEventKind::kIngest,
             static_cast<std::uint32_t>(shard_index),
             job.at.observe - job.at.enqueue);
      if (i + 1 < n &&
          job.at.observe - batch[handed].at.dequeue >= kCompletionBudgetUs) {
        // Mid-batch hand-back. `ingested` rises before the jobs leave
        // in_batch, so admitted - ingested never exceeds the depth.
        hand_back(handed, i + 1);
        {
          std::lock_guard<std::mutex> lock(shard.queue_mutex);
          shard.in_batch -= i + 1 - handed;
        }
        handed = i + 1;
      }
    }
    hand_back(handed, n);
  }
  shard.cpu.end();
}

// ---------------------------------------------------------------------------
// Event plane
// ---------------------------------------------------------------------------

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
  counters_->connections_closed.fetch_add(1, std::memory_order_release);
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
    append_credit_grant(conn->outbound, config_.credit_window);
    auto* raw = conn.get();
    conns_.emplace(id, std::move(conn));
    if (!flush_outbound(*raw)) close_connection(id);
  }
}

void NotaryDaemon::handle_capture(Connection& conn,
                                  std::span<const std::uint8_t> payload) {
  const std::uint64_t ingress_us = now_us();
  const auto conn_a = static_cast<std::uint32_t>(conn.id);
  counters_->offered.fetch_add(1, std::memory_order_relaxed);
  if (!conn.gate.consume()) {
    // Protocol violation: the client overran its window. The capture is
    // refused admission (a shed, honestly counted) and the connection
    // goes away — a sensor that ignores backpressure cannot be reasoned
    // about.
    counters_->credit_violations.fetch_add(1, std::memory_order_relaxed);
    counters_->shed.fetch_add(1, std::memory_order_release);
    flight(0, tls::telemetry::FlightEventKind::kCreditViolation, conn_a, 0);
    close_connection(conn.id);  // erases conn — caller must not touch it
    return;
  }
  try {
    decode_capture_into(payload, scratch_);
  } catch (const tls::wire::ParseError& err) {
    counters_->malformed.fetch_add(1, std::memory_order_release);
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
  const std::uint64_t decode_us = now_us();
  conn.last_month = tls::core::month_from_index(scratch_.month_index);
  const std::size_t shard_index = shard_of(scratch_, shards_.size());
  auto& shard = *shards_[shard_index];
  bool admitted = false;
  bool was_empty = false;
  std::size_t depth_at_refusal = 0;
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    if (Job* slot = shard.push_slot(config_.shard_queue_depth)) {
      was_empty = shard.count == 1;
      // The slot's payload holds an observed capture's buffers; they
      // become the scratch for the next decode.
      std::swap(slot->capture, scratch_);
      slot->conn_id = conn.id;
      slot->at.ingress = ingress_us;
      slot->at.decode = decode_us;
      slot->at.enqueue = now_us();
      // Counted before the unlock that hands the job to the worker, so a
      // reader that sees it ingested also sees it admitted.
      counters_->admitted.fetch_add(1, std::memory_order_release);
      admitted = true;
    } else {
      depth_at_refusal = shard.occupancy();
    }
  }
  if (admitted) {
    flight(0, tls::telemetry::FlightEventKind::kAdmit, conn_a, shard_index);
    // The worker pops the whole queue at once, so only the push that
    // finds it empty has to wake the worker.
    if (was_empty) shard.cv.notify_one();
  } else {
    counters_->shed.fetch_add(1, std::memory_order_release);
    flight(0, tls::telemetry::FlightEventKind::kShed, conn_a,
           depth_at_refusal);
    conn.gate.complete();
  }
}

bool NotaryDaemon::process_frame(Connection& conn, const FrameView& frame) {
  if (!is_client_frame(frame.type)) {
    counters_->frame_errors.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  switch (frame.type) {
    case FrameType::kHello:
      break;
    case FrameType::kCapture: {
      const std::uint64_t id = conn.id;
      handle_capture(conn, frame.payload);
      // handle_capture may have erased the connection (credit violation);
      // `conn` is dangling in that case, so re-resolve by id.
      return conns_.find(id) != conns_.end();
    }
    case FrameType::kQueryStats:
      append_frame(conn.outbound, FrameType::kStats, as_bytes(stats_text()));
      break;
    case FrameType::kQueryMetrics:
      append_frame(conn.outbound, FrameType::kMetrics,
                   as_bytes(tls::telemetry::to_prometheus(merged_metrics())));
      break;
    case FrameType::kQueryTrace:
      append_frame(conn.outbound, FrameType::kTrace, as_bytes(trace_text()));
      break;
    case FrameType::kQueryFlight:
      flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/2, 0);
      append_frame(conn.outbound, FrameType::kFlight, flight_->serialize());
      break;
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
    // The views point into the decoder's buffer; they stay valid until
    // the next append(), i.e. for this whole batch.
    conn.decoder.append({buf, static_cast<std::size_t>(n)});
    // One progress stamp per recv() that yields a frame: the idle sweep
    // reads it in milliseconds, so a stamp per frame buys nothing.
    bool progressed = false;
    while (const auto frame = conn.decoder.next()) {
      if (!progressed) {
        conn.last_progress_ms = now_ms();
        progressed = true;
      }
      if (!process_frame(conn, *frame)) return false;
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
  // Trade buffers with the workers: both vectors keep their capacity.
  resolved_.clear();
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    resolved_.swap(completions_);
  }
  const std::uint64_t complete_us = resolved_.empty() ? 0 : now_us();
  for (const auto& done : resolved_) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection already gone
    it->second->gate.complete();
  }
  // Batch the resolved credits into one grant frame per connection.
  std::vector<std::uint64_t> to_close;
  for (auto& [id, conn] : conns_) {
    const std::uint32_t grant = conn->gate.take_grant();
    if (grant > 0) {
      append_credit_grant(conn->outbound, grant);
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
  if (!resolved_.empty()) {
    // The batch's grant frames are all queued by now; one stamp closes the
    // `grant` edge for every completion in the batch (documented
    // approximation — grants are batched, so the edge is batch-grained).
    const std::uint64_t grant_us = now_us();
    for (const auto& done : resolved_) {
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
  event_cpu_->begin();
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> pfd_conn;
  for (;;) {
    pfds.clear();
    pfd_conn.clear();
    pfds.push_back({wake_rx_, POLLIN, 0});
    pfd_conn.push_back(0);
    if (listen_fd_ >= 0) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conn.push_back(0);
    }
    for (auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn->outbound.empty()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      pfd_conn.push_back(id);
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    loop_iterations_.fetch_add(1, std::memory_order_relaxed);

    if (pfds[0].revents & POLLIN) {
      std::uint8_t scratch[256];
      while (::read(wake_rx_, scratch, sizeof(scratch)) > 0) {
      }
    }
    drain_completions();

    std::size_t index = 1;
    if (listen_fd_ >= 0) {
      if (pfds[index].revents & POLLIN) accept_ready();
      ++index;
    }
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
    const std::uint64_t now = now_ms();
    sweep_idle(now);
    sample_gauges(now);
    if (journal_ && !journal_drop_booked_) {
      const std::uint64_t dropped = journal_->dropped_frames();
      if (dropped != 0) {
        journal_drop_booked_ = true;
        flight(0, tls::telemetry::FlightEventKind::kJournalDrop,
               static_cast<std::uint32_t>(dropped), 0);
      }
    }
    if (config_.flight_autodump_ms > 0 && !config_.checkpoint_dir.empty() &&
        now - last_flight_dump_ms_ >= config_.flight_autodump_ms) {
      last_flight_dump_ms_ = now;
      flight(0, tls::telemetry::FlightEventKind::kFlightDump, /*a=*/0, 0);
      flight_->write_file(config_.checkpoint_dir + "/FLIGHT.bin");
    }

    if (config_.checkpoint_every > 0 && journal_) {
      const auto ingested =
          counters_->ingested.load(std::memory_order_relaxed);
      if (ingested - last_checkpoint_ingested_ >= config_.checkpoint_every) {
        checkpoint_epoch();
      }
    }

    if (stop_requested_.load(std::memory_order_acquire)) break;
  }

  // Drain. Admission stops here: the listener and the sockets close now,
  // and sensors reconnect after the restart.
  flight(0, tls::telemetry::FlightEventKind::kDrainStart, 0, 0);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (const auto id : ids) close_connection(id);
  // A worker observes everything still queued before it exits, so once
  // the joins return every admitted capture is ingested. No wakeup is
  // waited on: the stop notify below reaches each worker even if an
  // admission notify was lost.
  workers_stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    // Pass through the queue lock: a worker that checked the predicate
    // before the store is then already waiting, so the notify reaches it.
    { std::lock_guard<std::mutex> lock(shard->queue_mutex); }
    shard->cv.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  // The last batches' completions: their stage telemetry is recorded here
  // (their connections are gone, so no credit is granted).
  drain_completions();

  if (journal_) checkpoint_epoch();
  write_snapshot_files();
  write_flight_files();
  event_cpu_->end();
  running_.store(false, std::memory_order_release);
}

}  // namespace tls::daemon
