// The connection stream generator: samples (client version, server
// deployment) pairs month by month, emits a real ClientHello, runs the
// negotiation engine (with the historical fallback dance where the client
// still performs it), and hands each connection to a sink — the synthetic
// stand-in for the Notary's campus taps.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "handshake/negotiate.hpp"
#include "population/market.hpp"
#include "servers/population.hpp"
#include "tlscore/rng.hpp"

namespace tls::population {

struct ConnectionEvent {
  tls::core::Month month;
  tls::core::Date day{2012, 1, 1};
  const tls::clients::ClientProfile* client = nullptr;
  const tls::clients::ClientConfig* config = nullptr;
  const tls::servers::ServerSegment* server = nullptr;
  tls::wire::ClientHello hello;  // the hello actually sent (post-fallback)
  tls::handshake::NegotiationResult result;
  /// Pre-serialized TLS record bytes of `hello`, filled by the GenCache
  /// template fast path (empty when the cache is off or the config takes
  /// the legacy path). When non-empty these are byte-identical to
  /// `hello.serialize_record()`; the passive monitor consumes them instead
  /// of re-serializing.
  std::vector<std::uint8_t> client_record;
  bool used_fallback = false;
  bool sslv2 = false;  // SSLv2 CLIENT-HELLO connection (hello is not set)

  /// Capacity-preserving slot reset for batched reuse. Fields that
  /// generate_into() always rewrites on success (month, day, hello,
  /// result) are left as-is so their heap buffers amortize; for sslv2
  /// events, hello/result/client_record are unspecified (callers already
  /// branch on `sslv2` first).
  void reset() {
    client = nullptr;
    config = nullptr;
    server = nullptr;
    client_record.clear();
    used_fallback = false;
    sslv2 = false;
  }
};

/// Synthesizes the per-direction record streams for a generated
/// connection — the full-transcript view of the same event.
struct ConnectionFlights {
  std::vector<std::uint8_t> client;
  std::vector<std::uint8_t> server;
};
ConnectionFlights synthesize_flights(const ConnectionEvent& event);

/// Producer-side template cache, keyed on what actually repeats in
/// generation: the client configuration, not the per-connection bytes.
/// Each live ClientConfig is compiled once into a **wire
/// template** — the ClientHello struct plus its serialized record bytes
/// with the RNG-filled fields zeroed — so a connection becomes a memcpy
/// plus patches at fixed offsets instead of a rebuild + reserialize.
/// Negotiation is memoized as NegotiationPlans keyed on (template,
/// variant, server segment, options, fallback/SCSV branch); completion
/// draws the identical RNG sequence per connection, so the event stream is
/// bit-exact with the cache off. Configs whose hello is not
/// connection-invariant (GREASE, cipher-order shuffling) are flagged
/// `bypass` and take the legacy path.
class GenCache {
 public:
  /// Fixed offsets of the RNG-patched fields inside a serialized
  /// ClientHello record: 5-byte record header + 4-byte handshake header +
  /// 2-byte legacy_version puts the 32-byte random at 11; the session-id
  /// length byte follows at 43, its bytes at 44. Defended by the
  /// template-patch fuzzer in tests/test_fuzz.cpp.
  static constexpr std::size_t kRandomOffset = 11;
  static constexpr std::size_t kSessionIdOffset = 44;

  struct WireTemplate {
    tls::wire::ClientHello hello;     // random (and session id) zeroed
    std::vector<std::uint8_t> wire;   // == hello.serialize_record()
    bool has_session_id = false;
  };
  struct TemplateSet {
    bool bypass = false;  // GREASE / shuffling: hello varies per connection
    std::uint32_t id = 0;
    WireTemplate base;
    /// base + a 32-byte session-id slot, for empty-id configs that draw
    /// the resumption leg (pre-1.3 session-cache re-presentation).
    WireTemplate resume;
    bool has_resume = false;
  };
  struct Stats {
    std::uint64_t template_hits = 0;    // connections filled from a template
    std::uint64_t template_misses = 0;  // template compilations
    std::uint64_t bypasses = 0;         // connections on the legacy path
    std::uint64_t plan_hits = 0;        // memoized negotiation plans reused
    std::uint64_t plan_misses = 0;      // plans computed
    std::uint64_t template_bytes = 0;   // compiled wire bytes resident
  };

  /// Compiles `cfg` into its template set (exposed for the differential
  /// fuzzer; the instance method `templates` memoizes per config).
  static TemplateSet compile(const tls::clients::ClientConfig& cfg);

  const TemplateSet& templates(const tls::clients::ClientConfig& cfg);
  /// Memoized plan_negotiation. `key` must uniquely encode every input the
  /// plan depends on: (template id, variant, server segment, options,
  /// fallback/SCSV branch). Keys are dense — (id * nseg + seg) * 16 | flags
  /// — so the memo is a direct-indexed table rather than a hash map (the
  /// lookup is on the per-connection fast path). hello/server/opts are
  /// only consulted on a miss. Returned references stay valid across later
  /// insertions (plans live in stable heap slots).
  const tls::handshake::NegotiationPlan& plan(
      std::uint64_t key, const tls::wire::ClientHello& hello,
      const tls::servers::ServerConfig& server,
      const tls::handshake::NegotiateOptions& opts);

  Stats stats;

 private:
  std::unordered_map<const tls::clients::ClientConfig*, TemplateSet>
      templates_;
  std::vector<std::int32_t> plan_index_;  // dense key -> plan_store_ slot
  std::vector<std::unique_ptr<tls::handshake::NegotiationPlan>> plan_store_;
  std::uint32_t next_id_ = 0;
};

class TrafficGenerator {
 public:
  TrafficGenerator(const MarketModel& market,
                   const tls::servers::ServerPopulation& servers,
                   std::uint64_t seed = 42);

  using Sink = std::function<void(const ConnectionEvent&)>;
  using SpanSink = std::function<void(std::span<const ConnectionEvent>)>;

  /// Generates `count` connections during month m.
  void generate_month(tls::core::Month m, std::size_t count,
                      const Sink& sink);

  /// Batched variant: events are accumulated in an internal reusable buffer
  /// and delivered `batch_size` at a time (final batch may be short). Draws
  /// the exact same RNG stream as generate_month, so the event sequence is
  /// identical — only the delivery granularity changes. Pairs with
  /// PassiveMonitor::observe_span to amortize per-connection call overhead.
  void generate_month_batched(tls::core::Month m, std::size_t count,
                              std::size_t batch_size, const SpanSink& sink);

  /// Generates count-per-month connections over an inclusive month range.
  void generate_range(tls::core::MonthRange range, std::size_t per_month,
                      const Sink& sink);

  /// Re-seeds the RNG stream in place. Every cache the generator carries
  /// (month tables, templates, negotiation plans) is a pure function of
  /// the market/server models, so a re-seeded generator draws exactly the
  /// stream a freshly constructed one would — this is how the study runner
  /// reuses one generator per worker across shard tasks instead of
  /// recompiling every template per task.
  void reseed(std::uint64_t seed) { rng_ = tls::core::Rng(seed); }

  /// Toggles the GenCache template fast path (on by default). Off and on
  /// draw the same RNG stream and emit field-identical events — the toggle
  /// exists for benchmarking and for the byte-identity test matrix.
  void set_gen_cache(bool enabled) { gen_cache_enabled_ = enabled; }
  [[nodiscard]] bool gen_cache_enabled() const { return gen_cache_enabled_; }
  [[nodiscard]] const GenCache::Stats& gen_cache_stats() const {
    return gen_cache_.stats;
  }

 private:
  /// Per-month sampling tables: cumulative entry weights and per-entry
  /// cumulative version shares, built once per month (the market model is
  /// piecewise-linear in months, so this is exact, not an approximation).
  struct MonthCache {
    std::vector<double> entry_cum;                // cumulative traffic shares
    std::vector<std::vector<double>> version_cum; // per entry
    /// Bucket index over entry_cum: entry_buckets[k] =
    /// upper_bound(entry_cum, total * k / kEntryBuckets). The entry pick
    /// runs upper_bound over a one-bucket-wide window instead of all
    /// ~1.5k entries; the window is widened one bucket each side so a
    /// +-1 ulp disagreement in the bucket computation cannot exclude the
    /// true position. The pick itself stays exactly upper_bound(x).
    static constexpr std::size_t kEntryBuckets = 256;
    std::vector<std::uint32_t> entry_buckets;  // size kEntryBuckets + 1
    double inv_total = 0;                      // 1 / entry_cum.back()
    /// Per-destination routing table: the special-destination segments (in
    /// segment order) with their shares at this month, plus the total
    /// accumulated in the same order — so the pick is a single walk over
    /// the (few) matching segments instead of two scans over all of them,
    /// with bit-identical floating-point arithmetic.
    struct DestTable {
      std::vector<std::pair<const tls::servers::ServerSegment*, double>>
          segments;
      double total = 0;
    };
    std::unordered_map<std::string, DestTable> dest_tables;
    /// General-web routing table: the non-special segments with their
    /// shares at this month, same order/accumulation discipline as the
    /// destination tables. Replaces ServerPopulation::sample_by_traffic's
    /// per-connection double scan (each step an AnchorSeries
    /// interpolation) with a single cached walk.
    DestTable general;
  };

  const MonthCache& cache_for(tls::core::Month m);
  const tls::servers::ServerSegment& route(const MarketEntry& entry,
                                           const MonthCache& cache);
  /// Samples one connection into `ev` (which must be freshly reset);
  /// returns false when the month has no live traffic for the draw (the
  /// RNG advances identically either way). `cache` must be cache_for(m) —
  /// hoisted to the per-month loops so the hot path skips the map lookup.
  bool generate_into(tls::core::Month m, const MonthCache& cache,
                     ConnectionEvent& ev);
  void generate_one(tls::core::Month m, const Sink& sink);

  /// Builds template_sets_ (below) if the gen cache is on and it has not
  /// been built yet; compiles every catalog config's template eagerly so
  /// the per-connection path is a plain array deref.
  void ensure_template_table();

  const MarketModel& market_;
  const tls::servers::ServerPopulation& servers_;
  tls::core::Rng rng_;
  /// Per-entry `profile->name == "Interwise"` (the accept-unoffered-suite
  /// quirk), hoisted out of the per-connection path.
  std::vector<std::uint8_t> accept_unoffered_;
  /// template_sets_[entry][version] -> memoized GenCache::TemplateSet, so
  /// the fast path replaces the per-connection config-pointer hash lookup
  /// with two array indexes. Built lazily (first generated connection with
  /// the cache on); empty while the cache is off.
  std::vector<std::vector<const GenCache::TemplateSet*>> template_sets_;
  std::unordered_map<int, MonthCache> cache_;
  std::vector<ConnectionEvent> batch_;  // reused by generate_month_batched
  GenCache gen_cache_;
  bool gen_cache_enabled_ = true;
};

}  // namespace tls::population
