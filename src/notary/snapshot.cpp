#include "notary/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <string>

#include "wire/buffer.hpp"

namespace tls::notary {

namespace {

using tls::wire::ByteReader;
using tls::wire::ByteWriter;
using tls::wire::ParseError;
using tls::wire::ParseErrorCode;

// One past the largest SoftwareClass value (kMalware).
constexpr std::uint8_t kSoftwareClassCount = 9;
// Rejects month indices outside any plausible study window before they
// turn into absurd map keys.
std::uint32_t checked_month_index(ByteReader& r) {
  const std::uint32_t index = r.u32();
  if (index > tls::core::kMaxMonthIndex) {
    throw ParseError(ParseErrorCode::kBadValue,
                     "snapshot month index " + std::to_string(index));
  }
  return index;
}

template <typename Enum>
Enum checked_enum(ByteReader& r, std::size_t count, const char* what) {
  const std::uint8_t v = r.u8();
  if (v >= count) {
    throw ParseError(ParseErrorCode::kBadValue,
                     std::string("snapshot ") + what + " value " +
                         std::to_string(v));
  }
  return static_cast<Enum>(v);
}

// The fixed u64 counters of MonthlyStats in declaration order. Shared by
// encode and decode so the two sides can never disagree on the layout.
template <typename Stats, typename Fn>
void for_each_counter(Stats& s, Fn&& fn) {
  for (auto* p :
       {&s.total, &s.successful, &s.failures, &s.quarantined,
        &s.one_sided_client, &s.one_sided_server, &s.fallbacks,
        &s.spec_violations, &s.sslv2_connections, &s.adv_rc4, &s.adv_des,
        &s.adv_3des, &s.adv_aead, &s.adv_cbc, &s.adv_export, &s.adv_anon,
        &s.adv_null, &s.adv_fs, &s.adv_aes128gcm, &s.adv_aes256gcm,
        &s.adv_chacha, &s.adv_ccm, &s.adv_tls13, &s.negotiated_tls13,
        &s.heartbeat_offered, &s.heartbeat_negotiated, &s.reneg_info_offered,
        &s.reneg_info_negotiated, &s.etm_offered, &s.etm_negotiated,
        &s.ems_offered, &s.ems_negotiated, &s.sni_offered,
        &s.session_ticket_offered, &s.resumed, &s.rc4_despite_aead,
        &s.negotiated_3des, &s.negotiated_export, &s.negotiated_anon,
        &s.negotiated_null, &s.negotiated_null_with_null_null}) {
    fn(*p);
  }
}

template <typename Stats, typename Fn>
void for_each_position(Stats& s, Fn&& fn) {
  for (auto* p : {&s.pos_aead, &s.pos_cbc, &s.pos_rc4, &s.pos_des,
                  &s.pos_3des}) {
    fn(*p);
  }
}

void write_hash(ByteWriter& w, const std::string& hash) {
  w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(hash.size(), 255)));
  w.bytes({reinterpret_cast<const std::uint8_t*>(hash.data()),
           std::min<std::size_t>(hash.size(), 255)});
}

std::string read_hash(ByteReader& r) {
  const auto raw = r.length_prefixed_u8();
  return {reinterpret_cast<const char*>(raw.data()), raw.size()};
}

template <typename Key, typename WriteKey>
void write_counts(ByteWriter& w, const std::map<Key, std::uint64_t>& counts,
                  WriteKey&& write_key) {
  w.u32(static_cast<std::uint32_t>(counts.size()));
  for (const auto& [key, n] : counts) {
    write_key(key);
    w.u64(n);
  }
}

}  // namespace

struct MonitorSnapshotCodec {
  static void encode_stats(ByteWriter& w, const MonthlyStats& s) {
    for_each_counter(s, [&](const std::uint64_t& v) { w.u64(v); });
    for_each_position(s, [&](const PositionAccumulator& p) {
      w.u64(std::bit_cast<std::uint64_t>(p.sum));
      w.u64(p.n);
    });

    // Sorted emission keeps the encoding a pure function of the state even
    // though the flag map is an unordered container.
    std::vector<const std::string*> hashes;
    hashes.reserve(s.fingerprints.size());
    for (const auto& [hash, flags] : s.fingerprints) hashes.push_back(&hash);
    std::sort(hashes.begin(), hashes.end(),
              [](const auto* a, const auto* b) { return *a < *b; });
    w.u32(static_cast<std::uint32_t>(hashes.size()));
    for (const auto* hash : hashes) {
      write_hash(w, *hash);
      w.u8(s.fingerprints.at(*hash));
    }

    write_counts(w, s.parse_errors(),
                 [&](ParseErrorCode c) { w.u8(static_cast<std::uint8_t>(c)); });
    write_counts(w, s.negotiated_version(), [&](std::uint16_t v) { w.u16(v); });
    write_counts(w, s.negotiated_class(), [&](tls::core::CipherClass c) {
      w.u8(static_cast<std::uint8_t>(c));
    });
    write_counts(w, s.negotiated_aead(), [&](tls::core::AeadKind k) {
      w.u8(static_cast<std::uint8_t>(k));
    });
    write_counts(w, s.negotiated_kex(), [&](tls::core::KexClass k) {
      w.u8(static_cast<std::uint8_t>(k));
    });
    write_counts(w, s.negotiated_group(), [&](std::uint16_t g) { w.u16(g); });
    write_counts(w, s.adv_tls13_versions(), [&](std::uint16_t v) { w.u16(v); });
    write_counts(w, s.alerts(), [&](std::uint8_t a) { w.u8(a); });
  }

  static void decode_stats(ByteReader& r, MonthlyStats& s) {
    for_each_counter(s, [&](std::uint64_t& v) { v = r.u64(); });
    for_each_position(s, [&](PositionAccumulator& p) {
      p.sum = std::bit_cast<double>(r.u64());
      p.n = r.u64();
    });

    const std::uint32_t fp_count = r.u32();
    for (std::uint32_t i = 0; i < fp_count; ++i) {
      const std::string hash = read_hash(r);
      s.fingerprints[hash] |= r.u8();
    }

    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto code = checked_enum<ParseErrorCode>(
          r, tls::wire::kParseErrorCodeCount, "parse error code");
      s.parse_error_counts_.add(code, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const std::uint16_t v = r.u16();
      s.version_counts_.add(v, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto c = checked_enum<tls::core::CipherClass>(
          r, tls::core::kCipherClassCount, "cipher class");
      s.class_counts_.add(c, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto k = checked_enum<tls::core::AeadKind>(
          r, tls::core::kAeadKindCount, "aead kind");
      s.aead_counts_.add(k, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto k = checked_enum<tls::core::KexClass>(
          r, tls::core::kKexClassCount, "kex class");
      s.kex_counts_.add(k, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const std::uint16_t g = r.u16();
      s.group_counts_.add(g, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const std::uint16_t v = r.u16();
      s.tls13_version_counts_.add(v, r.u64());
    }
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const std::uint8_t a = r.u8();
      s.alert_counts_.add(a, r.u64());
    }
  }

  static void encode(const PassiveMonitor& mon, ByteWriter& w) {
    w.u32(kMonitorSnapshotVersion);

    w.u32(static_cast<std::uint32_t>(mon.months_.size()));
    for (const auto& [m, s] : mon.months_) {
      w.u32(static_cast<std::uint32_t>(m.index()));
      encode_stats(w, s);
    }

    const auto& lifetimes = mon.durations_.lifetimes();
    std::vector<const std::string*> hashes;
    hashes.reserve(lifetimes.size());
    for (const auto& [hash, life] : lifetimes) hashes.push_back(&hash);
    std::sort(hashes.begin(), hashes.end(),
              [](const auto* a, const auto* b) { return *a < *b; });
    w.u32(static_cast<std::uint32_t>(hashes.size()));
    for (const auto* hash : hashes) {
      const auto& life = lifetimes.at(*hash);
      write_hash(w, *hash);
      w.u64(static_cast<std::uint64_t>(life.first_day));
      w.u64(static_cast<std::uint64_t>(life.last_day));
      w.u64(life.connections);
    }

    w.u64(mon.total_);
    w.u64(mon.fingerprintable_);
    write_counts(w, mon.labeled_by_class_, [&](tls::fp::SoftwareClass c) {
      w.u8(static_cast<std::uint8_t>(c));
    });

    for (std::size_t stage = 0; stage < kIngestStageCount; ++stage) {
      for (std::size_t code = 0; code < tls::wire::kParseErrorCodeCount;
           ++code) {
        w.u64(mon.taxonomy_.count(static_cast<IngestStage>(stage),
                                  static_cast<ParseErrorCode>(code)));
      }
    }

    const auto& ring = mon.quarantine_;
    w.u32(static_cast<std::uint32_t>(ring.size()));
    for (std::size_t i = 0; i < ring.size(); ++i) {  // oldest-first
      const QuarantinedRecord& rec = ring[i];
      w.u8(static_cast<std::uint8_t>(rec.stage));
      w.u8(static_cast<std::uint8_t>(rec.code));
      w.u32(static_cast<std::uint32_t>(rec.month.index()));
      w.u8(static_cast<std::uint8_t>(rec.prefix.size()));
      w.bytes(rec.prefix);
    }
    w.u64(ring.total_pushed());
  }

  static PassiveMonitor decode(ByteReader& r,
                               const tls::fp::FingerprintDatabase* database) {
    const std::uint32_t version = r.u32();
    if (version != kMonitorSnapshotVersion) {
      throw ParseError(ParseErrorCode::kUnsupported,
                       "monitor snapshot version " + std::to_string(version));
    }
    PassiveMonitor mon(database);

    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto m = tls::core::month_from_index(checked_month_index(r));
      decode_stats(r, mon.months_[m]);
    }

    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const std::string hash = read_hash(r);
      tls::fp::DurationTracker::Lifetime life;
      life.first_day = static_cast<std::int64_t>(r.u64());
      life.last_day = static_cast<std::int64_t>(r.u64());
      life.connections = r.u64();
      if (life.last_day < life.first_day) {
        throw ParseError(ParseErrorCode::kBadValue,
                         "snapshot lifetime ends before it starts");
      }
      mon.durations_.add_lifetime(hash, life);
    }

    mon.total_ = r.u64();
    mon.fingerprintable_ = r.u64();
    for (std::uint32_t i = r.u32(); i > 0; --i) {
      const auto cls = checked_enum<tls::fp::SoftwareClass>(
          r, kSoftwareClassCount, "software class");
      mon.labeled_by_class_[cls] += r.u64();
    }

    for (std::size_t stage = 0; stage < kIngestStageCount; ++stage) {
      for (std::size_t code = 0; code < tls::wire::kParseErrorCodeCount;
           ++code) {
        const std::uint64_t n = r.u64();
        if (n > 0) {
          mon.taxonomy_.add(static_cast<IngestStage>(stage),
                            static_cast<ParseErrorCode>(code), n);
        }
      }
    }

    const std::uint32_t ring_count = r.u32();
    for (std::uint32_t i = 0; i < ring_count; ++i) {
      const auto stage =
          checked_enum<IngestStage>(r, kIngestStageCount, "ingest stage");
      const auto code = checked_enum<ParseErrorCode>(
          r, tls::wire::kParseErrorCodeCount, "parse error code");
      const auto m = tls::core::month_from_index(checked_month_index(r));
      const auto prefix = r.length_prefixed_u8();
      mon.quarantine_.push(stage, code, m, prefix);
    }
    const std::uint64_t total_pushed = r.u64();
    if (total_pushed < mon.quarantine_.total_pushed()) {
      throw ParseError(ParseErrorCode::kBadValue,
                       "snapshot ring total_pushed below retained count");
    }
    mon.quarantine_.add_unretained(total_pushed -
                                   mon.quarantine_.total_pushed());
    return mon;
  }
};

std::vector<std::uint8_t> encode_monitor_state(const PassiveMonitor& monitor) {
  ByteWriter w;
  MonitorSnapshotCodec::encode(monitor, w);
  return w.take();
}

PassiveMonitor decode_monitor_state(
    std::span<const std::uint8_t> bytes,
    const tls::fp::FingerprintDatabase* database) {
  ByteReader r(bytes);
  PassiveMonitor mon = MonitorSnapshotCodec::decode(r, database);
  r.expect_empty("monitor snapshot");
  return mon;
}

}  // namespace tls::notary
