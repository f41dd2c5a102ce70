#include "handshake/negotiate.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "tlscore/grease.hpp"
#include "tlscore/version.hpp"

namespace tls::handshake {

using tls::core::CipherSuiteInfo;
using tls::core::find_cipher_suite;
using tls::core::is_tls13_wire;
using tls::core::KeyExchange;
using tls::servers::ServerConfig;
using tls::servers::ServerQuirk;
using tls::wire::ClientHello;
using tls::wire::ServerHello;

namespace {

bool suite_needs_groups(const CipherSuiteInfo& s) {
  switch (s.kex) {
    case KeyExchange::kEcdh:
    case KeyExchange::kEcdhe:
    case KeyExchange::kEcdhAnon:
    case KeyExchange::kEcdhePsk:
      return true;
    default:
      return false;
  }
}

/// Server-preferred mutual group; 0 when none. Clients that predate the
/// supported_groups extension are treated as implicitly supporting the
/// P-256/P-384 defaults, matching deployed server behaviour.
std::uint16_t select_group(const ClientHello& hello,
                           const ServerConfig& server) {
  static const std::vector<std::uint16_t> kImplied{23, 24};
  auto client_groups = hello.supported_groups();
  const auto& cg = client_groups ? *client_groups : kImplied;
  for (const auto g : server.groups) {
    if (tls::core::is_grease(g)) continue;
    if (std::find(cg.begin(), cg.end(), g) != cg.end()) return g;
  }
  return 0;
}

bool client_offers(const ClientHello& hello, std::uint16_t id) {
  return std::find(hello.cipher_suites.begin(), hello.cipher_suites.end(),
                   id) != hello.cipher_suites.end();
}

/// First suite acceptable at `version` following `order`, where each
/// candidate must be present in `other`. nullopt when none fits (note that
/// 0x0000, TLS_NULL_WITH_NULL_NULL, is a valid selectable suite).
std::optional<std::uint16_t> pick_suite(
    const std::vector<std::uint16_t>& order,
    const std::vector<std::uint16_t>& other, std::uint16_t version,
    const ClientHello& hello, const ServerConfig& server,
    std::uint16_t* group_out) {
  for (const auto id : order) {
    if (tls::core::is_grease(id)) continue;
    const auto* info = find_cipher_suite(id);
    if (info == nullptr || info->scsv) continue;
    if (!suite_allowed_at_version(*info, version)) continue;
    if (std::find(other.begin(), other.end(), id) == other.end()) continue;
    std::uint16_t group = 0;
    if (suite_needs_groups(*info)) {
      group = select_group(hello, server);
      if (group == 0) continue;
    }
    if (group_out != nullptr) *group_out = group;
    return id;
  }
  return std::nullopt;
}

void echo_extensions(const ClientHello& hello, const ServerConfig& server,
                     bool tls13, ServerHello& sh, NegotiationResult& result) {
  using tls::core::ExtensionType;
  using namespace tls::wire;
  if (tls13) return;  // TLS 1.3 ServerHello carries its own extension set
  const auto* chosen = find_cipher_suite(sh.cipher_suite);
  const bool cbc_chosen = chosen != nullptr && tls::core::is_cbc(*chosen);
  if (server.supports_renegotiation_info &&
      (hello.has_extension(ExtensionType::kRenegotiationInfo) ||
       client_offers(hello, 0x00ff))) {
    sh.extensions.push_back(make_renegotiation_info());
  }
  if (server.supports_session_ticket &&
      hello.has_extension(ExtensionType::kSessionTicket)) {
    sh.extensions.push_back(make_session_ticket());
  }
  if (server.supports_ems &&
      hello.has_extension(ExtensionType::kExtendedMasterSecret)) {
    sh.extensions.push_back(make_extended_master_secret());
  }
  // RFC 7366: Encrypt-then-MAC only applies to CBC suites; servers omit
  // the extension when an AEAD or stream suite was selected.
  if (server.supports_etm && cbc_chosen &&
      hello.has_extension(ExtensionType::kEncryptThenMac)) {
    sh.extensions.push_back(make_encrypt_then_mac());
  }
  if (server.echo_heartbeat && hello.heartbeat_mode().has_value()) {
    sh.extensions.push_back(make_heartbeat(1));
    result.heartbeat_negotiated = true;
  }
}

}  // namespace

std::string_view failure_reason_name(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kNoCommonVersion: return "no-common-version";
    case FailureReason::kNoCommonCipher: return "no-common-cipher";
    case FailureReason::kClientRejectedUnofferedSuite:
      return "client-rejected-unoffered-suite";
  }
  return "?";
}

tls::wire::Alert alert_for(FailureReason reason) {
  tls::wire::Alert a;
  a.level = tls::wire::AlertLevel::kFatal;
  switch (reason) {
    case FailureReason::kNoCommonVersion:
      a.description = tls::wire::AlertDescription::kProtocolVersion;
      return a;
    case FailureReason::kNoCommonCipher:
      a.description = tls::wire::AlertDescription::kHandshakeFailure;
      return a;
    case FailureReason::kClientRejectedUnofferedSuite:
      a.description = tls::wire::AlertDescription::kIllegalParameter;
      return a;
    case FailureReason::kNone:
      break;
  }
  throw std::logic_error("no alert for a successful negotiation");
}

bool suite_allowed_at_version(const CipherSuiteInfo& suite,
                              std::uint16_t version) {
  const bool tls13 = is_tls13_wire(version);
  if (suite.kex == KeyExchange::kTls13) return tls13;
  if (tls13) return false;
  const bool needs_tls12 =
      tls::core::is_aead(suite) || suite.mac == tls::core::MacAlgorithm::kSha256 ||
      suite.mac == tls::core::MacAlgorithm::kSha384;
  if (needs_tls12 && version < 0x0303) return false;
  return true;
}

NegotiationPlan plan_negotiation(const ClientHello& hello,
                                 const ServerConfig& server,
                                 const NegotiateOptions& opts) {
  NegotiationPlan plan;
  NegotiationResult& result = plan.skeleton;

  // ---- version selection ----
  std::uint16_t version = 0;
  bool tls13 = false;
  if (server.supports_tls13()) {
    // Highest mutual entry of supported_versions (RFC 8446 §4.1.3; draft
    // and experiment code points compare by version_rank).
    if (const auto client_versions = hello.supported_versions()) {
      int best_rank = -1;
      for (const auto v : *client_versions) {
        if (tls::core::is_grease_version(v) || !is_tls13_wire(v)) continue;
        if (std::find(server.tls13_versions.begin(),
                      server.tls13_versions.end(),
                      v) == server.tls13_versions.end()) {
          continue;
        }
        const int rank = tls::core::version_rank(
            static_cast<tls::core::ProtocolVersion>(v));
        if (rank > best_rank) {
          best_rank = rank;
          version = v;
        }
      }
      tls13 = best_rank >= 0;
    }
  }
  if (!tls13) {
    if (server.version_intolerant && hello.legacy_version > server.max_version) {
      // Broken stack: drops the connection instead of negotiating down.
      result.failure = FailureReason::kNoCommonVersion;
      plan.version_fail = true;
      return plan;
    }
    version = std::min(hello.legacy_version, server.max_version);
    if (version < server.min_version) {
      result.failure = FailureReason::kNoCommonVersion;
      plan.version_fail = true;
      return plan;
    }
  }
  result.negotiated_version = version;
  plan.tls13 = tls13;
  // Pre-1.3 resumption: the server that still holds the session echoes the
  // presented id, signalling an abbreviated handshake. TLS 1.3 echoes the
  // id unconditionally (middlebox compatibility), which is NOT resumption.
  plan.draw_resumption =
      !tls13 && opts.attempt_resumption && !hello.session_id.empty();
  plan.resumption_rate = server.resumption_rate;

  ServerHello sh;
  sh.legacy_version = tls13 ? 0x0303 : version;
  // random and session id stay blank: complete_negotiation_into() draws
  // them per connection in the legacy order.

  // ---- quirks: servers answering with unoffered suites (§5.5, §7.3) ----
  std::uint16_t quirk_suite = 0;
  switch (server.quirk) {
    case ServerQuirk::kChooseExportRc4Unoffered: quirk_suite = 0x0003; break;
    case ServerQuirk::kChooseGostUnoffered: quirk_suite = 0x0081; break;
    case ServerQuirk::kChooseAnonNullUnoffered: quirk_suite = 0x0000; break;
    case ServerQuirk::kNone: break;
  }
  if (quirk_suite != 0 && !client_offers(hello, quirk_suite)) {
    sh.cipher_suite = quirk_suite;
    result.server_hello = std::move(sh);
    result.negotiated_cipher = quirk_suite;
    result.spec_violation = true;
    if (opts.accept_unoffered_suite) {
      result.success = true;
    } else {
      result.failure = FailureReason::kClientRejectedUnofferedSuite;
    }
    return plan;
  }

  // ---- cipher selection ----
  std::uint16_t group = 0;
  const std::optional<std::uint16_t> suite =
      server.prefer_server_order
          ? pick_suite(server.cipher_preference, hello.cipher_suites, version,
                       hello, server, &group)
          : pick_suite(hello.cipher_suites, server.cipher_preference, version,
                       hello, server, &group);
  if (!suite.has_value()) {
    // No server_hello, but completion still consumes the random /
    // resumption / session-id draws exactly as the monolith did before
    // reaching this point.
    result.failure = FailureReason::kNoCommonCipher;
    return plan;
  }
  sh.cipher_suite = *suite;
  result.negotiated_cipher = *suite;

  // TLS 1.3 key establishment always runs (EC)DHE over a negotiated group.
  if (tls13 && group == 0) {
    group = select_group(hello, server);
    if (group == 0) {
      result.failure = FailureReason::kNoCommonCipher;
      return plan;
    }
  }
  result.negotiated_group = group;

  if (tls13) {
    sh.extensions.push_back(
        tls::wire::make_supported_versions_server(version));
    sh.extensions.push_back(tls::wire::make_key_share_server(group));
  } else {
    echo_extensions(hello, server, tls13, sh, result);
  }

  result.server_hello = std::move(sh);
  result.success = true;
  return plan;
}

void complete_negotiation_into(const NegotiationPlan& plan,
                               const ClientHello& hello, tls::core::Rng& rng,
                               NegotiationResult& out) {
  const NegotiationResult& skel = plan.skeleton;
  out.success = skel.success;
  out.failure = skel.failure;
  out.negotiated_version = skel.negotiated_version;
  out.negotiated_cipher = skel.negotiated_cipher;
  out.negotiated_group = skel.negotiated_group;
  out.spec_violation = skel.spec_violation;
  out.heartbeat_negotiated = skel.heartbeat_negotiated;
  out.resumed = false;
  if (plan.version_fail) {
    // The monolith returned before its first draw; do the same.
    out.server_hello.reset();
    return;
  }

  ServerHello* sh = nullptr;
  if (skel.server_hello.has_value()) {
    if (!out.server_hello.has_value()) out.server_hello.emplace();
    sh = &*out.server_hello;
    const ServerHello& proto = *skel.server_hello;
    sh->legacy_version = proto.legacy_version;
    sh->cipher_suite = proto.cipher_suite;
    sh->compression_method = proto.compression_method;
    sh->extensions = proto.extensions;
    for (auto& b : sh->random) b = static_cast<std::uint8_t>(rng.next());
  } else {
    // Failure after the draws (no common cipher): the RNG still advances.
    out.server_hello.reset();
    for (int i = 0; i < 32; ++i) rng.next();
  }

  const bool resume = plan.draw_resumption && rng.chance(plan.resumption_rate);
  if (plan.tls13 || resume) {
    if (sh != nullptr) sh->session_id = hello.session_id;
    out.resumed = resume;
  } else if (sh != nullptr) {
    sh->session_id.resize(32);
    for (auto& b : sh->session_id) b = static_cast<std::uint8_t>(rng.next());
  } else {
    for (int i = 0; i < 32; ++i) rng.next();
  }
}

NegotiationResult negotiate(const ClientHello& hello, const ServerConfig& server,
                            tls::core::Rng& rng, const NegotiateOptions& opts) {
  NegotiationResult result;
  complete_negotiation_into(plan_negotiation(hello, server, opts), hello, rng,
                            result);
  return result;
}

}  // namespace tls::handshake
