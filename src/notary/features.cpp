#include "notary/features.hpp"

#include <algorithm>

#include "fingerprint/md5.hpp"
#include "tlscore/grease.hpp"
#include "wire/extension_codec.hpp"

namespace tls::notary {

using tls::core::ExtensionType;
using tls::wire::ClientHello;
using tls::wire::ParseError;
using tls::wire::ServerHello;

void ClientHelloFeatures::reset() {
  adv_rc4 = adv_des = adv_3des = adv_aead = adv_cbc = false;
  adv_export = adv_anon = adv_null = adv_fs = false;
  adv_aes128gcm = adv_aes256gcm = adv_chacha = adv_ccm = false;
  heartbeat_offered = false;
  reneg_info_offered = etm_offered = ems_offered = false;
  sni_offered = session_ticket_offered = false;
  adv_tls13 = false;
  tls13_versions.clear();
  pos_aead.reset();
  pos_cbc.reset();
  pos_rc4.reset();
  pos_des.reset();
  pos_3des.reset();
  fingerprint_computed = false;
  fp.cipher_suites.clear();
  fp.extensions.clear();
  fp.groups.clear();
  fp.ec_point_formats.clear();
  fp_hash.clear();
  fp_flags = 0;
  label_cls.reset();
}

void build_client_features(const ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           bool want_fingerprint, ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors) {
  using namespace tls::core;
  out.reset();

  // ---- one pass over the cipher-suite list ----
  // Replaces the 13 offers() scans, the 5 first_position() scans, the SCSV
  // membership test and the fingerprint's GREASE strip of the byte path.
  // Semantics match exactly: offers() only sees registered non-SCSV suites
  // (GREASE ids are unregistered), positions skip GREASE entries and SCSVs
  // but count unknown ids in the denominator, and the fingerprint keeps
  // every non-GREASE id (SCSVs included).
  std::size_t real_index = 0;
  std::optional<std::size_t> first_aead, first_cbc, first_rc4, first_des,
      first_3des;
  bool scsv_reneg = false;
  for (const auto id : hello.cipher_suites) {
    if (id == suites::TLS_EMPTY_RENEGOTIATION_INFO_SCSV) scsv_reneg = true;
    if (is_grease(id)) continue;
    out.fp.cipher_suites.push_back(id);
    const auto* info = find_cipher_suite(id);
    if (info == nullptr) {
      ++real_index;
      continue;
    }
    if (info->scsv) continue;
    if (is_rc4(*info)) {
      out.adv_rc4 = true;
      if (!first_rc4) first_rc4 = real_index;
    }
    if (is_single_des(*info)) {
      out.adv_des = true;
      if (!first_des) first_des = real_index;
    }
    if (is_3des(*info)) {
      out.adv_3des = true;
      if (!first_3des) first_3des = real_index;
    }
    if (is_aead(*info)) {
      out.adv_aead = true;
      if (!first_aead) first_aead = real_index;
      switch (aead_kind(*info)) {
        case AeadKind::kAes128Gcm: out.adv_aes128gcm = true; break;
        case AeadKind::kAes256Gcm: out.adv_aes256gcm = true; break;
        case AeadKind::kChaCha20Poly1305: out.adv_chacha = true; break;
        case AeadKind::kAesCcm: out.adv_ccm = true; break;
        default: break;
      }
    }
    if (is_cbc(*info)) {
      out.adv_cbc = true;
      if (!first_cbc) first_cbc = real_index;
    }
    if (is_export(*info)) out.adv_export = true;
    if (is_anonymous(*info)) out.adv_anon = true;
    if (is_null_cipher(*info)) out.adv_null = true;
    if (is_forward_secret(*info)) out.adv_fs = true;
    ++real_index;
  }
  if (real_index > 0) {
    const auto rel = [real_index](std::size_t i) {
      return static_cast<double>(i) / static_cast<double>(real_index);
    };
    if (first_aead) out.pos_aead = rel(*first_aead);
    if (first_cbc) out.pos_cbc = rel(*first_cbc);
    if (first_rc4) out.pos_rc4 = rel(*first_rc4);
    if (first_des) out.pos_des = rel(*first_des);
    if (first_3des) out.pos_3des = rel(*first_3des);
  }

  // ---- one pass over the extension list ----
  // find_extension returns the first match, so only the first occurrence of
  // each typed extension is kept for the lazy parses below.
  const tls::wire::Extension* ext_groups = nullptr;
  const tls::wire::Extension* ext_formats = nullptr;
  const tls::wire::Extension* ext_sv = nullptr;
  const tls::wire::Extension* ext_hb = nullptr;
  for (const auto& e : hello.extensions) {
    if (!is_grease(e.type)) out.fp.extensions.push_back(e.type);
    if (e.type == wire_value(ExtensionType::kRenegotiationInfo)) {
      out.reneg_info_offered = true;
    } else if (e.type == wire_value(ExtensionType::kEncryptThenMac)) {
      out.etm_offered = true;
    } else if (e.type == wire_value(ExtensionType::kExtendedMasterSecret)) {
      out.ems_offered = true;
    } else if (e.type == wire_value(ExtensionType::kServerName)) {
      out.sni_offered = true;
    } else if (e.type == wire_value(ExtensionType::kSessionTicket)) {
      out.session_ticket_offered = true;
    } else if (e.type == wire_value(ExtensionType::kSupportedGroups)) {
      if (ext_groups == nullptr) ext_groups = &e;
    } else if (e.type == wire_value(ExtensionType::kEcPointFormats)) {
      if (ext_formats == nullptr) ext_formats = &e;
    } else if (e.type == wire_value(ExtensionType::kSupportedVersions)) {
      if (ext_sv == nullptr) ext_sv = &e;
    } else if (e.type == wire_value(ExtensionType::kHeartbeat)) {
      if (ext_hb == nullptr) ext_hb = &e;
    }
  }
  out.reneg_info_offered = out.reneg_info_offered || scsv_reneg;

  // Lazy-accessor parses, in the byte path's error order: heartbeat,
  // supported_versions, fingerprint extraction.
  if (ext_hb != nullptr) {
    try {
      tls::wire::parse_heartbeat(ext_hb->body);
      out.heartbeat_offered = true;
    } catch (const ParseError& e) {
      errors.push_back(e.code());
    }
  }

  if (ext_sv != nullptr) {
    try {
      for (const auto v :
           tls::wire::parse_supported_versions_client(ext_sv->body)) {
        if (is_grease_version(v)) continue;
        if (v == 0x0304 || (v & 0xff00) == 0x7f00 ||
            (v & 0xff00) == 0x7e00) {
          out.adv_tls13 = true;
          out.tls13_versions.push_back(v);
        }
      }
    } catch (const ParseError& e) {
      errors.push_back(e.code());
    }
  }

  if (want_fingerprint) {
    try {
      if (ext_groups != nullptr) {
        out.fp.groups = tls::wire::parse_supported_groups(ext_groups->body);
        std::erase_if(out.fp.groups,
                      [](std::uint16_t v) { return is_grease(v); });
      }
      if (ext_formats != nullptr) {
        out.fp.ec_point_formats =
            tls::wire::parse_ec_point_formats(ext_formats->body);
      }
      out.fp_hash = tls::fp::Md5::hex(out.fp.canonical());
      out.fingerprint_computed = true;
      if (out.adv_rc4) out.fp_flags |= kFpRc4;
      if (out.adv_des) out.fp_flags |= kFpDes;
      if (out.adv_3des) out.fp_flags |= kFp3Des;
      if (out.adv_aead) out.fp_flags |= kFpAead;
      if (out.adv_cbc) out.fp_flags |= kFpCbc;
      if (db != nullptr) {
        if (const auto* label = db->lookup(out.fp_hash)) {
          out.label_cls = label->cls;
        }
      }
    } catch (const ParseError& e) {
      out.fingerprint_computed = false;
      errors.push_back(e.code());
    }
  }
}

bool build_server_features(const ServerHello& hello,
                           ServerHelloFeatures& out) {
  try {
    out.version = hello.negotiated_version();
    out.key_share_group = hello.key_share_group();
    out.heartbeat_present = hello.heartbeat_mode().has_value();
  } catch (const ParseError&) {
    return false;
  }
  out.suite = tls::core::find_cipher_suite(hello.cipher_suite);
  out.reneg = hello.has_extension(ExtensionType::kRenegotiationInfo);
  out.etm = hello.has_extension(ExtensionType::kEncryptThenMac);
  out.ems = hello.has_extension(ExtensionType::kExtendedMasterSecret);
  return true;
}

}  // namespace tls::notary
