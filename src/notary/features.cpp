#include "notary/features.hpp"

#include <span>

#include "fingerprint/md5.hpp"
#include "tlscore/fnv.hpp"
#include "tlscore/grease.hpp"
#include "tlscore/version.hpp"
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
  heartbeat_error.reset();
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

std::size_t FingerprintMemo::KeyHash::operator()(
    const tls::fp::Fingerprint& fp) const {
  const auto chain = [](std::uint64_t h, const auto& list) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(list.data()),
        list.size() * sizeof(list[0]));
    return tls::core::word_hash64(bytes, h ^ bytes.size());
  };
  std::uint64_t h = tls::core::kFnvOffset;
  h = chain(h, fp.cipher_suites);
  h = chain(h, fp.extensions);
  h = chain(h, fp.groups);
  h = chain(h, fp.ec_point_formats);
  return static_cast<std::size_t>(h);
}

const FingerprintMemo::Entry& FingerprintMemo::resolve(
    const tls::fp::Fingerprint& fp, const tls::fp::FingerprintDatabase* db) {
  ++lookups_;
  if (const auto it = entries_.find(fp); it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  canonical_.clear();
  fp.append_canonical(canonical_);
  Entry entry;
  tls::fp::Md5::hex_into(canonical_, entry.hash);
  if (db != nullptr) {
    if (const auto* label = db->lookup(entry.hash)) entry.cls = label->cls;
  }
  if (entries_.size() >= capacity_) entries_.clear();
  return entries_.emplace(fp, std::move(entry)).first->second;
}

void FingerprintMemo::release() {
  // Move-assigning a fresh table frees the nodes and the bucket array;
  // clear() would keep the buckets.
  entries_ = decltype(entries_)();
  canonical_ = std::string();
}

void build_client_features(const ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           FingerprintMemo& memo, bool want_fingerprint,
                           ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors) {
  using namespace tls::core;
  out.reset();

  // ---- one pass over the cipher-suite list ----
  // Replaces the 13 offers() scans, the 5 first_position() scans, the SCSV
  // membership test and the fingerprint's GREASE strip of the byte path.
  // Semantics match exactly: offers() only sees registered non-SCSV suites
  // (GREASE ids are unregistered), positions skip GREASE entries and SCSVs
  // but count unknown ids in the denominator, and the fingerprint keeps
  // every non-GREASE id (SCSVs included). Each suite costs one read of its
  // trait word; a class's position is taken from the first suite that
  // brings its bit.
  using T = SuiteTraits;
  std::size_t real_index = 0;
  std::uint16_t seen = 0;
  unsigned aead_kinds = 0;  // bit k: some suite of AeadKind k
  std::optional<std::size_t> first_aead, first_cbc, first_rc4, first_des,
      first_3des;
  bool scsv_reneg = false;
  for (const auto id : hello.cipher_suites) {
    if (id == suites::TLS_EMPTY_RENEGOTIATION_INFO_SCSV) scsv_reneg = true;
    if (is_grease(id)) continue;
    out.fp.cipher_suites.push_back(id);
    const SuiteTraits traits = suite_traits(id);
    if ((traits.bits & T::kScsv) != 0) continue;
    if (const std::uint16_t fresh = traits.bits & ~seen; fresh != 0) {
      seen |= fresh;
      if ((fresh & T::kRc4) != 0) first_rc4 = real_index;
      if ((fresh & T::kSingleDes) != 0) first_des = real_index;
      if ((fresh & T::k3Des) != 0) first_3des = real_index;
      if ((fresh & T::kAead) != 0) first_aead = real_index;
      if ((fresh & T::kCbc) != 0) first_cbc = real_index;
    }
    aead_kinds |= 1u << static_cast<unsigned>(traits.aead);
    ++real_index;
  }
  const auto has_kind = [aead_kinds](AeadKind k) {
    return (aead_kinds & (1u << static_cast<unsigned>(k))) != 0;
  };
  out.adv_rc4 = (seen & T::kRc4) != 0;
  out.adv_des = (seen & T::kSingleDes) != 0;
  out.adv_3des = (seen & T::k3Des) != 0;
  out.adv_aead = (seen & T::kAead) != 0;
  out.adv_cbc = (seen & T::kCbc) != 0;
  out.adv_export = (seen & T::kExport) != 0;
  out.adv_anon = (seen & T::kAnonymous) != 0;
  out.adv_null = (seen & T::kNullCipher) != 0;
  out.adv_fs = (seen & T::kForwardSecret) != 0;
  out.adv_aes128gcm = has_kind(AeadKind::kAes128Gcm);
  out.adv_aes256gcm = has_kind(AeadKind::kAes256Gcm);
  out.adv_chacha = has_kind(AeadKind::kChaCha20Poly1305);
  out.adv_ccm = has_kind(AeadKind::kAesCcm);
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
      out.heartbeat_error = e.code();
      errors.push_back(e.code());
    }
  }

  if (ext_sv != nullptr) {
    try {
      const auto raw = tls::wire::supported_versions_client_list(ext_sv->body);
      for (std::size_t i = 0; i < raw.size(); i += 2) {
        const std::uint16_t v = tls::wire::load_u16(raw.data() + i);
        if (is_grease_version(v)) continue;
        if (is_tls13_wire(v)) {
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
        const auto raw = tls::wire::supported_groups_list(ext_groups->body);
        for (std::size_t i = 0; i < raw.size(); i += 2) {
          const std::uint16_t g = tls::wire::load_u16(raw.data() + i);
          if (!is_grease(g)) out.fp.groups.push_back(g);
        }
      }
      if (ext_formats != nullptr) {
        const auto formats =
            tls::wire::ec_point_formats_list(ext_formats->body);
        out.fp.ec_point_formats.assign(formats.begin(), formats.end());
      }
      const auto& known = memo.resolve(out.fp, db);
      out.fp_hash.assign(known.hash);
      out.label_cls = known.cls;
      out.fingerprint_computed = true;
      if (out.adv_rc4) out.fp_flags |= kFpRc4;
      if (out.adv_des) out.fp_flags |= kFpDes;
      if (out.adv_3des) out.fp_flags |= kFp3Des;
      if (out.adv_aead) out.fp_flags |= kFpAead;
      if (out.adv_cbc) out.fp_flags |= kFpCbc;
    } catch (const ParseError& e) {
      out.fingerprint_computed = false;
      errors.push_back(e.code());
    }
  }
}

ServerHelloFeatures build_server_features(const ServerHello& hello) {
  ServerHelloFeatures out;
  out.suite = tls::core::find_cipher_suite(hello.cipher_suite);
  out.reneg = hello.has_extension(ExtensionType::kRenegotiationInfo);
  out.etm = hello.has_extension(ExtensionType::kEncryptThenMac);
  out.ems = hello.has_extension(ExtensionType::kExtendedMasterSecret);
  out.failed_at = ServerField::kVersion;
  try {
    out.version = hello.negotiated_version();
    out.failed_at = ServerField::kKeyShare;
    out.key_share_group = hello.key_share_group();
    out.failed_at = ServerField::kHeartbeat;
    out.heartbeat_present = hello.heartbeat_mode().has_value();
    out.failed_at = ServerField::kNone;
  } catch (const ParseError& e) {
    out.error = e.code();
  }
  return out;
}

}  // namespace tls::notary
