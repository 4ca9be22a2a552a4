// The OCSP responder service: binds a CertificateAuthority into the
// simulated network at an OCSP URL, with a behaviour profile expressing
// every responder pathology measured in paper §5:
//
//   §5.3  malformed bodies ("0", empty, JavaScript), serial mismatch,
//         invalid signatures;
//   §5.4  superfluous certificates (Fig 6), multi-serial responses (Fig 7),
//         blank/short/huge validity periods (Fig 8), zero-margin and future
//         thisUpdate (Fig 9), pre-generated vs on-demand responses with
//         producedAt regressions across co-located backends (footnote 17);
//   §2.2  OCSP Signature Authority Delegation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ca/authority.hpp"
#include "net/network.hpp"
#include "net/socket_server.hpp"
#include "ocsp/response.hpp"
#include "util/alloc.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::ca {

struct ResponderBehavior {
  /// §5.4: 51.7% of responders serve pre-generated responses; the rest
  /// generate on demand.
  bool pre_generate = true;
  /// Regeneration cadence for pre-generated responses.
  util::Duration update_interval = util::Duration::hours(24);
  /// nextUpdate - thisUpdate; nullopt = blank nextUpdate (9.1% of
  /// responders, "technically always valid").
  std::optional<util::Duration> validity = util::Duration::days(7);
  /// thisUpdate is set this far BEFORE the generation instant. Zero models
  /// the 17.2% with no margin; negative models the 3% whose thisUpdate is
  /// in the future.
  util::Duration this_update_margin = util::Duration::hours(1);
  /// Co-located responder instances with unsynchronized update phases;
  /// >1 reproduces producedAt going backwards between consecutive scans.
  int backends = 1;

  /// Extra unsolicited SingleResponses packed into each response (Fig 7:
  /// 3.3% of responders always send 20 serials).
  int extra_serials = 0;
  /// Superfluous certificates beyond any delegation cert (Fig 6; e.g. the
  /// ocsp.cpc.gov.ae analogue sends the whole chain incl. root).
  int extra_certs = 0;
  /// Sign with a delegated responder certificate embedded in the response.
  bool delegate_signing = false;

  enum class Malform { kNone, kZeroBody, kEmptyBody, kJavascriptBody };
  /// Body corruption mode. Applied always, or only inside
  /// `malform_windows` when any are given (the sheca/postsignum spikes).
  Malform malform = Malform::kNone;
  std::vector<std::pair<util::SimTime, util::SimTime>> malform_windows;

  /// Answer with a SingleResponse whose serial differs from the request.
  bool wrong_serial = false;
  /// Corrupt the signature bytes.
  bool bad_signature = false;
  /// Answer every request with an OCSP-level tryLater error (RFC 6960
  /// §4.2.1) — the "responder returns an error" case of Table 3's
  /// retain-on-error experiment.
  bool respond_try_later = false;
};

/// A responder instance. Stateless between requests except for the
/// pre-generation cache: the latest cycle's encoding per (CertID, backend),
/// keyed by the whole CertID (issuer name hash, issuer key hash, serial) so
/// a request naming the wrong issuer cannot poison the answer to the right
/// one. The mutex guards that cache and nothing else: pre-generated
/// responders hold it across a miss's signing, so each (CertID, backend,
/// cycle) is generated exactly once regardless of probe interleaving, and
/// on-demand responders sign without taking it. Neither path locks the CA,
/// whose revocation database every signing reads: the CA must not be
/// changed (CertificateAuthority::issue/revoke) while the responder serves
/// concurrent requests.
class OcspResponder {
 public:
  OcspResponder(CertificateAuthority& authority, ResponderBehavior behavior,
                std::string host, util::Rng& rng);

  const std::string& host() const { return host_; }
  /// The construction-time profile. `respond_try_later` reflects the
  /// initial value only — the live flag moved into an atomic (see
  /// try_later()) because set_try_later() races concurrent serving threads.
  const ResponderBehavior& behavior() const { return behavior_; }
  bool try_later() const {
    return try_later_.load(std::memory_order_relaxed);
  }
  /// Flips the responder into/out of tryLater mode at runtime (used by the
  /// Table 3 retain-on-error experiment). Logged at warn so the flip shows
  /// up in the flight recorder's event ring.
  void set_try_later(bool value);
  std::string url() const { return "http://" + host_ + "/"; }

  /// Pre-generation cache introspection (health checks, /statusz); both
  /// take the cache mutex, so they are callable from a serving thread.
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;

  /// Registers this responder's HTTP handler on the network. The responder
  /// must outlive the network.
  void install(net::Network& network, std::uint16_t port = 80);

  /// HTTP entry point (also callable directly in tests).
  net::HttpResponse handle(const net::HttpRequest& request, util::SimTime now,
                           net::Region from);

  /// Adapts handle() to a real-socket listener (net::SocketServer): `clock`
  /// supplies the SimTime "now" per request — wall-anchored for live
  /// serving, fixed for benchmarks. Safe on concurrent worker threads while
  /// the CA is not changed: the pre-generation cache is the only state a
  /// request writes, and it is locked. The responder must outlive the
  /// returned handler.
  net::WireHandler wire_handler(std::function<util::SimTime()> clock);

  /// Builds (or serves from cache) the response for one CertID.
  ocsp::OcspResponse build_response(const ocsp::CertId& id, util::SimTime now);

  /// Encoded form of build_response — the hot path used by handle(); serves
  /// the cached encoding without a parse/re-encode round trip. A request
  /// nonce is echoed only by on-demand responders: pre-generated responses
  /// are cached and structurally cannot carry per-request nonces.
  util::Bytes build_response_der(
      const ocsp::CertId& id, util::SimTime now,
      const std::optional<util::Bytes>& nonce = std::nullopt);

 private:
  bool malform_active(util::SimTime now) const;
  util::SimTime generation_time(util::SimTime now, int backend) const;
  /// The pre-generated path: serves, or signs and caches, the encoding for
  /// (CertID, backend, cycle of `gen_time`) under mu_.
  util::Bytes pregenerated_response(const ocsp::CertId& id,
                                    util::SimTime gen_time, int backend);
  /// Signs and encodes a fresh response. Reads the responder's
  /// construction-time state and the CA's revocation database, never the
  /// cache, so the on-demand path calls it without mu_ (the CA must not
  /// change while responders serve; see the class comment).
  util::Bytes sign_response(const ocsp::CertId& id, util::SimTime gen_time,
                            const std::optional<util::Bytes>& nonce) const;

  CertificateAuthority* authority_;
  ResponderBehavior behavior_;  ///< immutable after construction
  /// Live tryLater switch: written by set_try_later() (possibly from a
  /// control thread) while serving threads read it per request, so it
  /// cannot live inside the plain-struct behavior_.
  std::atomic<bool> try_later_{false};
  std::string host_;
  util::Rng rng_;  ///< fixed after construction; forked, never advanced
  /// Seed for the stateless per-request backend choice. A stateful rng_
  /// draw would make the chosen backend depend on global request order,
  /// which varies with scanner thread count; hashing (seed, serial, now)
  /// keeps footnote-17 producedAt regressions while staying
  /// order-independent.
  std::uint64_t backend_seed_ = 0;

  crypto::KeyPair delegate_key_;
  std::optional<x509::Certificate> delegate_cert_;
  std::vector<util::Duration> backend_phases_;
  // Expected CertID issuer hashes — requests naming a different issuer get
  // Unknown ("the certificate is not served by this responder", §2.2).
  // Leaves: intermediate hashes; the intermediate itself: root hashes.
  util::Bytes expected_name_hash_;
  util::Bytes expected_key_hash_;
  util::Bytes root_name_hash_;
  util::Bytes root_key_hash_;

  struct CacheEntry {
    std::int64_t cycle = -1;
    util::Bytes der;
  };
  // CertID -> per-backend cached encoding for the current cycle.
  mutable util::Mutex mu_;  ///< guards cache_ across lookup + generation
  std::map<ocsp::CertId, std::vector<CacheEntry>> cache_
      MUSTAPLE_GUARDED_BY(mu_);
  /// DER bytes resident in cache_, charged to "ca.response_cache" (updated
  /// under mu_; released wholesale on destruction).
  util::AllocTally cache_tally_ MUSTAPLE_GUARDED_BY(mu_);
};

}  // namespace mustaple::ca
