#include "ca/responder.hpp"

#include <limits>

#include "asn1/der.hpp"
#include "crypto/sha1.hpp"
#include "obs/obs.hpp"
#include "ocsp/request.hpp"
#include "util/hash.hpp"

namespace mustaple::ca {

namespace {

// Malformed bodies observed in the wild (§5.3): the literal "0", empty
// bodies, and JavaScript pages.
util::Bytes malformed_body(ResponderBehavior::Malform mode) {
  switch (mode) {
    case ResponderBehavior::Malform::kZeroBody:
      return util::bytes_of("0");
    case ResponderBehavior::Malform::kEmptyBody:
      return {};
    case ResponderBehavior::Malform::kJavascriptBody:
      return util::bytes_of(
          "<html><script>window.location='/maintenance';</script></html>");
    case ResponderBehavior::Malform::kNone:
      break;
  }
  return {};
}

}  // namespace

OcspResponder::OcspResponder(CertificateAuthority& authority,
                             ResponderBehavior behavior, std::string host,
                             util::Rng& rng)
    : authority_(&authority),
      behavior_(std::move(behavior)),
      try_later_(behavior_.respond_try_later),
      host_(std::move(host)),
      rng_(rng.fork("responder." + host_)),
      delegate_key_(crypto::KeyPair::generate_sim(rng_)),
      cache_tally_(util::alloc_counter("ca.response_cache")) {
  if (behavior_.backends < 1) behavior_.backends = 1;
  if (behavior_.delegate_signing) {
    // Anchored mid-2010s; issue_delegate gives it a ±multi-decade window so
    // any simulated campaign date falls inside it.
    delegate_cert_ = authority_->issue_delegate(
        delegate_key_.public_key(), util::make_time(2016, 1, 1), rng_);
  }
  // Precompute the CertID issuer hashes this responder serves: leaves are
  // issued by the intermediate; the intermediate itself by the root (the
  // multi-staple path).
  {
    asn1::Writer issuer_name;
    authority_->intermediate_cert().subject().encode(issuer_name);
    expected_name_hash_ = crypto::Sha1::hash(issuer_name.bytes());
    expected_key_hash_ = crypto::Sha1::hash(
        authority_->intermediate_cert().public_key().encode());
    asn1::Writer root_name;
    authority_->root_cert().subject().encode(root_name);
    root_name_hash_ = crypto::Sha1::hash(root_name.bytes());
    root_key_hash_ =
        crypto::Sha1::hash(authority_->root_cert().public_key().encode());
  }
  // Unsynchronized update phases across backends.
  const std::int64_t interval = behavior_.update_interval.seconds;
  for (int b = 0; b < behavior_.backends; ++b) {
    backend_phases_.push_back(util::Duration::secs(
        interval > 0 ? static_cast<std::int64_t>(
                           rng_.uniform(static_cast<std::uint64_t>(interval)))
                     : 0));
  }
  backend_seed_ = rng_.fork("backend-choice")
                      .uniform(std::numeric_limits<std::uint64_t>::max());
}

void OcspResponder::set_try_later(bool value) {
  // The live flag is an atomic, not a behavior_ field: serving threads
  // read it on every request while this setter may run on a control
  // thread (the Table 3 experiment flips it mid-campaign).
  if (try_later_.exchange(value, std::memory_order_relaxed) != value) {
    MUSTAPLE_LOG_WARN("ca", "responder tryLater mode flipped",
                      obs::field("host", host_),
                      obs::field("try_later", value));
  }
}

std::size_t OcspResponder::cache_entries() const {
  util::MutexLock lock(mu_);
  std::size_t entries = 0;
  for (const auto& [id, per_backend] : cache_) {
    for (const CacheEntry& entry : per_backend) {
      if (entry.cycle >= 0) ++entries;
    }
  }
  return entries;
}

std::size_t OcspResponder::cache_bytes() const {
  util::MutexLock lock(mu_);
  return cache_tally_.total();
}

void OcspResponder::install(net::Network& network, std::uint16_t port) {
  auto handler = [this](const net::HttpRequest& request, util::SimTime now,
                        net::Region from) { return handle(request, now, from); };
  network.register_service(host_, port, handler);
  if (port == 80) {
    // Real responders commonly answer on HTTPS too (the paper found one
    // whose HTTPS endpoint served an invalid certificate).
    network.register_service(host_, 443, handler);
  }
}

bool OcspResponder::malform_active(util::SimTime now) const {
  if (behavior_.malform == ResponderBehavior::Malform::kNone) return false;
  if (behavior_.malform_windows.empty()) return true;
  for (const auto& [start, end] : behavior_.malform_windows) {
    if (start <= now && now < end) return true;
  }
  return false;
}

util::SimTime OcspResponder::generation_time(util::SimTime now,
                                             int backend) const {
  if (!behavior_.pre_generate) return now;
  const std::int64_t interval = behavior_.update_interval.seconds;
  if (interval <= 0) return now;
  const std::int64_t phase = backend_phases_[static_cast<std::size_t>(backend)].seconds;
  const std::int64_t cycles = (now.unix_seconds - phase) / interval;
  return util::SimTime{phase + cycles * interval};
}

net::HttpResponse OcspResponder::handle(const net::HttpRequest& request,
                                        util::SimTime now,
                                        net::Region from) {
  MUSTAPLE_COUNT("mustaple_ca_ocsp_requests_total");
  MUSTAPLE_TRACE_INSTANT("ocsp-handle", "ca.ocsp", now,
                         static_cast<std::uint32_t>(from),
                         {"host", host_});
#if !MUSTAPLE_OBS_ENABLED
  (void)from;
#endif
  if (request.method != "POST" && request.method != "GET") {
    return net::HttpResponse::make(400, net::default_reason(400), {}, "");
  }

  if (malform_active(now)) {
    MUSTAPLE_COUNT("mustaple_ca_ocsp_malformed_served_total");
    // Still HTTP 200 — the paper's clients count these as "successful
    // requests" that later fail validation (§5.2 vs §5.3).
    return net::HttpResponse::make(200, "OK", malformed_body(behavior_.malform),
                                   "application/ocsp-response");
  }

  if (try_later()) {
    const auto error =
        ocsp::OcspResponseBuilder::error(ocsp::ResponseStatus::kTryLater);
    return net::HttpResponse::make(200, "OK", error.encode_der(),
                                   "application/ocsp-response");
  }

  // POST carries the DER body; GET carries base64 in the path (RFC 6960
  // Appendix A.1).
  auto parsed = request.method == "POST"
                    ? ocsp::OcspRequest::parse(request.body)
                    : ocsp::OcspRequest::parse_get_path(request.path);
  if (!parsed.ok()) {
    const auto error =
        ocsp::OcspResponseBuilder::error(ocsp::ResponseStatus::kMalformedRequest);
    return net::HttpResponse::make(200, "OK", error.encode_der(),
                                   "application/ocsp-response");
  }

  return net::HttpResponse::make(
      200, "OK",
      build_response_der(parsed.value().cert_ids().front(), now,
                         parsed.value().nonce()),
      "application/ocsp-response");
}

net::WireHandler OcspResponder::wire_handler(
    std::function<util::SimTime()> clock) {
  // Region only affects simulated latency, which has no meaning on a real
  // socket; pin the default vantage.
  return [this, clock = std::move(clock)](const net::HttpRequest& request) {
    return handle(request, clock(), net::Region::kVirginia);
  };
}

ocsp::OcspResponse OcspResponder::build_response(const ocsp::CertId& id,
                                                 util::SimTime now) {
  auto parsed = ocsp::OcspResponse::parse(build_response_der(id, now));
  if (!parsed.ok()) {
    throw std::logic_error("OcspResponder produced unparseable DER: " +
                           parsed.error().to_string());
  }
  return std::move(parsed).take();
}

util::Bytes OcspResponder::build_response_der(
    const ocsp::CertId& id, util::SimTime now,
    const std::optional<util::Bytes>& nonce) {
  // Which co-located backend answers is a pure function of (responder,
  // serial, time): load balancing still looks arbitrary across scans —
  // which is what produces the producedAt regressions — but does not
  // depend on how many requests other threads issued first.
  const int backend =
      behavior_.backends > 1
          ? static_cast<int>(
                util::hash_combine(
                    util::hash_combine(backend_seed_, util::fnv1a64(id.serial)),
                    static_cast<std::uint64_t>(now.unix_seconds)) %
                static_cast<std::uint64_t>(behavior_.backends))
          : 0;
  const util::SimTime gen_time = generation_time(now, backend);
  // Only on-demand generation can echo a per-request nonce; a cached
  // response is shared across requests.
  if (!behavior_.pre_generate) return sign_response(id, gen_time, nonce);
  return pregenerated_response(id, gen_time, backend);
}

util::Bytes OcspResponder::pregenerated_response(const ocsp::CertId& id,
                                                 util::SimTime gen_time,
                                                 int backend) {
  const std::int64_t interval = behavior_.update_interval.seconds;
  const std::int64_t cycle = interval > 0 ? gen_time.unix_seconds / interval
                                          : gen_time.unix_seconds;
  // One signed encoding per (CertID, backend, cycle). The lock is held
  // across a miss's signing so concurrent probes never sign it twice.
  util::MutexLock lock(mu_);
  auto& entries = cache_[id];
  entries.resize(static_cast<std::size_t>(behavior_.backends));
  CacheEntry& entry = entries[static_cast<std::size_t>(backend)];
  if (entry.cycle == cycle && !entry.der.empty()) {
    MUSTAPLE_COUNT("mustaple_ca_ocsp_cache_hits_total");
    return entry.der;
  }
  util::Bytes der = sign_response(id, gen_time, std::nullopt);
  // A fresh signing of a cached CertID is one regeneration cycle.
  MUSTAPLE_COUNT("mustaple_ca_ocsp_regenerations_total");
  // Keep the "ca.response_cache" tally equal to the DER bytes resident in
  // cache_: credit the encoding being replaced, charge its successor.
  if (!entry.der.empty()) cache_tally_.release(entry.der.size());
  cache_tally_.record(der.size());
  entry = CacheEntry{cycle, der};
  return der;
}

util::Bytes OcspResponder::sign_response(
    const ocsp::CertId& id, util::SimTime gen_time,
    const std::optional<util::Bytes>& nonce) const {
  const util::SimTime this_update = gen_time - behavior_.this_update_margin;
  std::optional<util::SimTime> next_update;
  if (behavior_.validity) next_update = this_update + *behavior_.validity;

  ocsp::SingleResponse single;
  single.cert_id = id;
  if (behavior_.wrong_serial) {
    // Flip the low byte so the serial no longer matches the request.
    util::Bytes& mutated = single.cert_id.serial;
    if (mutated.empty()) mutated.push_back(0);
    mutated.back() ^= 0xff;
  }
  // Requests naming a different issuer (wrong name/key hash) get Unknown:
  // "the certificate is not served by this responder" (§2.2).
  const bool root_issued = id.issuer_name_hash == root_name_hash_ &&
                           id.issuer_key_hash == root_key_hash_;
  const bool issuer_matches = (id.issuer_name_hash == expected_name_hash_ &&
                               id.issuer_key_hash == expected_key_hash_) ||
                              root_issued;
  if (issuer_matches) {
    ocsp::RevokedInfo revoked;
    single.status = authority_->ocsp_status(id.serial, &revoked);
    if (single.status == ocsp::CertStatus::kRevoked) single.revoked = revoked;
  } else {
    single.status = ocsp::CertStatus::kUnknown;
  }
  single.this_update = this_update;
  single.next_update = next_update;

  ocsp::OcspResponseBuilder builder;
  builder.produced_at(gen_time).add_single(std::move(single));
  if (nonce) builder.nonce(*nonce);

  // Unsolicited extra serials (Fig 7), each Good for the same window.
  for (int i = 0; i < behavior_.extra_serials; ++i) {
    ocsp::SingleResponse extra;
    extra.cert_id = id;
    extra.cert_id.serial.push_back(static_cast<std::uint8_t>(i + 1));
    extra.this_update = this_update;
    extra.next_update = next_update;
    builder.add_single(std::move(extra));
  }

  // Certificates: delegation cert (if any) + superfluous extras (Fig 6).
  // For a root-issued subject (the intermediate itself, RFC 6961 path) the
  // response is signed by the intermediate key, so the intermediate cert is
  // attached as the delegation certificate — clients verify it against the
  // root and then the response against it.
  if (root_issued) builder.add_cert(authority_->intermediate_cert());
  if (delegate_cert_) builder.add_cert(*delegate_cert_);
  for (int i = 0; i < behavior_.extra_certs; ++i) {
    builder.add_cert(i % 2 == 0 ? authority_->intermediate_cert()
                                : authority_->root_cert());
  }

  if (behavior_.bad_signature) {
    // Sign with a key unrelated to the CA: the response stays well-formed
    // but fails client-side signature validation (§5.3 "Incorrect
    // signature").
    util::Rng throwaway = rng_.fork("bad-signature");
    return builder.sign(crypto::KeyPair::generate_sim(throwaway)).encode_der();
  }
  return builder
      .sign(behavior_.delegate_signing ? delegate_key_
                                       : authority_->intermediate_key())
      .encode_der();
}

}  // namespace mustaple::ca
