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

net::HttpResponse ocsp_answer(util::Bytes der) {
  return net::HttpResponse::make(200, "OK", std::move(der),
                                 "application/ocsp-response");
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
  if (behavior_.bad_signature) {
    // Sign with a key unrelated to the CA: the response stays well-formed
    // but fails client-side signature validation (§5.3 "Incorrect
    // signature"). rng_ is final here, so the key is fixed too.
    util::Rng throwaway = rng_.fork("bad-signature");
    bad_signature_key_ = crypto::KeyPair::generate_sim(throwaway);
  }
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
                                        net::Region /*from*/) {
  // No trace event here: scan probes reach this handler on pool workers,
  // in scheduling order, and the network already records each fetch as a
  // span when the scanner replays it in canonical order (DESIGN.md §7).
  MUSTAPLE_COUNT("mustaple_ca_ocsp_requests_total");
  const bool post = request.method == "POST";
  if (!post && request.method != "GET") {
    return net::HttpResponse::make(400, net::default_reason(400), {}, "");
  }

  if (malform_active(now)) {
    MUSTAPLE_COUNT("mustaple_ca_ocsp_malformed_served_total");
    // Still HTTP 200 — the paper's clients count these as "successful
    // requests" that later fail validation (§5.2 vs §5.3).
    return ocsp_answer(malformed_body(behavior_.malform));
  }

  if (try_later()) {
    return ocsp_answer(
        ocsp::OcspResponseBuilder::error(ocsp::ResponseStatus::kTryLater)
            .encode_der());
  }

  const auto malformed_request = [] {
    return ocsp_answer(ocsp::OcspResponseBuilder::error(
                           ocsp::ResponseStatus::kMalformedRequest)
                           .encode_der());
  };
  // POST carries the DER body; GET carries base64 in the path (RFC 6960
  // Appendix A.1), decoded into one buffer. Either way the request is read
  // in place and answered from its views.
  util::Bytes get_der;
  if (!post) {
    auto decoded = ocsp::decode_get_path(request.path);
    if (!decoded.ok()) return malformed_request();
    get_der = std::move(decoded).take();
  }
  const auto parsed = ocsp::OcspRequestView::parse(
      post ? util::BytesView(request.body) : util::BytesView(get_der));
  if (!parsed.ok()) return malformed_request();
  return ocsp_answer(
      answer(parsed.value().first_cert_id(), now, parsed.value().nonce()));
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
  return answer(id, now,
                nonce ? std::optional<util::BytesView>(*nonce) : std::nullopt);
}

util::Bytes OcspResponder::answer(const ocsp::CertIdView& id,
                                  util::SimTime now,
                                  const std::optional<util::BytesView>& nonce) {
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

util::Bytes OcspResponder::pregenerated_response(const ocsp::CertIdView& id,
                                                 util::SimTime gen_time,
                                                 int backend) {
  const std::int64_t interval = behavior_.update_interval.seconds;
  const std::int64_t cycle = interval > 0 ? gen_time.unix_seconds / interval
                                          : gen_time.unix_seconds;
  // One signed encoding per (CertID, backend, cycle). The lock is held
  // across a miss's signing so concurrent probes never sign it twice.
  util::MutexLock lock(mu_);
  auto it = cache_.find(id);
  if (it == cache_.end()) {
    it = cache_
             .emplace(id.to_cert_id(),
                      std::vector<CacheEntry>(
                          static_cast<std::size_t>(behavior_.backends)))
             .first;
  }
  CacheEntry& entry = it->second[static_cast<std::size_t>(backend)];
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
    const ocsp::CertIdView& id, util::SimTime gen_time,
    const std::optional<util::BytesView>& nonce) const {
  const util::SimTime this_update = gen_time - behavior_.this_update_margin;
  std::optional<util::SimTime> next_update;
  if (behavior_.validity) next_update = this_update + *behavior_.validity;

  // Requests naming a different issuer (wrong name/key hash) get Unknown:
  // "the certificate is not served by this responder" (§2.2).
  const bool root_issued = id.issuer_name_hash == root_name_hash_ &&
                           id.issuer_key_hash == root_key_hash_;
  const bool issuer_matches = (id.issuer_name_hash == expected_name_hash_ &&
                               id.issuer_key_hash == expected_key_hash_) ||
                              root_issued;
  ocsp::CertStatus status = ocsp::CertStatus::kUnknown;
  std::optional<ocsp::RevokedInfo> revoked;
  if (issuer_matches) {
    ocsp::RevokedInfo info;
    status = authority_->ocsp_status(id.serial, &info);
    if (status == ocsp::CertStatus::kRevoked) revoked = info;
  }

  // The serials this answer names that the request does not: the requested
  // one with its low byte flipped (wrong_serial), and the unsolicited extras
  // (Fig 7), each the requested serial plus one byte.
  util::Bytes wrong_serial;
  if (behavior_.wrong_serial) {
    wrong_serial = id.serial.to_bytes();
    if (wrong_serial.empty()) wrong_serial.push_back(0);
    wrong_serial.back() ^= 0xff;
  }
  util::Bytes extra_serial;
  if (behavior_.extra_serials > 0) {
    extra_serial.reserve(id.serial.size() + 1);
    util::append(extra_serial, id.serial);
    extra_serial.push_back(0);
  }

  // Certificates: the intermediate for a root-issued subject (the
  // intermediate itself, RFC 6961 path: the response is signed by the
  // intermediate key, which clients verify against the root first), the
  // delegation cert (if any), then superfluous extras (Fig 6).
  const x509::Certificate& intermediate = authority_->intermediate_cert();
  const bool has_certs =
      root_issued || delegate_cert_ || behavior_.extra_certs > 0;
  const crypto::KeyPair& key =
      bad_signature_key_           ? *bad_signature_key_
      : behavior_.delegate_signing ? delegate_key_
                                   : authority_->intermediate_key();

  asn1::Writer w;
  w.reserve(answer_capacity_.load(std::memory_order_relaxed));
  ocsp::encode_successful_response(
      w,
      [&](asn1::Writer& tbs) {
        ocsp::encode_response_data(
            tbs, gen_time,
            [&](asn1::Writer& singles) {
              ocsp::encode_single(
                  singles,
                  behavior_.wrong_serial
                      ? ocsp::CertIdView(id.issuer_name_hash,
                                         id.issuer_key_hash, wrong_serial)
                      : id,
                  status, revoked, this_update, next_update);
              for (int i = 0; i < behavior_.extra_serials; ++i) {
                extra_serial.back() = static_cast<std::uint8_t>(i + 1);
                ocsp::encode_single(
                    singles,
                    ocsp::CertIdView(id.issuer_name_hash, id.issuer_key_hash,
                                     extra_serial),
                    ocsp::CertStatus::kGood, std::nullopt, this_update,
                    next_update);
              }
            },
            nonce);
      },
      key.algorithm(),
      [&key](util::BytesView tbs_der) { return key.sign(tbs_der); },
      has_certs,
      [&](asn1::Writer& certs) {
        if (root_issued) intermediate.encode(certs);
        if (delegate_cert_) delegate_cert_->encode(certs);
        for (int i = 0; i < behavior_.extra_certs; ++i) {
          (i % 2 == 0 ? intermediate : authority_->root_cert()).encode(certs);
        }
      });
  if (w.bytes().size() > answer_capacity_.load(std::memory_order_relaxed)) {
    answer_capacity_.store(w.bytes().size(), std::memory_order_relaxed);
  }
  return w.take();
}

}  // namespace mustaple::ca
