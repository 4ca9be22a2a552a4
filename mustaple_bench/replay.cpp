#include "replay.hpp"

#include <atomic>
#include <stdexcept>

#include "crypto/sha256.hpp"
#include "lint/lint.hpp"
#include "load_gen.hpp"
#include "net/http.hpp"
#include "net/socket_server.hpp"
#include "ocsp/request.hpp"
#include "ocsp/response.hpp"
#include "ocsp/verify.hpp"
#include "util/base64.hpp"

namespace mustaple::bench {

namespace {
// Folds every replayed call's result in, so no call is dead code.
std::atomic<std::uint64_t> g_sink{0};
}  // namespace

namespace {

/// The RFC 6960 A.1 GET path, percent-encoded the way ocsp_load sends it.
std::string get_path_for(const util::Bytes& request_der) {
  return "/" + loadgen_detail::percent_encode_base64(
                   util::base64_encode(request_der));
}

}  // namespace

util::Bytes request_wire(
    const std::string& host, const util::Bytes& request_der, bool get,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  net::HttpRequest request;
  if (get) {
    request.method = "GET";
    request.path = get_path_for(request_der);
  } else {
    request.method = "POST";
    request.path = "/";
    request.headers.set("content-type", "application/ocsp-request");
    request.body = request_der;
  }
  request.headers.set("host", host);
  for (const auto& [name, value] : extra) request.headers.set(name, value);
  return request.serialize();
}

ReplayItem make_replay_item(const ocsp::CertId& id,
                            std::optional<util::Bytes> nonce,
                            const std::string& host,
                            ca::OcspResponder& responder,
                            const ca::CertificateAuthority& authority) {
  ReplayItem item;
  item.id = id;
  item.nonce = std::move(nonce);
  item.host = host;
  item.responder = &responder;
  item.authority = &authority;
  ocsp::OcspRequest request = ocsp::OcspRequest::single(id);
  if (item.nonce) request.set_nonce(*item.nonce);
  item.request_der = request.encode_der();
  item.get_path = get_path_for(item.request_der);
  item.get_wire = request_wire(host, item.request_der, true);
  item.post_wire = request_wire(host, item.request_der, false);
  return item;
}

std::map<std::string, double> replay_layers(std::vector<ReplayItem>& items,
                                            util::SimTime now,
                                            TraceWriter& trace) {
  const std::size_t n = items.size();
  std::uint64_t sink = 0;

  // Every layer's input, prepared outside the timers.
  std::vector<net::HttpRequest> requests;  // GET, POST per item
  std::vector<util::Bytes> bodies;
  std::vector<net::HttpResponse> responses;
  std::vector<ocsp::VerifiedResponse> verdicts;
  std::vector<std::pair<const crypto::KeyPair*, util::Bytes>> to_sign;
  std::map<std::string, ca::OcspResponder*> by_host;
  for (ReplayItem& item : items) {
    for (const util::Bytes* wire : {&item.get_wire, &item.post_wire}) {
      auto parsed = net::HttpRequest::parse(*wire);
      if (!parsed.ok()) throw std::runtime_error("replay: bad request wire");
      requests.push_back(std::move(parsed).take());
    }
    bodies.push_back(item.responder->build_response_der(item.id, now,
                                                        item.nonce));
    net::HttpResponse response = net::HttpResponse::make(
        200, "OK", bodies.back(), "application/ocsp-response");
    response.headers.set("Connection", "keep-alive");
    responses.push_back(std::move(response));
    verdicts.push_back(ocsp::verify_ocsp_response_static(
        bodies.back(), item.id,
        item.authority->intermediate_cert().public_key(), item.nonce));
    if (auto parsed = ocsp::OcspResponse::parse(bodies.back()); parsed.ok()) {
      to_sign.emplace_back(&item.authority->intermediate_key(),
                           parsed.value().tbs_der());
    }
    by_host[item.host] = item.responder;
  }

  std::map<std::string, double> us;
  us["net.http_parse_us"] =
      time_per_call(trace, "net.http_parse", 2 * n, [&](std::size_t i) {
        const ReplayItem& item = items[i / 2];
        sink += net::HttpRequest::parse(i % 2 ? item.post_wire : item.get_wire)
                    .ok();
      });
  us["ocsp.request_parse_us"] =
      time_per_call(trace, "ocsp.request_parse", n, [&](std::size_t i) {
        sink += ocsp::OcspRequest::parse(items[i].request_der).ok();
      });
  us["ocsp.get_path_parse_us"] =
      time_per_call(trace, "ocsp.get_path_parse", n, [&](std::size_t i) {
        sink += ocsp::OcspRequest::parse_get_path(items[i].get_path).ok();
      });
  us["ca.build_response_us"] =
      time_per_call(trace, "ca.build_response", n, [&](std::size_t i) {
        const ReplayItem& item = items[i];
        sink += item.responder->build_response_der(item.id, now, item.nonce)
                    .size();
      });
  us["ca.handle_us"] =
      time_per_call(trace, "ca.handle", 2 * n, [&](std::size_t i) {
        sink += items[i / 2]
                    .responder->handle(requests[i], now, net::Region::kVirginia)
                    .body.size();
      });
  us["crypto.sign_us"] =
      time_per_call(trace, "crypto.sign", to_sign.size(), [&](std::size_t i) {
        sink += to_sign[i].first->sign(to_sign[i].second).size();
      });
  us["crypto.sha256_us"] =
      time_per_call(trace, "crypto.sha256", n, [&](std::size_t i) {
        sink += crypto::Sha256::hash(bodies[i])[0];
      });
  us["ocsp.verify_static_us"] =
      time_per_call(trace, "ocsp.verify_static", n, [&](std::size_t i) {
        const ReplayItem& item = items[i];
        sink += static_cast<std::uint64_t>(
            ocsp::verify_ocsp_response_static(
                bodies[i], item.id,
                item.authority->intermediate_cert().public_key(), item.nonce)
                .outcome);
      });
  us["ocsp.time_checks_us"] =
      time_per_call(trace, "ocsp.time_checks", n, [&](std::size_t i) {
        sink += static_cast<std::uint64_t>(
            ocsp::apply_time_checks(verdicts[i], now).outcome);
      });
  us["lint.lint_us"] = time_per_call(trace, "lint.lint", n, [&](std::size_t i) {
    // The scanner's per-body lint: build the artifact (parses) and run the
    // builtin catalog, clock-free.
    const ReplayItem& item = items[i];
    lint::Context ctx;
    ctx.issuer = &item.authority->intermediate_cert();
    ctx.requested_serial = item.id.serial;
    sink += lint::lint_artifact(lint::RuleRegistry::builtin(),
                                lint::Artifact::ocsp_response(
                                    item.host, bodies[i], std::move(ctx)))
                .size();
  });
  us["net.http_serialize_us"] =
      time_per_call(trace, "net.http_serialize", n, [&](std::size_t i) {
        sink += responses[i].serialize().size();
      });
  {
    net::ResponseCache cache(16, std::max<std::size_t>(4096, 4 * n));
    const net::WireHandler cached =
        cache.wrap([&by_host, now](const net::HttpRequest& request) {
          return by_host.at(request.host())
              ->handle(request, now, net::Region::kVirginia);
        });
    for (const auto& request : requests) sink += cached(request).body.size();
    us["net.wire_cache.hit_us"] = time_per_call(
        trace, "net.wire_cache.hit", requests.size(), [&](std::size_t i) {
          sink += cached(requests[i]).body.size();
        });
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);
  return us;
}

}  // namespace mustaple::bench
