#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace mustaple::lint {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
    case Severity::kFatal:
      return "fatal";
  }
  return "?";
}

const char* to_string(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kCertificate:
      return "certificate";
    case ArtifactKind::kCrl:
      return "crl";
    case ArtifactKind::kOcspResponse:
      return "ocsp-response";
    case ArtifactKind::kCrlOcspPair:
      return "crl-ocsp-pair";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Artifact
// ---------------------------------------------------------------------------

void Artifact::parse() {
  if (parsed_) return;
  parsed_ = true;
  switch (kind) {
    case ArtifactKind::kCertificate: {
      auto parsed = x509::Certificate::parse(der);
      if (parsed.ok()) {
        cert = std::move(parsed).take();
      } else {
        parse_error = parsed.error().code;
      }
      break;
    }
    case ArtifactKind::kCrl: {
      auto parsed = crl::Crl::parse(der);
      if (parsed.ok()) {
        crl = std::move(parsed).take();
      } else {
        parse_error = parsed.error().code;
      }
      break;
    }
    case ArtifactKind::kOcspResponse:
    case ArtifactKind::kCrlOcspPair: {
      auto parsed = ocsp::OcspResponse::parse(der);
      if (parsed.ok()) {
        ocsp = std::move(parsed).take();
      } else {
        parse_error = parsed.error().code;
      }
      break;
    }
  }
}

Artifact Artifact::deferred(ArtifactKind kind, std::string id, util::Bytes der,
                            Context ctx) {
  Artifact artifact;
  artifact.kind = kind;
  artifact.id = std::move(id);
  artifact.der = std::move(der);
  artifact.context = ctx;
  return artifact;
}

Artifact Artifact::certificate(std::string id, util::Bytes der, Context ctx) {
  Artifact artifact = deferred(ArtifactKind::kCertificate, std::move(id),
                               std::move(der), ctx);
  artifact.parse();
  return artifact;
}

Artifact Artifact::certificate(std::string id, const x509::Certificate& cert,
                               Context ctx) {
  Artifact artifact = deferred(ArtifactKind::kCertificate, std::move(id),
                               cert.encode_der(), ctx);
  // The parsed form is already in hand — trust it instead of re-decoding.
  artifact.cert = cert;
  artifact.parsed_ = true;
  return artifact;
}

Artifact Artifact::crl_list(std::string id, util::Bytes der, Context ctx) {
  Artifact artifact =
      deferred(ArtifactKind::kCrl, std::move(id), std::move(der), ctx);
  artifact.parse();
  return artifact;
}

Artifact Artifact::ocsp_response(std::string id, util::Bytes der, Context ctx) {
  Artifact artifact = deferred(ArtifactKind::kOcspResponse, std::move(id),
                               std::move(der), ctx);
  artifact.parse();
  return artifact;
}

Artifact Artifact::crl_ocsp_pair(std::string id, util::Bytes ocsp_der,
                                 const crl::Crl& crl, Context ctx) {
  ctx.crl = &crl;
  Artifact artifact = deferred(ArtifactKind::kCrlOcspPair, std::move(id),
                               std::move(ocsp_der), ctx);
  artifact.parse();
  return artifact;
}

// ---------------------------------------------------------------------------
// RuleRegistry
// ---------------------------------------------------------------------------

void RuleRegistry::add(Rule rule) {
  if (by_id_.count(rule.info.id) > 0) {
    throw std::logic_error("RuleRegistry: duplicate rule id " + rule.info.id);
  }
  by_id_.emplace(rule.info.id, rules_.size());
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::by_id(std::string_view id) const {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &rules_[it->second];
}

std::vector<const Rule*> RuleRegistry::by_severity(Severity severity) const {
  std::vector<const Rule*> out;
  for (const Rule& rule : rules_) {
    if (rule.info.severity == severity) out.push_back(&rule);
  }
  return out;
}

std::vector<const Rule*> RuleRegistry::by_kind(ArtifactKind kind) const {
  std::vector<const Rule*> out;
  for (const Rule& rule : rules_) {
    if (rule.info.kind == kind) out.push_back(&rule);
  }
  return out;
}

std::vector<Finding> lint_artifact(const RuleRegistry& registry,
                                   const Artifact& artifact) {
  std::vector<Finding> findings;
  std::vector<std::string> messages;
  for (const Rule& rule : registry.rules()) {
    const bool kind_match =
        rule.info.kind == artifact.kind ||
        (artifact.kind == ArtifactKind::kCrlOcspPair &&
         rule.info.kind == ArtifactKind::kOcspResponse);
    if (!kind_match) continue;
    if (rule.applies && !rule.applies(artifact)) continue;
    messages.clear();
    rule.check(artifact, messages);
    for (std::string& message : messages) {
      findings.push_back(Finding{rule.info.id, rule.info.severity, artifact.id,
                                 std::move(message)});
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// LintReport
// ---------------------------------------------------------------------------

void LintReport::add(const std::vector<Finding>& findings) {
  ++artifacts_;
  MUSTAPLE_COUNT("mustaple_lint_artifacts_total");
  for (const Finding& finding : findings) {
    ++by_severity_[static_cast<std::size_t>(finding.severity)];
    ++by_rule_[finding.rule_id];
    MUSTAPLE_COUNT_ENUM("mustaple_lint_findings_total", "severity",
                        finding.severity, kSeverityCount,
                        to_string(finding.severity));
    if (findings_.size() < finding_capacity_) {
      findings_.push_back(finding);
    } else {
      ++dropped_;
    }
  }
}

void LintReport::merge(const LintReport& other) {
  artifacts_ += other.artifacts_;
  for (std::size_t s = 0; s < kSeverityCount; ++s) {
    by_severity_[s] += other.by_severity_[s];
  }
  for (const auto& [rule, n] : other.by_rule_) by_rule_[rule] += n;
  for (const Finding& finding : other.findings_) {
    if (findings_.size() < finding_capacity_) {
      findings_.push_back(finding);
    } else {
      ++dropped_;
    }
  }
  dropped_ += other.dropped_;
}

std::uint64_t LintReport::total_findings() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_severity_) total += n;
  return total;
}

std::uint64_t LintReport::count(std::string_view rule_id) const {
  const auto it = by_rule_.find(std::string(rule_id));
  return it == by_rule_.end() ? 0 : it->second;
}

namespace {

void json_escape(std::ostringstream& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << util::format(
              "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::string LintReport::render_json() const {
  std::ostringstream out;
  out << "{\"artifacts\":" << artifacts_
      << ",\"findings_total\":" << total_findings() << ",\"by_severity\":{";
  for (std::size_t s = 0; s < kSeverityCount; ++s) {
    if (s > 0) out << ",";
    out << "\"" << to_string(static_cast<Severity>(s))
        << "\":" << by_severity_[s];
  }
  out << "},\"by_rule\":{";
  bool first = true;
  for (const auto& [rule, n] : by_rule_) {
    if (!first) out << ",";
    first = false;
    out << "\"";
    json_escape(out, rule);
    out << "\":" << n;
  }
  out << "},\"dropped\":" << dropped_ << ",\"findings\":[";
  first = true;
  for (const Finding& finding : findings_) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"";
    json_escape(out, finding.rule_id);
    out << "\",\"severity\":\"" << to_string(finding.severity)
        << "\",\"artifact\":\"";
    json_escape(out, finding.artifact);
    out << "\",\"message\":\"";
    json_escape(out, finding.message);
    out << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string LintReport::render_csv(const RuleRegistry& registry) const {
  std::ostringstream out;
  out << "rule,severity,citation,count\n";
  for (const Rule& rule : registry.rules()) {
    out << rule.info.id << "," << to_string(rule.info.severity) << ","
        << rule.info.citation << "," << count(rule.info.id) << "\n";
  }
  // Findings from rules the registry doesn't know (custom registries merged
  // in) still surface, after the catalog.
  for (const auto& [rule, n] : by_rule_) {
    if (registry.by_id(rule) == nullptr) {
      out << rule << ",?,?," << n << "\n";
    }
  }
  return out.str();
}

std::string LintReport::summary() const {
  return util::format(
      "%llu artifacts, %llu findings (%llu info, %llu warn, %llu error, "
      "%llu fatal)",
      static_cast<unsigned long long>(artifacts_),
      static_cast<unsigned long long>(total_findings()),
      static_cast<unsigned long long>(count(Severity::kInfo)),
      static_cast<unsigned long long>(count(Severity::kWarn)),
      static_cast<unsigned long long>(count(Severity::kError)),
      static_cast<unsigned long long>(count(Severity::kFatal)));
}

// ---------------------------------------------------------------------------
// Batch runner
// ---------------------------------------------------------------------------

LintReport run_batch(const RuleRegistry& registry,
                     std::vector<Artifact>& artifacts, std::size_t threads,
                     std::size_t finding_capacity) {
  OBS_PROF_SCOPE("lint.batch");
  const std::size_t thread_count =
      threads > 0 ? threads : util::ThreadPool::env_threads(1);
  util::ThreadPool pool(thread_count);

  // Phase 1 (parallel): parse + rule evaluation into canonical slots.
  // Phase 2 (sequential): merge in index order — report bytes never depend
  // on scheduling (same discipline as DESIGN.md §7).
  std::vector<std::vector<Finding>> slots(artifacts.size());
  pool.parallel_for_index(artifacts.size(), [&](std::size_t i) {
    artifacts[i].parse();
    slots[i] = lint_artifact(registry, artifacts[i]);
  });

  LintReport report(finding_capacity);
  for (const auto& findings : slots) report.add(findings);
  MUSTAPLE_LOG_DEBUG("lint", "batch complete",
                     obs::field("artifacts", artifacts.size()),
                     obs::field("findings", report.total_findings()),
                     obs::field("threads", pool.threads()));
  return report;
}

}  // namespace mustaple::lint
