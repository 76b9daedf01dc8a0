#include "sched/policy_factory.hpp"

#include <charconv>
#include <sstream>

#include "sched/fcfs.hpp"
#include "util/check.hpp"

namespace sps::sched {

namespace {

/// "name" / "name:param" split; `param` is empty without a colon.
struct Token {
  std::string name;
  std::string param;
  bool hasParam;
};

Token splitToken(const std::string& token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string::npos) return {token, "", false};
  return {token.substr(0, colon), token.substr(colon + 1), true};
}

/// A parameterised name given bare ("ss" for "ss:2") is refused with the
/// form it takes.
void requireParam(const Token& t, const char* form) {
  if (!t.hasParam)
    throw InputError("policy token '" + t.name + "' needs a parameter: " +
                     form);
}

double parseFactor(const std::string& token, const std::string& param) {
  std::istringstream is(param);
  double value = 0.0;
  if (!(is >> value) || !is.eof() || value <= 0.0)
    throw InputError("bad parameter in policy token '" + token + "'");
  return value;
}

/// A reservation depth: a whole positive number, as `--depth K` reads it
/// ("2.5" is refused, not truncated).
std::size_t parseDepth(const std::string& token, const std::string& param) {
  std::size_t value = 0;
  const char* const end = param.data() + param.size();
  const auto [ptr, ec] = std::from_chars(param.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0)
    throw InputError("bad parameter in policy token '" + token +
                     "': expected depth:K (K >= 1) or depth:inf");
  return value;
}

}  // namespace

const char* policyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Fcfs: return "FCFS";
    case PolicyKind::Easy: return "EASY";
    case PolicyKind::SelectiveSuspension: return "SelectiveSuspension";
    case PolicyKind::ImmediateService: return "ImmediateService";
    case PolicyKind::Gang: return "Gang";
    case PolicyKind::DepthBackfill: return "DepthBackfill";
  }
  return "?";
}

std::unique_ptr<sim::SchedulingPolicy> makePolicy(const PolicySpec& spec) {
  switch (spec.kind) {
    case PolicyKind::Fcfs:
      return std::make_unique<FcfsScheduler>();
    case PolicyKind::Easy:
      return std::make_unique<EasyBackfill>(spec.easy);
    case PolicyKind::SelectiveSuspension:
      return std::make_unique<SelectiveSuspension>(spec.ss);
    case PolicyKind::ImmediateService:
      return std::make_unique<ImmediateService>(spec.is);
    case PolicyKind::Gang:
      return std::make_unique<GangScheduler>(spec.gang);
    case PolicyKind::DepthBackfill:
      return std::make_unique<DepthBackfill>(spec.depth);
  }
  SPS_CHECK_MSG(false, "unknown policy kind");
  return nullptr;  // unreachable
}

std::string policyLabel(const PolicySpec& spec) {
  if (!spec.label.empty()) return spec.label;
  return makePolicy(spec)->name();
}

PolicySpec specFromToken(const std::string& token) {
  const Token t = splitToken(token);
  const std::string& name = t.name;
  const std::string& param = t.param;
  PolicySpec spec;
  spec.label = token;
  if (name == "conservative") {
    spec.kind = PolicyKind::DepthBackfill;
    spec.depth.depth = kUnlimitedDepth;
  } else if (name == "easy") {
    spec.kind = PolicyKind::Easy;
  } else if (name == "sjf") {
    spec.kind = PolicyKind::Easy;
    spec.easy.order = QueueOrder::ShortestFirst;
  } else if (name == "fcfs") {
    spec.kind = PolicyKind::Fcfs;
  } else if (name == "gang") {
    spec.kind = PolicyKind::Gang;
  } else if (name == "is") {
    spec.kind = PolicyKind::ImmediateService;
  } else if (name == "depth") {
    requireParam(t, "depth:K or depth:inf");
    spec.kind = PolicyKind::DepthBackfill;
    spec.depth.depth =
        param == "inf" ? kUnlimitedDepth : parseDepth(token, param);
  } else if (name == "ss") {
    requireParam(t, "ss:SF");
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.suspensionFactor = parseFactor(token, param);
  } else if (name == "tss") {
    // Per-category limits are supplied by the caller (calibrated against
    // the target trace); the token only fixes the suspension factor.
    requireParam(t, "tss:SF");
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.suspensionFactor = parseFactor(token, param);
  } else if (name == "tss-online") {
    requireParam(t, "tss-online:M");
    spec.kind = PolicyKind::SelectiveSuspension;
    spec.ss.tssOnlineMultiplier = parseFactor(token, param);
  } else {
    throw InputError("unknown policy token: '" + token + "'");
  }
  if (t.hasParam && name != "depth" &&
      spec.kind != PolicyKind::SelectiveSuspension)
    throw InputError("policy token '" + token + "': " + name +
                     " takes no parameter");
  return spec;
}

std::vector<std::string> knownPolicyTokens() {
  // "depth:inf" is "conservative" and is not listed twice.
  return {"fcfs", "conservative", "easy",   "sjf",          "depth:2",
          "ss:2", "ss:1.5",       "tss:2",  "tss-online:2", "is",
          "gang"};
}

PolicySpec withKernelMode(PolicySpec spec, kernel::KernelMode mode) {
  spec.easy.kernelMode = mode;
  spec.depth.kernelMode = mode;
  spec.ss.kernelMode = mode;
  return spec;
}

}  // namespace sps::sched
