#include "src/attack/rop_chain.hpp"

#include <map>

namespace cmarkov::attack {

namespace {

/// Fraction of gadget addresses that land inside a mapped function.
constexpr double kMappedGadgetFraction = 0.75;

}  // namespace

trace::Trace build_rop_trace(const cfg::ModuleCfg& module,
                             const std::vector<PlannedCall>& calls, Rng& rng,
                             const RopChainOptions& options) {
  trace::Trace out;
  out.program = module.program_name + ":rop";

  // Address pool: every function's code range, plus an unmapped region
  // beyond the image for "missing context" gadgets.
  std::uint64_t image_end = 0;
  for (const auto& fn : module.functions) {
    image_end = std::max(image_end, fn.end_address);
  }
  const std::uint64_t unmapped_base = image_end + 0x1000000;

  // Genuine call sites by (kind, name): payload stages issued through the
  // program's own wrappers observe these legitimate addresses.
  std::map<std::pair<ir::CallKind, std::string>, std::vector<std::uint64_t>>
      real_sites;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) {
      if (const auto* call = block.external_call()) {
        real_sites[{call->kind, call->callee}].push_back(call->address);
      }
    }
  }

  for (const auto& [kind, name] : calls) {
    trace::CallEvent event;
    event.kind = kind;
    event.name = name;
    auto sites = real_sites.find({kind, name});
    if (sites != real_sites.end() &&
        rng.chance(options.reuse_legitimate_site_fraction)) {
      event.site_address = sites->second[rng.index(sites->second.size())];
    } else if (!module.functions.empty() &&
               rng.chance(kMappedGadgetFraction)) {
      // Gadget inside a random function: a wrong-but-plausible caller.
      const auto& fn = module.functions[rng.index(module.functions.size())];
      const std::uint64_t span =
          std::max<std::uint64_t>(fn.end_address - fn.base_address, 1);
      event.site_address =
          fn.base_address + static_cast<std::uint64_t>(rng.index(span));
    } else {
      // Gadget outside every function: symbolizes to "?".
      event.site_address =
          unmapped_base + static_cast<std::uint64_t>(rng.index(0x10000));
    }
    out.events.push_back(std::move(event));
  }
  return out;
}

namespace {

std::vector<PlannedCall> sys_calls(std::initializer_list<const char*> names) {
  std::vector<PlannedCall> out;
  for (const char* name : names) {
    out.emplace_back(ir::CallKind::kSyscall, name);
  }
  return out;
}

}  // namespace

std::vector<PlannedCall> gzip_rop_q1() {
  return sys_calls({"uname", "brk", "brk", "brk", "rt_sigaction",
                    "rt_sigaction", "rt_sigaction", "rt_sigaction",
                    "rt_sigaction", "rt_sigaction", "read", "close", "close",
                    "unlink", "chmod"});
}

std::vector<PlannedCall> gzip_rop_q2() {
  return sys_calls({"brk", "rt_sigaction", "rt_sigaction", "rt_sigaction",
                    "rt_sigaction", "rt_sigaction", "rt_sigaction",
                    "rt_sigaction", "sigaction", "sigaction", "stat",
                    "openat", "getdents", "close", "write", "read", "write",
                    "write"});
}

std::vector<PlannedCall> syscall_chain_payload() {
  return sys_calls({"mprotect", "read", "dup2", "dup2", "dup2", "execve"});
}

std::vector<PlannedCall> mimic_chain_from_trace(const trace::Trace& normal,
                                                analysis::CallFilter filter,
                                                std::size_t length,
                                                std::size_t start) {
  std::vector<PlannedCall> filtered;
  for (const auto& event : normal.events) {
    if (analysis::filter_matches(filter, event.kind)) {
      filtered.emplace_back(event.kind, event.name);
    }
  }
  if (filtered.size() < start + length) {
    throw std::invalid_argument(
        "mimic_chain_from_trace: trace too short for requested window");
  }
  return {filtered.begin() + static_cast<std::ptrdiff_t>(start),
          filtered.begin() + static_cast<std::ptrdiff_t>(start + length)};
}

}  // namespace cmarkov::attack
