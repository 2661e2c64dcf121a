// ROP-style attack trace construction (Section V-D). A code-reuse chain
// invokes legitimate call names, but each call is issued from a gadget
// address — inside some unrelated function of the image (wrong caller
// context) or outside every function (missing context). After the
// symbolizer runs, such events carry caller names the program's model never
// associated with the call, which is exactly what context-sensitive
// detection keys on (the paper's q1/q2 experiment).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/cfg/cfg.hpp"
#include "src/ir/ast.hpp"
#include "src/trace/event.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::attack {

/// One call the attacker wants to make: (stream, name).
using PlannedCall = std::pair<ir::CallKind, std::string>;

struct RopChainOptions {
  /// Fraction of calls the chain routes through a genuine call site of the
  /// same name (payload stages that call through the program's own PLT
  /// wrappers — these observe a legitimate context). Keeps the
  /// abnormal-context share of exploit traces in the paper's 30-90% band.
  double reuse_legitimate_site_fraction = 0.25;
};

/// Builds an unsymbolized attack trace for the planned calls, assigning
/// each event a gadget address per the options. Of the gadgets not routed
/// through a genuine site, 75% land inside a mapped function; the rest
/// fall outside the image and symbolize to "?". Run a Symbolizer over the
/// result to obtain the attacker-visible contexts.
trace::Trace build_rop_trace(const cfg::ModuleCfg& module,
                             const std::vector<PlannedCall>& calls, Rng& rng,
                             const RopChainOptions& options = {});

/// The paper's q1 segment reproduced against gzip (uname/brk/rt_sigaction
/// prologue mimicry followed by file tampering).
std::vector<PlannedCall> gzip_rop_q1();

/// The paper's q2 segment (sigaction/stat/openat/getdents directory sweep).
std::vector<PlannedCall> gzip_rop_q2();

/// A classic code-injection syscall chain (shellcode behaviour): mprotect
/// the stack, dup the descriptors, execve a shell.
std::vector<PlannedCall> syscall_chain_payload();

/// Builds the strongest code-reuse mimicry against a flow-sensitive model:
/// the call-NAME sequence is copied verbatim from a window of a recorded
/// normal trace, so a context-insensitive model sees a benign n-gram; only
/// the gadget-derived caller contexts differ (the q1/q2 experiment of
/// Section V-D). Throws if the filtered trace is shorter than
/// start + length.
std::vector<PlannedCall> mimic_chain_from_trace(const trace::Trace& normal,
                                                analysis::CallFilter filter,
                                                std::size_t length,
                                                std::size_t start = 0);

}  // namespace cmarkov::attack
