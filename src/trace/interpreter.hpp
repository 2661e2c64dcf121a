// CFG interpreter: executes a lowered MiniC module on a test-case input
// stream, emitting the call-event trace a strace/ltrace monitor would see.
// Data-dependent branching on input() values gives each test case its own
// path through the program — the source of trace diversity the detection
// models train on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "src/cfg/cfg.hpp"
#include "src/trace/coverage.hpp"
#include "src/trace/event.hpp"
#include "src/util/rng.hpp"

namespace cmarkov::trace {

/// Supplies return values of external (sys/lib) calls — the world the
/// program talks to.
class ExternalEnvironment {
 public:
  virtual ~ExternalEnvironment() = default;
  virtual std::int64_t on_external_call(ir::CallKind kind,
                                        const std::string& name,
                                        std::span<const std::int64_t> args) = 0;
};

/// Deterministic pseudo-random environment (seeded per test case).
class SeededEnvironment final : public ExternalEnvironment {
 public:
  explicit SeededEnvironment(std::uint64_t seed, std::int64_t max_value = 16)
      : rng_(seed), max_value_(max_value) {}

  std::int64_t on_external_call(ir::CallKind, const std::string&,
                                std::span<const std::int64_t>) override {
    return rng_.uniform_int(0, max_value_);
  }

 private:
  Rng rng_;
  std::int64_t max_value_;
};

struct RunResult {
  Trace trace;
  bool completed = false;     ///< reached a normal return from the entry fn
  bool hit_step_limit = false;
  bool hit_depth_limit = false;
  std::int64_t exit_value = 0;
  std::size_t steps = 0;
};

/// A run stops (hit_step_limit) after this many executed steps.
inline constexpr std::size_t kMaxInterpreterSteps = 2'000'000;
/// An internal call that would push a frame beyond this depth yields 0
/// instead (hit_depth_limit) and the run continues.
inline constexpr std::size_t kMaxCallDepth = 256;

/// Executes the module's entry function.
///
/// Semantics: 64-bit signed integers; x/0 == x%0 == 0; comparisons yield
/// 0/1; &&, || are strict ("both operands evaluated", matching lowering);
/// input() yields 0 once the input stream is exhausted.
class Interpreter {
 public:
  explicit Interpreter(const cfg::ModuleCfg& module);

  /// Runs one test case. `coverage` may be null.
  RunResult run(std::span<const std::int64_t> inputs,
                ExternalEnvironment& environment,
                CoverageTracker* coverage = nullptr) const;

 private:
  const cfg::ModuleCfg& module_;
  std::map<std::string, std::size_t> fn_index_;
};

}  // namespace cmarkov::trace
