#include "src/trace/interpreter.hpp"

#include <stdexcept>

namespace cmarkov::trace {

namespace {

std::int64_t apply_binary(ir::BinaryOp op, std::int64_t a, std::int64_t b) {
  switch (op) {
    case ir::BinaryOp::kAdd: return a + b;
    case ir::BinaryOp::kSub: return a - b;
    case ir::BinaryOp::kMul: return a * b;
    case ir::BinaryOp::kDiv: return b == 0 ? 0 : a / b;
    case ir::BinaryOp::kMod: return b == 0 ? 0 : a % b;
    case ir::BinaryOp::kLt: return a < b ? 1 : 0;
    case ir::BinaryOp::kLe: return a <= b ? 1 : 0;
    case ir::BinaryOp::kGt: return a > b ? 1 : 0;
    case ir::BinaryOp::kGe: return a >= b ? 1 : 0;
    case ir::BinaryOp::kEq: return a == b ? 1 : 0;
    case ir::BinaryOp::kNe: return a != b ? 1 : 0;
    case ir::BinaryOp::kAnd: return (a != 0 && b != 0) ? 1 : 0;
    case ir::BinaryOp::kOr: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

struct Frame {
  const cfg::FunctionCfg* function = nullptr;
  cfg::BlockId block = 0;
  std::size_t instr_index = 0;
  std::vector<std::int64_t> registers;
  /// Destination register in the caller for the return value.
  cfg::RegId return_dst = 0;
  bool has_return_dst = false;
  /// Address of the call site that created this frame (0 for the entry
  /// frame); recorded into events as the grandparent context.
  std::uint64_t call_site_address = 0;
};

}  // namespace

Interpreter::Interpreter(const cfg::ModuleCfg& module)
    : module_(module), fn_index_(module.index_by_name()) {}

RunResult Interpreter::run(std::span<const std::int64_t> inputs,
                           ExternalEnvironment& environment,
                           CoverageTracker* coverage) const {
  RunResult result;
  result.trace.program = module_.program_name;

  auto fn_it = fn_index_.find(module_.entry_point);
  if (fn_it == fn_index_.end()) {
    throw std::invalid_argument("Interpreter: entry point '" +
                                module_.entry_point + "' not found");
  }

  std::size_t input_pos = 0;
  auto next_input = [&]() -> std::int64_t {
    if (input_pos < inputs.size()) return inputs[input_pos++];
    return 0;
  };

  std::vector<Frame> stack;
  auto push_frame = [&](const cfg::FunctionCfg& fn,
                        std::span<const std::int64_t> args,
                        cfg::RegId return_dst, bool has_return_dst,
                        std::uint64_t call_site_address) {
    Frame frame;
    frame.function = &fn;
    frame.block = fn.entry;
    frame.registers.assign(fn.num_registers, 0);
    for (std::size_t i = 0; i < args.size() && i < fn.params.size(); ++i) {
      frame.registers[i] = args[i];
    }
    frame.return_dst = return_dst;
    frame.has_return_dst = has_return_dst;
    frame.call_site_address = call_site_address;
    stack.push_back(std::move(frame));
    if (coverage != nullptr) coverage->on_block(fn.name, fn.entry);
  };

  push_frame(module_.functions[fn_it->second], {}, 0, false, 0);

  auto do_return = [&](std::int64_t value) {
    const bool has_dst = stack.back().has_return_dst;
    const cfg::RegId dst = stack.back().return_dst;
    stack.pop_back();
    if (stack.empty()) {
      result.completed = true;
      result.exit_value = value;
      return;
    }
    if (has_dst) stack.back().registers[dst] = value;
  };

  while (!stack.empty()) {
    if (++result.steps > kMaxInterpreterSteps) {
      result.hit_step_limit = true;
      break;
    }
    Frame& frame = stack.back();
    const cfg::FunctionCfg& fn = *frame.function;
    const cfg::BasicBlock& block = fn.block(frame.block);

    if (frame.instr_index < block.instructions.size()) {
      const cfg::Instr& instr = block.instructions[frame.instr_index++];
      auto& regs = frame.registers;
      bool frame_changed = false;
      std::visit(
          [&](const auto& op) {
            using T = std::decay_t<decltype(op)>;
            if constexpr (std::is_same_v<T, cfg::ConstInstr>) {
              regs[op.dst] = op.value;
            } else if constexpr (std::is_same_v<T, cfg::MoveInstr>) {
              regs[op.dst] = regs[op.src];
            } else if constexpr (std::is_same_v<T, cfg::BinInstr>) {
              regs[op.dst] = apply_binary(op.op, regs[op.lhs], regs[op.rhs]);
            } else if constexpr (std::is_same_v<T, cfg::UnInstr>) {
              regs[op.dst] = op.op == ir::UnaryOp::kNeg
                                 ? -regs[op.src]
                                 : (regs[op.src] == 0 ? 1 : 0);
            } else if constexpr (std::is_same_v<T, cfg::InputInstr>) {
              regs[op.dst] = next_input();
            } else if constexpr (std::is_same_v<T, cfg::ExternalCallInstr>) {
              std::vector<std::int64_t> args;
              args.reserve(op.args.size());
              for (cfg::RegId r : op.args) args.push_back(regs[r]);
              CallEvent event;
              event.kind = op.kind;
              event.name = op.callee;
              event.site_address = op.address;
              event.grandparent_address = frame.call_site_address;
              result.trace.events.push_back(std::move(event));
              regs[op.dst] =
                  environment.on_external_call(op.kind, op.callee, args);
            } else if constexpr (std::is_same_v<T, cfg::InternalCallInstr>) {
              if (stack.size() >= kMaxCallDepth) {
                result.hit_depth_limit = true;
                regs[op.dst] = 0;  // treat as failed call; keep running
                return;
              }
              auto callee_it = fn_index_.find(op.callee);
              if (callee_it == fn_index_.end()) {
                throw std::invalid_argument("Interpreter: unknown callee '" +
                                            op.callee + "'");
              }
              std::vector<std::int64_t> args;
              args.reserve(op.args.size());
              for (cfg::RegId r : op.args) args.push_back(regs[r]);
              push_frame(module_.functions[callee_it->second], args, op.dst,
                         true, op.address);
              frame_changed = true;
            }
          },
          instr);
      if (frame_changed) continue;
      continue;
    }

    // Block instructions exhausted: apply the terminator.
    const cfg::Terminator& term = block.terminator;
    if (const auto* jump = std::get_if<cfg::JumpTerm>(&term)) {
      frame.block = jump->target;
      frame.instr_index = 0;
      if (coverage != nullptr) coverage->on_block(fn.name, frame.block);
    } else if (const auto* branch = std::get_if<cfg::BranchTerm>(&term)) {
      const bool taken = frame.registers[branch->condition] != 0;
      if (coverage != nullptr) coverage->on_branch(fn.name, frame.block, taken);
      frame.block = taken ? branch->if_true : branch->if_false;
      frame.instr_index = 0;
      if (coverage != nullptr) coverage->on_block(fn.name, frame.block);
    } else {
      const auto& ret = std::get<cfg::ReturnTerm>(term);
      const std::int64_t value =
          ret.value.has_value() ? frame.registers[*ret.value] : 0;
      do_return(value);
    }
  }
  return result;
}

}  // namespace cmarkov::trace
