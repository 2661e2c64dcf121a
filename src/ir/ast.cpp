#include "src/ir/ast.hpp"

#include <sstream>

namespace cmarkov::ir {

std::string binary_op_name(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
  }
  return "?";
}

std::string call_kind_name(CallKind kind) {
  return kind == CallKind::kSyscall ? "sys" : "lib";
}

ExprPtr make_int(std::int64_t value, int line) {
  auto e = std::make_unique<Expr>();
  e->node = IntLiteral{value};
  e->line = line;
  return e;
}

ExprPtr make_var(std::string name, int line) {
  auto e = std::make_unique<Expr>();
  e->node = VarRef{std::move(name)};
  e->line = line;
  return e;
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, int line) {
  auto e = std::make_unique<Expr>();
  e->node = BinaryExpr{op, std::move(lhs), std::move(rhs)};
  e->line = line;
  return e;
}

ExprPtr make_unary(UnaryOp op, ExprPtr operand, int line) {
  auto e = std::make_unique<Expr>();
  e->node = UnaryExpr{op, std::move(operand)};
  e->line = line;
  return e;
}

ExprPtr make_external_call(CallKind kind, std::string name,
                           std::vector<ExprPtr> args, int line) {
  auto e = std::make_unique<Expr>();
  e->node = ExternalCallExpr{kind, std::move(name), std::move(args)};
  e->line = line;
  return e;
}

ExprPtr make_internal_call(std::string callee, std::vector<ExprPtr> args,
                           int line) {
  auto e = std::make_unique<Expr>();
  e->node = InternalCallExpr{std::move(callee), std::move(args)};
  e->line = line;
  return e;
}

ExprPtr make_input(int line) {
  auto e = std::make_unique<Expr>();
  e->node = InputExpr{};
  e->line = line;
  return e;
}

StmtPtr make_var_decl(std::string name, ExprPtr init, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = VarDeclStmt{std::move(name), std::move(init)};
  s->line = line;
  return s;
}

StmtPtr make_assign(std::string name, ExprPtr value, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = AssignStmt{std::move(name), std::move(value)};
  s->line = line;
  return s;
}

StmtPtr make_if(ExprPtr condition, BlockStmt then_block,
                std::optional<BlockStmt> else_block, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = IfStmt{std::move(condition), std::move(then_block),
                   std::move(else_block)};
  s->line = line;
  return s;
}

StmtPtr make_while(ExprPtr condition, BlockStmt body, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = WhileStmt{std::move(condition), std::move(body)};
  s->line = line;
  return s;
}

StmtPtr make_return(ExprPtr value, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = ReturnStmt{std::move(value)};
  s->line = line;
  return s;
}

StmtPtr make_expr_stmt(ExprPtr expr, int line) {
  auto s = std::make_unique<Stmt>();
  s->node = ExprStmt{std::move(expr)};
  s->line = line;
  return s;
}

namespace {

std::vector<ExprPtr> clone_args(const std::vector<ExprPtr>& args) {
  std::vector<ExprPtr> out;
  out.reserve(args.size());
  for (const auto& a : args) out.push_back(clone(*a));
  return out;
}

}  // namespace

ExprPtr clone(const Expr& expr) {
  auto out = std::make_unique<Expr>();
  out->line = expr.line;
  out->node = std::visit(
      [](const auto& node) -> decltype(out->node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, IntLiteral>) {
          return IntLiteral{node.value};
        } else if constexpr (std::is_same_v<T, VarRef>) {
          return VarRef{node.name};
        } else if constexpr (std::is_same_v<T, BinaryExpr>) {
          return BinaryExpr{node.op, clone(*node.lhs), clone(*node.rhs)};
        } else if constexpr (std::is_same_v<T, UnaryExpr>) {
          return UnaryExpr{node.op, clone(*node.operand)};
        } else if constexpr (std::is_same_v<T, ExternalCallExpr>) {
          return ExternalCallExpr{node.kind, node.name,
                                  clone_args(node.args)};
        } else if constexpr (std::is_same_v<T, InternalCallExpr>) {
          return InternalCallExpr{node.callee, clone_args(node.args)};
        } else {
          return InputExpr{};
        }
      },
      expr.node);
  return out;
}

BlockStmt clone(const BlockStmt& block) {
  BlockStmt out;
  out.statements.reserve(block.statements.size());
  for (const auto& s : block.statements) out.statements.push_back(clone(*s));
  return out;
}

StmtPtr clone(const Stmt& stmt) {
  auto out = std::make_unique<Stmt>();
  out->line = stmt.line;
  out->node = std::visit(
      [](const auto& node) -> decltype(out->node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, VarDeclStmt>) {
          return VarDeclStmt{node.name,
                             node.init ? clone(*node.init) : nullptr};
        } else if constexpr (std::is_same_v<T, AssignStmt>) {
          return AssignStmt{node.name, clone(*node.value)};
        } else if constexpr (std::is_same_v<T, IfStmt>) {
          std::optional<BlockStmt> else_block;
          if (node.else_block) else_block = clone(*node.else_block);
          return IfStmt{clone(*node.condition), clone(node.then_block),
                        std::move(else_block)};
        } else if constexpr (std::is_same_v<T, WhileStmt>) {
          return WhileStmt{clone(*node.condition), clone(node.body)};
        } else if constexpr (std::is_same_v<T, ReturnStmt>) {
          return ReturnStmt{node.value ? clone(*node.value) : nullptr};
        } else {
          return ExprStmt{clone(*node.expr)};
        }
      },
      stmt.node);
  return out;
}

namespace {

void print_expr(std::ostream& os, const Expr& expr);

void print_args(std::ostream& os, const std::vector<ExprPtr>& args) {
  os << "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ", ";
    print_expr(os, *args[i]);
  }
  os << ")";
}

void print_expr(std::ostream& os, const Expr& expr) {
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, IntLiteral>) {
          os << node.value;
        } else if constexpr (std::is_same_v<T, VarRef>) {
          os << node.name;
        } else if constexpr (std::is_same_v<T, BinaryExpr>) {
          os << "(";
          print_expr(os, *node.lhs);
          os << " " << binary_op_name(node.op) << " ";
          print_expr(os, *node.rhs);
          os << ")";
        } else if constexpr (std::is_same_v<T, UnaryExpr>) {
          os << (node.op == UnaryOp::kNeg ? "-" : "!");
          print_expr(os, *node.operand);
        } else if constexpr (std::is_same_v<T, ExternalCallExpr>) {
          os << call_kind_name(node.kind) << "(\"" << node.name << "\"";
          for (const auto& a : node.args) {
            os << ", ";
            print_expr(os, *a);
          }
          os << ")";
        } else if constexpr (std::is_same_v<T, InternalCallExpr>) {
          os << node.callee;
          print_args(os, node.args);
        } else {
          os << "input()";
        }
      },
      expr.node);
}

void print_block(std::ostream& os, const BlockStmt& block, int indent);

void print_stmt(std::ostream& os, const Stmt& stmt, int indent) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, VarDeclStmt>) {
          os << pad << "var " << node.name;
          if (node.init) {
            os << " = ";
            print_expr(os, *node.init);
          }
          os << ";\n";
        } else if constexpr (std::is_same_v<T, AssignStmt>) {
          os << pad << node.name << " = ";
          print_expr(os, *node.value);
          os << ";\n";
        } else if constexpr (std::is_same_v<T, IfStmt>) {
          os << pad << "if (";
          print_expr(os, *node.condition);
          os << ") {\n";
          print_block(os, node.then_block, indent + 1);
          os << pad << "}";
          if (node.else_block) {
            os << " else {\n";
            print_block(os, *node.else_block, indent + 1);
            os << pad << "}";
          }
          os << "\n";
        } else if constexpr (std::is_same_v<T, WhileStmt>) {
          os << pad << "while (";
          print_expr(os, *node.condition);
          os << ") {\n";
          print_block(os, node.body, indent + 1);
          os << pad << "}\n";
        } else if constexpr (std::is_same_v<T, ReturnStmt>) {
          os << pad << "return";
          if (node.value) {
            os << " ";
            print_expr(os, *node.value);
          }
          os << ";\n";
        } else {
          os << pad;
          print_expr(os, *node.expr);
          os << ";\n";
        }
      },
      stmt.node);
}

void print_block(std::ostream& os, const BlockStmt& block, int indent) {
  for (const auto& s : block.statements) print_stmt(os, *s, indent);
}

}  // namespace

std::string to_source(const Function& function) {
  std::ostringstream os;
  os << "fn " << function.name << "(";
  for (std::size_t i = 0; i < function.params.size(); ++i) {
    if (i > 0) os << ", ";
    os << function.params[i];
  }
  os << ") {\n";
  print_block(os, function.body, 1);
  os << "}\n";
  return os.str();
}

std::string to_source(const Program& program) {
  std::string out;
  for (const auto& fn : program.functions) {
    out += to_source(fn);
    out += "\n";
  }
  return out;
}

}  // namespace cmarkov::ir
