// Abstract syntax tree for MiniC. Expression and statement nodes are
// std::variant alternatives wrapped in owning node structs, so consumers
// pattern-match with std::visit instead of a visitor hierarchy.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace cmarkov::ir {

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

enum class UnaryOp { kNeg, kNot };

/// Which external trace stream a call belongs to. Mirrors the paper's two
/// model families: syscall models (strace view) and libcall models (ltrace
/// view).
enum class CallKind { kSyscall, kLibcall };

std::string binary_op_name(BinaryOp op);
std::string call_kind_name(CallKind kind);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct IntLiteral {
  std::int64_t value = 0;
};

struct VarRef {
  std::string name;
};

struct BinaryExpr {
  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct UnaryExpr {
  UnaryOp op;
  ExprPtr operand;
};

/// sys("name") or lib("name"): an observable external call. The value it
/// evaluates to comes from the interpreter's external environment.
struct ExternalCallExpr {
  CallKind kind;
  std::string name;
  std::vector<ExprPtr> args;
};

/// Call to another MiniC function.
struct InternalCallExpr {
  std::string callee;
  std::vector<ExprPtr> args;
};

/// input(): next value of the test-case input stream.
struct InputExpr {};

struct Expr {
  std::variant<IntLiteral, VarRef, BinaryExpr, UnaryExpr, ExternalCallExpr,
               InternalCallExpr, InputExpr>
      node;
  int line = 0;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct BlockStmt {
  std::vector<StmtPtr> statements;
};

struct VarDeclStmt {
  std::string name;
  ExprPtr init;  // may be null (defaults to 0)
};

struct AssignStmt {
  std::string name;
  ExprPtr value;
};

struct IfStmt {
  ExprPtr condition;
  BlockStmt then_block;
  std::optional<BlockStmt> else_block;
};

struct WhileStmt {
  ExprPtr condition;
  BlockStmt body;
};

struct ReturnStmt {
  ExprPtr value;  // may be null (returns 0)
};

struct ExprStmt {
  ExprPtr expr;
};

struct Stmt {
  std::variant<VarDeclStmt, AssignStmt, IfStmt, WhileStmt, ReturnStmt,
               ExprStmt>
      node;
  int line = 0;
};

struct Function {
  std::string name;
  std::vector<std::string> params;
  BlockStmt body;
  int line = 0;
};

/// A whole MiniC translation unit.
struct Program {
  std::vector<Function> functions;
};

// --- Construction helpers (shared by the parser and the programmatic
// builder; every helper allocates an owning node) ---

ExprPtr make_int(std::int64_t value, int line = 0);
ExprPtr make_var(std::string name, int line = 0);
ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs, int line = 0);
ExprPtr make_unary(UnaryOp op, ExprPtr operand, int line = 0);
ExprPtr make_external_call(CallKind kind, std::string name,
                           std::vector<ExprPtr> args = {}, int line = 0);
ExprPtr make_internal_call(std::string callee, std::vector<ExprPtr> args = {},
                           int line = 0);
ExprPtr make_input(int line = 0);

StmtPtr make_var_decl(std::string name, ExprPtr init, int line = 0);
StmtPtr make_assign(std::string name, ExprPtr value, int line = 0);
StmtPtr make_if(ExprPtr condition, BlockStmt then_block,
                std::optional<BlockStmt> else_block = std::nullopt,
                int line = 0);
StmtPtr make_while(ExprPtr condition, BlockStmt body, int line = 0);
StmtPtr make_return(ExprPtr value, int line = 0);
StmtPtr make_expr_stmt(ExprPtr expr, int line = 0);

/// Deep copies (AST nodes are move-only otherwise).
ExprPtr clone(const Expr& expr);
StmtPtr clone(const Stmt& stmt);
BlockStmt clone(const BlockStmt& block);

/// Pretty-prints a program back to MiniC source (round-trippable through
/// the parser; used by tests and the DOT/debug tooling).
std::string to_source(const Program& program);
std::string to_source(const Function& function);

}  // namespace cmarkov::ir
