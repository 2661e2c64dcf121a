// Context-sensitive call symbols and the labeled sparse matrix that stores
// call-transition probabilities (Definition 5).
//
// A symbol is one row/column of a call-transition matrix:
//   kExternal  — an observable sys/lib call, carrying its 1-level calling
//                context ("read@f"); context may be empty in the
//                context-insensitive (STILO) projection.
//   kInternal  — a call to a MiniC function, a placeholder that aggregation
//                resolves away by inlining the callee's matrix.
//   kEntry/kExit — virtual begin/end of a function (or of the program after
//                aggregation); they carry entry→first-call, last-call→exit
//                and silent pass-through probabilities, which is what makes
//                callee inlining compositional.
#pragma once

#include <compare>
#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/ast.hpp"

namespace cmarkov::analysis {

struct CallSymbol {
  enum class Kind { kEntry, kExit, kExternal, kInternal };

  Kind kind = Kind::kExternal;
  /// Trace stream of an external call; ignored for other kinds.
  ir::CallKind call_kind = ir::CallKind::kSyscall;
  /// Call name (external), callee function (internal), or owning function
  /// (entry/exit).
  std::string name;
  /// Immediate caller function; empty for entry/exit and for
  /// context-insensitive symbols.
  std::string context;

  auto operator<=>(const CallSymbol&) const = default;

  /// "read@f" for externals with context, "read" without; "ENTRY"/"EXIT";
  /// "<fn>" for internals.
  std::string to_string() const;

  static CallSymbol entry(std::string function = {});
  static CallSymbol exit(std::string function = {});
  static CallSymbol external(ir::CallKind kind, std::string name,
                             std::string context);
  static CallSymbol internal(std::string callee);

  /// Copy with the context field cleared (STILO projection).
  CallSymbol without_context() const;
};

/// Which external calls a model observes. The paper trains separate HMMs on
/// strace (syscall) and ltrace (libcall) streams.
enum class CallFilter { kSyscalls, kLibcalls, kAll };

/// True if an external call of `kind` is visible under `filter`.
bool filter_matches(CallFilter filter, ir::CallKind kind);

std::string call_filter_name(CallFilter filter);

/// Sparse labeled matrix of call-transition probabilities. Cell (a, b) is
/// the expected number of "call a, then next call b" events per invocation
/// (Definition 5 extended with virtual entry/exit rows).
class CallTransitionMatrix {
 public:
  /// Adds a symbol if absent; returns its index either way.
  std::size_t add_symbol(const CallSymbol& symbol);

  /// Index of a present symbol; throws std::out_of_range if absent.
  std::size_t index_of(const CallSymbol& symbol) const;

  bool contains(const CallSymbol& symbol) const;

  std::size_t size() const { return symbols_.size(); }

  const CallSymbol& symbol(std::size_t index) const;
  const std::vector<CallSymbol>& symbols() const { return symbols_; }

  /// Probability for a cell, 0 when unset.
  double prob(std::size_t from, std::size_t to) const;
  double prob(const CallSymbol& from, const CallSymbol& to) const;

  /// Accumulates into a cell.
  void add_prob(std::size_t from, std::size_t to, double delta);

  /// Overwrites a cell.
  void set_prob(std::size_t from, std::size_t to, double value);

  /// Sparse row access: unordered (index, probability) pairs.
  const std::unordered_map<std::size_t, double>& row(std::size_t from) const;

  /// Sum of a row / column.
  double row_sum(std::size_t from) const;
  double col_sum(std::size_t to) const;

  /// Indices of external-call symbols, in symbol order.
  std::vector<std::size_t> external_indices() const;

  /// Number of non-zero cells.
  std::size_t nonzero_count() const;

  /// Multi-line debug rendering of non-zero cells.
  std::string to_string() const;

 private:
  std::vector<CallSymbol> symbols_;
  std::map<CallSymbol, std::size_t> index_;
  std::vector<std::unordered_map<std::size_t, double>> rows_;
};

/// Merges contexts away: every external symbol keeps only its call name,
/// probabilities of merged symbols are summed. Entry/exit and internal
/// symbols are preserved as-is. This turns a CMarkov matrix into the STILO
/// (context-insensitive) matrix.
CallTransitionMatrix project_context_insensitive(
    const CallTransitionMatrix& matrix);

}  // namespace cmarkov::analysis
