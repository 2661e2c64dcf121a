#include "src/analysis/context.hpp"

#include <sstream>
#include <stdexcept>

namespace cmarkov::analysis {

std::string CallSymbol::to_string() const {
  switch (kind) {
    case Kind::kEntry:
      return name.empty() ? "ENTRY" : "ENTRY(" + name + ")";
    case Kind::kExit:
      return name.empty() ? "EXIT" : "EXIT(" + name + ")";
    case Kind::kInternal:
      return "<" + name + ">";
    case Kind::kExternal:
      break;
  }
  std::string out = ir::call_kind_name(call_kind) + ":" + name;
  if (!context.empty()) out += "@" + context;
  return out;
}

CallSymbol CallSymbol::entry(std::string function) {
  CallSymbol s;
  s.kind = Kind::kEntry;
  s.name = std::move(function);
  return s;
}

CallSymbol CallSymbol::exit(std::string function) {
  CallSymbol s;
  s.kind = Kind::kExit;
  s.name = std::move(function);
  return s;
}

CallSymbol CallSymbol::external(ir::CallKind kind, std::string name,
                                std::string context) {
  CallSymbol s;
  s.kind = Kind::kExternal;
  s.call_kind = kind;
  s.name = std::move(name);
  s.context = std::move(context);
  return s;
}

CallSymbol CallSymbol::internal(std::string callee) {
  CallSymbol s;
  s.kind = Kind::kInternal;
  s.name = std::move(callee);
  return s;
}

CallSymbol CallSymbol::without_context() const {
  CallSymbol s = *this;
  s.context.clear();
  return s;
}

bool filter_matches(CallFilter filter, ir::CallKind kind) {
  switch (filter) {
    case CallFilter::kSyscalls:
      return kind == ir::CallKind::kSyscall;
    case CallFilter::kLibcalls:
      return kind == ir::CallKind::kLibcall;
    case CallFilter::kAll:
      return true;
  }
  return false;
}

std::string call_filter_name(CallFilter filter) {
  switch (filter) {
    case CallFilter::kSyscalls:
      return "syscall";
    case CallFilter::kLibcalls:
      return "libcall";
    case CallFilter::kAll:
      return "all";
  }
  return "?";
}

std::size_t CallTransitionMatrix::add_symbol(const CallSymbol& symbol) {
  auto it = index_.find(symbol);
  if (it != index_.end()) return it->second;
  const std::size_t idx = symbols_.size();
  symbols_.push_back(symbol);
  index_.emplace(symbol, idx);
  rows_.emplace_back();
  return idx;
}

std::size_t CallTransitionMatrix::index_of(const CallSymbol& symbol) const {
  auto it = index_.find(symbol);
  if (it == index_.end()) {
    throw std::out_of_range("CallTransitionMatrix: unknown symbol " +
                            symbol.to_string());
  }
  return it->second;
}

bool CallTransitionMatrix::contains(const CallSymbol& symbol) const {
  return index_.contains(symbol);
}

const CallSymbol& CallTransitionMatrix::symbol(std::size_t index) const {
  if (index >= symbols_.size()) {
    throw std::out_of_range("CallTransitionMatrix::symbol");
  }
  return symbols_[index];
}

double CallTransitionMatrix::prob(std::size_t from, std::size_t to) const {
  if (from >= rows_.size() || to >= symbols_.size()) {
    throw std::out_of_range("CallTransitionMatrix::prob");
  }
  auto it = rows_[from].find(to);
  return it == rows_[from].end() ? 0.0 : it->second;
}

double CallTransitionMatrix::prob(const CallSymbol& from,
                                  const CallSymbol& to) const {
  return prob(index_of(from), index_of(to));
}

void CallTransitionMatrix::add_prob(std::size_t from, std::size_t to,
                                    double delta) {
  if (from >= rows_.size() || to >= symbols_.size()) {
    throw std::out_of_range("CallTransitionMatrix::add_prob");
  }
  if (delta == 0.0) return;
  rows_[from][to] += delta;
}

void CallTransitionMatrix::set_prob(std::size_t from, std::size_t to,
                                    double value) {
  if (from >= rows_.size() || to >= symbols_.size()) {
    throw std::out_of_range("CallTransitionMatrix::set_prob");
  }
  if (value == 0.0) {
    rows_[from].erase(to);
  } else {
    rows_[from][to] = value;
  }
}

const std::unordered_map<std::size_t, double>& CallTransitionMatrix::row(
    std::size_t from) const {
  if (from >= rows_.size()) throw std::out_of_range("CallTransitionMatrix::row");
  return rows_[from];
}

double CallTransitionMatrix::row_sum(std::size_t from) const {
  double total = 0.0;
  for (const auto& [to, p] : row(from)) {
    (void)to;
    total += p;
  }
  return total;
}

double CallTransitionMatrix::col_sum(std::size_t to) const {
  if (to >= symbols_.size()) {
    throw std::out_of_range("CallTransitionMatrix::col_sum");
  }
  double total = 0.0;
  for (const auto& row : rows_) {
    auto it = row.find(to);
    if (it != row.end()) total += it->second;
  }
  return total;
}

std::vector<std::size_t> CallTransitionMatrix::external_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    if (symbols_[i].kind == CallSymbol::Kind::kExternal) out.push_back(i);
  }
  return out;
}

std::size_t CallTransitionMatrix::nonzero_count() const {
  std::size_t count = 0;
  for (const auto& row : rows_) count += row.size();
  return count;
}

std::string CallTransitionMatrix::to_string() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    // Render cells in column order for stable output.
    std::map<std::size_t, double> ordered(rows_[r].begin(), rows_[r].end());
    for (const auto& [c, p] : ordered) {
      os << symbols_[r].to_string() << " -> " << symbols_[c].to_string()
         << " : " << p << "\n";
    }
  }
  return os.str();
}

CallTransitionMatrix project_context_insensitive(
    const CallTransitionMatrix& matrix) {
  CallTransitionMatrix out;
  std::vector<std::size_t> remap(matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    const CallSymbol& sym = matrix.symbol(i);
    remap[i] = out.add_symbol(sym.kind == CallSymbol::Kind::kExternal
                                  ? sym.without_context()
                                  : sym);
  }
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    for (const auto& [c, p] : matrix.row(r)) {
      out.add_prob(remap[r], remap[c], p);
    }
  }
  return out;
}

}  // namespace cmarkov::analysis
