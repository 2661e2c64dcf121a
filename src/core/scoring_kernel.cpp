#include "src/core/scoring_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "src/util/stopwatch.hpp"

namespace cmarkov::core {

namespace {

/// FNV-1a over one byte span, continuing from a running digest. Processing
/// "name", then "@", then "caller" piece by piece yields exactly the digest
/// of the concatenated observation string — the property find_observation
/// relies on to skip building it.
inline std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Bump-carves an 8-aligned section of `bytes` out of the arena cursor.
std::size_t carve(std::size_t& cursor, std::size_t bytes) {
  const std::size_t at = cursor;
  cursor += (bytes + 7) & ~std::size_t{7};
  return at;
}

}  // namespace

std::shared_ptr<const ScoringKernel> ScoringKernel::compile(
    const Detector& detector) {
  const Stopwatch watch;
  if (!detector.trained()) {
    throw std::invalid_argument(
        "ScoringKernel: detector is not trained; the serve tier only scores");
  }
  const hmm::Hmm& model = detector.model();
  const hmm::Alphabet& alphabet = detector.alphabet();
  const std::size_t n = model.num_states();
  const std::size_t m = model.num_symbols();
  const std::size_t a = alphabet.size();

  // A shared_ptr with a private-constructor payload: allocate then fill.
  std::shared_ptr<ScoringKernel> kernel(new ScoringKernel());
  kernel->num_states_ = n;
  kernel->num_symbols_ = m;
  kernel->alphabet_size_ = a;
  kernel->threshold_ = detector.threshold();
  kernel->context_sensitive_ = detector.config().pipeline.context_sensitive;

  std::size_t blob_bytes = 0;
  for (const std::string& symbol : alphabet.symbols()) {
    blob_bytes += symbol.size();
  }
  const std::size_t table_size = next_pow2(std::max<std::size_t>(16, 2 * a));

  // Single arena allocation: compute the layout, then fill the sections.
  std::size_t cursor = 0;
  const std::size_t initial_at = carve(cursor, n * sizeof(double));
  const std::size_t transition_at = carve(cursor, n * n * sizeof(double));
  const std::size_t emission_at = carve(cursor, m * n * sizeof(double));
  const std::size_t slots_at = carve(cursor, table_size * sizeof(Slot));
  const std::size_t blob_at = carve(cursor, blob_bytes);
  kernel->arena_.assign(cursor, std::byte{0});
  std::byte* base = kernel->arena_.data();

  const auto initial = reinterpret_cast<double*>(base + initial_at);
  for (std::size_t i = 0; i < n; ++i) initial[i] = model.initial[i];

  // hmm::ForwardTables layout: A source-major (row i holds A(i, *)), B^T.
  const auto transition = reinterpret_cast<double*>(base + transition_at);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      transition[i * n + j] = model.transition(i, j);
    }
  }
  const auto emission_t = reinterpret_cast<double*>(base + emission_at);
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      emission_t[k * n + j] = model.emission(j, k);
    }
  }

  const auto slots = reinterpret_cast<Slot*>(base + slots_at);
  for (std::size_t s = 0; s < table_size; ++s) slots[s].offset = kEmptySlot;
  const auto blob = reinterpret_cast<char*>(base + blob_at);
  const std::size_t mask = table_size - 1;
  std::size_t blob_cursor = 0;
  for (std::size_t id = 0; id < a; ++id) {
    const std::string& symbol = alphabet.name(id);
    std::memcpy(blob + blob_cursor, symbol.data(), symbol.size());
    std::size_t slot = fnv1a(kFnvOffset, symbol) & mask;
    while (slots[slot].offset != kEmptySlot) slot = (slot + 1) & mask;
    slots[slot].offset = static_cast<std::uint32_t>(blob_cursor);
    slots[slot].length = static_cast<std::uint32_t>(symbol.size());
    slots[slot].id = static_cast<std::uint32_t>(id);
    blob_cursor += symbol.size();
  }

  kernel->tables_ = {initial, transition, emission_t, n};
  kernel->slots_ = slots;
  kernel->slot_mask_ = mask;
  kernel->blob_ = blob;
  kernel->build_micros_ = watch.micros();
  return kernel;
}

std::size_t ScoringKernel::probe(std::uint64_t hash, std::string_view name,
                                 bool joined,
                                 std::string_view caller) const {
  std::size_t slot = hash & slot_mask_;
  const std::size_t want = name.size() + (joined ? 1 + caller.size() : 0);
  for (;;) {
    const Slot& entry = slots_[slot];
    if (entry.offset == kEmptySlot) return unknown_id();
    if (entry.length == want) {
      const char* stored = blob_ + entry.offset;
      if (std::memcmp(stored, name.data(), name.size()) == 0 &&
          (!joined ||
           (stored[name.size()] == '@' &&
            std::memcmp(stored + name.size() + 1, caller.data(),
                        caller.size()) == 0))) {
        return entry.id;
      }
    }
    slot = (slot + 1) & slot_mask_;
  }
}

std::size_t ScoringKernel::find_observation(std::string_view name,
                                            std::string_view caller) const {
  // Mirrors hmm::encode_observation: context-free models (and events with
  // no caller) observe the bare call name. The stored interned string is
  // "name@caller"; hashing and comparing it piecewise skips building it.
  if (!context_sensitive_ || caller.empty()) {
    return probe(fnv1a(kFnvOffset, name), name, false, {});
  }
  std::uint64_t hash = fnv1a(kFnvOffset, name);
  hash = fnv1a(hash, "@");
  hash = fnv1a(hash, caller);
  return probe(hash, name, true, caller);
}

std::size_t ScoringKernel::find_symbol(std::string_view observation) const {
  return probe(fnv1a(kFnvOffset, observation), observation, false, {});
}

SegmentVerdict ScoringKernel::score_window(std::span<const std::size_t> window,
                                           KernelScratch& scratch,
                                           WindowAudit* audit) const {
  SegmentVerdict verdict;
  hmm::ForwardOutputs out;
  if (audit != nullptr) {
    audit->alpha.resize(window.size() * num_states_);
    audit->scales.resize(window.size());
    out = {.alpha = audit->alpha.data(),
           .keep_rows = true,
           .scales = audit->scales.data()};
  } else {
    out.alpha = scratch.ensure(num_states_);
  }
  for (const std::size_t id : window) {
    if (id >= num_symbols_) {
      // Same contract as Detector::score_segment: out-of-vocabulary means
      // impossible, no recursion runs.
      verdict.unknown_symbol = true;
      verdict.log_likelihood = -std::numeric_limits<double>::infinity();
      verdict.flagged = true;
      return verdict;
    }
  }
  verdict.log_likelihood = hmm::forward_pass(tables_, window, out);
  verdict.flagged = verdict.log_likelihood < threshold_;
  return verdict;
}

}  // namespace cmarkov::core
