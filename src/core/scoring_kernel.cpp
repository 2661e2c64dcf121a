#include "src/core/scoring_kernel.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>
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

constexpr std::size_t kMemoWays = 4;
constexpr unsigned kMemoSetBits = 11;  // 2048 sets of four entries
static_assert(ScoringKernel::kMemoEntries == kMemoWays << kMemoSetBits);
constexpr std::uint64_t kMemoSetMask = (std::uint64_t{1} << kMemoSetBits) - 1;

/// The one way any memo word is accessed.
inline std::atomic_ref<std::uint64_t> word(std::uint64_t* at) {
  return std::atomic_ref<std::uint64_t>(*at);
}

/// Hash of a window key. The final shift and multiply carry every key bit
/// into both set slices that score() takes from the top 22 bits.
inline std::uint64_t key_hash(std::span<const std::uint64_t> key) {
  std::uint64_t hash = 0;
  for (const std::uint64_t w : key) hash = (hash ^ w) * 0x9e3779b97f4a7c15ull;
  hash ^= hash >> 32;
  return hash * 0xd6e8feb86659fd93ull;
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

  // Ids of known windows are < m, so bit_width(m - 1) bits hold each one
  // (one bit for a one-symbol model, whose keys are all zero).
  const std::size_t length = detector.config().segments.length;
  const unsigned bits =
      std::max(1u, static_cast<unsigned>(std::bit_width(m - 1)));
  const std::size_t key_words = (length * bits + 63) / 64;
  kernel->window_length_ = length;
  kernel->key_bits_ = bits;
  kernel->key_words_ = key_words;
  const std::size_t top = length > 0 ? (length - 1) * bits : 0;
  kernel->top_word_ = top / 64;
  kernel->top_shift_ = static_cast<unsigned>(top % 64);
  kernel->memo_stride_ = 2 + key_words;
  // Seven spare words let the first set start on a 64-byte line.
  kernel->memo_words_ = kMemoEntries * kernel->memo_stride_ + 7;
  kernel->memo_.reset(static_cast<std::uint64_t*>(
      std::calloc(kernel->memo_words_, sizeof(std::uint64_t))));
  if (kernel->memo_ == nullptr) throw std::bad_alloc();
  const auto address = reinterpret_cast<std::uintptr_t>(kernel->memo_.get());
  kernel->memo_sets_ = kernel->memo_.get() + ((64 - address % 64) % 64) / 8;
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

bool ScoringKernel::has_unknown(std::span<const std::size_t> window) const {
  return std::ranges::any_of(
      window, [this](std::size_t id) { return id >= num_symbols_; });
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
  if (has_unknown(window)) {
    // Same contract as Detector::score_segment: out-of-vocabulary means
    // impossible, no recursion runs.
    verdict.unknown_symbol = true;
    verdict.log_likelihood = -std::numeric_limits<double>::infinity();
    verdict.flagged = true;
    return verdict;
  }
  verdict.log_likelihood = hmm::forward_pass(tables_, window, out);
  verdict.flagged = verdict.log_likelihood < threshold_;
  return verdict;
}

WindowScore ScoringKernel::score(std::span<const std::size_t> window,
                                 KernelScratch& scratch) const {
  if (window.size() != window_length_) {
    throw std::invalid_argument(
        "ScoringKernel::score: window of " + std::to_string(window.size()) +
        " ids, the image memoizes windows of " +
        std::to_string(window_length_));
  }
  if (has_unknown(window)) return {score_window(window, scratch), false};
  std::vector<std::uint64_t> key(key_words_, 0);
  for (const std::size_t id : window) slide_key(key, id);
  return score(std::span<const std::uint64_t>(key), scratch,
               [window] { return window; });
}

bool ScoringKernel::find(std::span<const std::uint64_t> key, MemoProbe& probe,
                         SegmentVerdict& verdict) const {
  // Two sets from two slices of one hash, set 0's ways first. A hit in
  // set 0 leaves set 1 unread; a miss reads both, for remember().
  const std::uint64_t hash = key_hash(key);
  const std::uint64_t set_index[2] = {
      hash >> (64 - kMemoSetBits),
      (hash >> (64 - 2 * kMemoSetBits)) & kMemoSetMask};
  for (std::size_t s = 0; s < 2; ++s) {
    std::uint64_t** const way = probe.way + s * kMemoWays;
    std::uint64_t* const seq = probe.seq + s * kMemoWays;
    std::uint64_t* const set =
        memo_sets_ + set_index[s] * kMemoWays * memo_stride_;
    // Seqlock read of each way: the sequence word, then key and value with
    // acquire loads, then the sequence again. A write that overlapped the
    // read changed the sequence, and an odd one is in progress: both miss.
    bool match[kMemoWays];
    for (std::size_t w = 0; w < kMemoWays; ++w) {
      way[w] = set + w * memo_stride_;
      seq[w] = word(way[w]).load(std::memory_order_acquire);
      match[w] = seq[w] != 0 && seq[w] % 2 == 0;
    }
    for (std::size_t k = 0; k < key.size(); ++k) {
      for (std::size_t w = 0; w < kMemoWays; ++w) {
        match[w] = match[w] && word(way[w] + 2 + k).load(
                                   std::memory_order_acquire) == key[k];
      }
    }
    for (std::size_t w = 0; w < kMemoWays; ++w) {
      if (!match[w]) continue;
      const std::uint64_t bits =
          word(way[w] + 1).load(std::memory_order_acquire);
      if (word(way[w]).load(std::memory_order_acquire) != seq[w]) continue;
      verdict.log_likelihood = std::bit_cast<double>(bits);
      verdict.flagged = verdict.log_likelihood < threshold_;
      return true;
    }
  }
  return false;
}

void ScoringKernel::remember(std::span<const std::uint64_t> key,
                             const MemoProbe& probe,
                             double log_likelihood) const {
  // The set with fewer filled ways takes the insert (set 0 on a tie).
  std::size_t filled[2] = {0, 0};
  for (std::size_t w = 0; w < kProbeWays; ++w) {
    filled[w / kMemoWays] += probe.seq[w] != 0;
  }
  const std::size_t first = filled[1] < filled[0] ? kMemoWays : 0;
  // Within it, the victim is the set's completed writes (half of each
  // sequence) mod kMemoWays: the ways fill in order, then turn over
  // oldest first. A writer claims it with one even -> odd CAS and
  // releases it at the next even value; losing the claim, or finding it
  // held, skips the insert.
  std::uint64_t writes = 0;
  for (std::size_t w = first; w < first + kMemoWays; ++w) {
    writes += probe.seq[w] / 2;
  }
  const std::size_t victim = first + writes % kMemoWays;
  std::uint64_t claimed = probe.seq[victim];
  if (claimed % 2 != 0 ||
      !word(probe.way[victim])
           .compare_exchange_strong(claimed, claimed + 1,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
    return;
  }
  std::uint64_t* const entry = probe.way[victim];
  word(entry + 1).store(std::bit_cast<std::uint64_t>(log_likelihood),
                        std::memory_order_release);
  for (std::size_t k = 0; k < key.size(); ++k) {
    word(entry + 2 + k).store(key[k], std::memory_order_release);
  }
  word(entry).store(claimed + 2, std::memory_order_release);
}

}  // namespace cmarkov::core
