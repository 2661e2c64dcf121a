// ScoringKernel — the serve hot path's compiled model image.
//
// A trained Detector keeps its parameters in the generic representation the
// training engine wants (row-major Matrix A/B, a std::string-keyed alphabet
// map). The online scoring path has very different needs: every live
// session scores one 15-call window per event against the SAME parameters,
// so the serve tier compiles the model once into a flat, pointer-free,
// cache-resident image and shares it across every OnlineMonitor bound to
// that model version (each holds a shared_ptr to it; hot reload swaps in a
// freshly compiled image, and the old one lives until its last monitor
// lets go).
//
// The image is immutable. One contiguous arena allocation holds, in order:
//   - pi, A, B^T : the hmm::ForwardTables layout (N, N x N source-major,
//              M x N doubles) that hmm::forward_pass reads — the same
//              recursion the Trainer runs over its model;
//   - slots  : open-addressing hash table (power-of-two, linear probing)
//              interning the alphabet's observation strings to dense ids —
//              find_observation() hashes "name[@caller]" piecewise, so the
//              per-event lookup builds no std::string and touches no
//              node-based map;
//   - blob   : the interned string bytes the slots point into.
//
// Its one mutable, concurrent part is the window memo: a fixed table of
// kMemoEntries exact (window -> log-likelihood) entries, 2048 sets of 4
// ways, that score() consults before running a pass. Normal behaviour is a
// small set of short call sequences that keep recurring, so most windows a
// monitor completes were already scored, by it or by another session on
// another shard. The key is the window's ids packed at bit_width(M - 1)
// bits each and stored whole, never only its hash. A monitor keeps its
// window's key as the window slides (slide_key), so a hit packs nothing
// and copies no ids. Each key hashes to two candidate sets, from two
// slices of one hash: a lookup reads the 8 ways of both (the second set's
// only if the first misses), and an insert goes into the set with fewer
// filled ways, in turn within that set (its completed writes mod 4). With two choices, sets overflow only once the memo is
// nearly full: the stream models' working sets of 1.3k-6.4k distinct
// windows stay resident, where one 4-way set per key lost a tenth of them
// to set conflicts (DESIGN.md section 7). Every entry is a seqlock of
// uint64_t words that are only ever read and written through
// std::atomic_ref (the words come from calloc, so the OS zero-fills their
// pages on first touch instead of compile() writing 256 KiB of zeros into
// every image at daemon start): a reader that sees an odd or changed
// sequence word counts a miss, and a writer that loses the claim on an
// entry skips its insert, so no scorer ever waits on another. Two racing
// misses may store one key in both of its sets; both copies hold the same
// bits. The memo belongs to its image: a reload's new image starts empty,
// and the old memo is freed with the old image.
//
// Scoring runs against a flat two-row scratch buffer (KernelScratch, owned
// per monitor and recycled through the serve StatePool) — no ForwardResult
// matrix, no per-window allocation. hmm::forward_pass performs the same
// floating-point operations in the same order as hmm::forward_scaled, so
// window log-likelihoods are BIT-IDENTICAL to the reference path (asserted
// by detector_test / online_monitor_test golden tests). A memo hit returns
// the bits an earlier pass of the same image over the same ids produced,
// so it is bit-identical too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/detector.hpp"
#include "src/hmm/forward_backward.hpp"

namespace cmarkov::core {

/// Per-monitor forward scratch: two ping-pong alpha rows, recycled through
/// the serve StatePool with the rest of the monitor storage.
struct KernelScratch {
  std::vector<double> alpha;

  /// Grows (never shrinks) to 2*num_states and returns the base pointer.
  double* ensure(std::size_t num_states) {
    if (alpha.size() < 2 * num_states) alpha.resize(2 * num_states, 0.0);
    return alpha.data();
  }
  std::size_t capacity_bytes() const {
    return alpha.capacity() * sizeof(double);
  }
};

/// What a decision record needs from a window's forward pass (see
/// hmm::ForwardOutputs): the T normalized alpha rows, kept (row t at
/// alpha[t*N]), and the T scales c_t, which read 0 from an impossible step
/// on. Rows after that step are not written, and a window holding an
/// unknown observation runs no pass and writes neither.
/// Detector::make_decision_record builds the audit record from them when
/// a recorded window is read (DecisionEntry::record).
struct WindowAudit {
  std::vector<double> alpha;
  std::vector<double> scales;
};

/// One window's verdict from ScoringKernel::score.
struct WindowScore {
  SegmentVerdict verdict;
  /// The verdict came from the window memo: no forward pass ran.
  bool memo_hit = false;
};

class ScoringKernel {
 public:
  /// Entries in every kernel's window memo, four per set. At the serve
  /// models' 90-bit keys (15 ids of 6 bits) that is 256 KiB per image.
  static constexpr std::size_t kMemoEntries = 8192;

  /// Compiles the immutable image from a trained detector. Throws
  /// std::invalid_argument for untrained detectors (the serve tier never
  /// scores against one).
  static std::shared_ptr<const ScoringKernel> compile(
      const Detector& detector);

  /// Dense observation id for a call event, or unknown_id() when the model
  /// never saw this call in this context. Equivalent to interning
  /// encode_observation(name, caller, encoding) through Alphabet::find —
  /// same ids, same unknown fallback — but hashes the parts in place
  /// without materializing the observation string.
  std::size_t find_observation(std::string_view name,
                               std::string_view caller) const;

  /// The id assigned to out-of-alphabet observations: alphabet_size(), the
  /// same sentinel the Detector/Alphabet path uses, so window snapshots
  /// are interchangeable between kernel and reference scoring.
  std::size_t unknown_id() const { return alphabet_size_; }

  /// Scores one complete window against the compiled tables,
  /// bit-identical to Detector::score_segment (same verdict fields, same
  /// doubles). `scratch` is grown on demand and holds no state across
  /// calls. With `audit`, the pass keeps its alpha rows and scales there
  /// instead: DecisionEntry::record derives a decision record from them.
  SegmentVerdict score_window(std::span<const std::size_t> window,
                              KernelScratch& scratch,
                              WindowAudit* audit = nullptr) const;

  /// Words in a window's memo key: window_length() ids packed at
  /// bit_width(num_symbols() - 1) bits apiece (at least one).
  std::size_t key_words() const { return key_words_; }

  /// Slides one id into a window key, the oldest id out. The key holds
  /// the window's ids oldest first from its lowest bit, so the whole key
  /// shifts down one id and `id` lands in the top id's place. After
  /// window_length() slides from any key, the key is that of the last
  /// window_length() ids. An unknown id (>= num_symbols()) slides in as
  /// id 0: a window holding one never reaches the memo, so the caller
  /// counts them and calls score_window instead of score(). `key` must
  /// hold key_words() words.
  void slide_key(std::span<std::uint64_t> key, std::size_t id) const {
    const std::size_t last = key_words_ - 1;
    for (std::size_t w = 0; w < last; ++w) {
      key[w] = (key[w] >> key_bits_) | (key[w + 1] << (64 - key_bits_));
    }
    key[last] >>= key_bits_;
    const std::uint64_t bits = id < num_symbols_ ? id : 0;
    key[top_word_] |= bits << top_shift_;
    if (top_shift_ + key_bits_ > 64) {
      key[top_word_ + 1] |= bits >> (64 - top_shift_);
    }
  }

  /// The monitor's scoring call: score_window through the window memo.
  /// `key` is the window's key (slide_key) and must hold no unknown id. A
  /// window this image already scored returns the stored bits and calls
  /// nothing else (memo_hit). Otherwise `window()` yields the window's
  /// window_length() ids, oldest first, score_window scores them with
  /// `scratch`, and the memo stores the result. Safe to call from many
  /// threads at once.
  template <typename Window>
  WindowScore score(std::span<const std::uint64_t> key,
                    KernelScratch& scratch, Window&& window) const {
    WindowScore result;
    MemoProbe probe{};
    if (find(key, probe, result.verdict)) {
      result.memo_hit = true;
      return result;
    }
    result.verdict = score_window(window(), scratch);
    remember(key, probe, result.verdict.log_likelihood);
    return result;
  }

  /// score() of a window given as its ids: slides them into a key and
  /// calls the keyed score(). A window holding an unknown id returns
  /// score_window's verdict without reaching the memo. `window` must hold
  /// window_length() ids; throws std::invalid_argument otherwise.
  WindowScore score(std::span<const std::size_t> window,
                    KernelScratch& scratch) const;

  std::size_t num_states() const { return num_states_; }
  std::size_t num_symbols() const { return num_symbols_; }
  std::size_t alphabet_size() const { return alphabet_size_; }
  double threshold() const { return threshold_; }
  bool context_sensitive() const { return context_sensitive_; }
  /// The detector's segment length: the window size score() memoizes.
  std::size_t window_length() const { return window_length_; }

  /// Footprint of the compiled image, arena plus window memo (the shared,
  /// per-model-version memory bill — deliberately NOT part of any
  /// per-session state_bytes).
  std::size_t image_bytes() const {
    return arena_.size() + memo_words_ * sizeof(std::uint64_t) +
           sizeof(*this);
  }
  /// Wall-clock cost of compile() (feeds cmarkov_serve_kernel_build_micros).
  double build_micros() const { return build_micros_; }

 private:
  /// Open-addressing slot; empty slots have offset == kEmptySlot.
  struct Slot {
    std::uint32_t offset = 0xffffffffu;
    std::uint32_t length = 0;
    std::uint32_t id = 0;
  };
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  ScoringKernel() = default;

  /// Linear-probe lookup. `joined` compares the stored string against
  /// name + '@' + caller without concatenating them.
  std::size_t probe(std::uint64_t hash, std::string_view name, bool joined,
                    std::string_view caller) const;

  bool has_unknown(std::span<const std::size_t> window) const;

  /// A key's two candidate sets, 8 ways, and the sequence word each way
  /// held when find() read it: remember() claims its victim from that.
  static constexpr std::size_t kProbeWays = 8;
  struct MemoProbe {
    std::uint64_t* way[kProbeWays];
    std::uint64_t seq[kProbeWays];
  };
  /// Seqlock read of both candidate sets of `key`. On a hit, fills
  /// `verdict` and returns true.
  bool find(std::span<const std::uint64_t> key, MemoProbe& probe,
            SegmentVerdict& verdict) const;
  /// Stores a miss's result into the emptier set of its probe.
  void remember(std::span<const std::uint64_t> key, const MemoProbe& probe,
                double log_likelihood) const;

  std::size_t num_states_ = 0;
  std::size_t num_symbols_ = 0;
  std::size_t alphabet_size_ = 0;
  double threshold_ = 0.0;
  bool context_sensitive_ = true;
  double build_micros_ = 0.0;

  /// The single arena allocation; every pointer below aims into it.
  std::vector<std::byte> arena_;
  hmm::ForwardTables tables_;
  const Slot* slots_ = nullptr;
  std::size_t slot_mask_ = 0;
  const char* blob_ = nullptr;

  struct FreeMemo {
    void operator()(std::uint64_t* words) const { std::free(words); }
  };

  /// Window key layout: key_bits_ per id, the newest id's bits starting at
  /// bit top_shift_ of word top_word_.
  std::size_t window_length_ = 0;
  unsigned key_bits_ = 0;
  std::size_t key_words_ = 0;
  std::size_t top_word_ = 0;
  unsigned top_shift_ = 0;

  /// Window memo: kMemoEntries entries of memo_stride_ words, {sequence,
  /// log-likelihood bits, key words}, four per set, the first set at
  /// memo_sets_ (64-byte aligned inside memo_). Sequence 0 is an empty
  /// entry, odd is one being written.
  std::size_t memo_stride_ = 0;
  std::size_t memo_words_ = 0;
  std::unique_ptr<std::uint64_t[], FreeMemo> memo_;
  std::uint64_t* memo_sets_ = nullptr;
};

}  // namespace cmarkov::core
