#include "src/hmm/baum_welch.hpp"

#include <cmath>
#include <limits>

#include "src/util/parallel.hpp"

namespace cmarkov::hmm {

namespace {

/// Sequences per work item of the parallel scoring pass.
constexpr std::size_t kScoreChunk = 64;

}  // namespace

double pooled_log_likelihood_sum(const ForwardTables& tables,
                                 std::span<const ObservationSeq> sequences,
                                 double impossible_penalty, WorkerPool& pool,
                                 double sum) {
  std::vector<double> per_sequence(sequences.size());
  pool.run(chunk_count(sequences.size(), kScoreChunk), [&](std::size_t c) {
    const ChunkRange range = chunk_range(sequences.size(), kScoreChunk, c);
    std::vector<double> rows(2 * tables.num_states);
    for (std::size_t s = range.begin; s < range.end; ++s) {
      const double ll =
          sequences[s].empty()
              ? -std::numeric_limits<double>::infinity()
              : forward_pass(tables, sequences[s], {.alpha = rows.data()});
      per_sequence[s] = std::isinf(ll) ? impossible_penalty : ll;
    }
  });
  for (const double ll : per_sequence) sum += ll;
  return sum;
}

}  // namespace cmarkov::hmm
