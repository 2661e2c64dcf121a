// Static HMM initialization (the STILO technique extended with context and
// clustering): hidden states come from the (possibly clustered) aggregated
// call-transition matrix, A from inter-cluster transition mass, B from
// member observation weights, pi from the program-entry distribution.
//
// With identity clustering and ObservationEncoding::kContextFree this is
// exactly STILO; with real clustering and kContextSensitive it is CMarkov.
#pragma once

#include <string>
#include <vector>

#include "src/hmm/alphabet.hpp"
#include "src/hmm/hmm.hpp"
#include "src/reduction/reconstruct.hpp"

namespace cmarkov::hmm {

struct StaticInitResult {
  Hmm model;
  /// For diagnostics: the member call symbols behind each hidden state.
  std::vector<std::vector<analysis::CallSymbol>> state_members;
  /// Human-readable state label ("read@f" or "cluster{...}").
  std::vector<std::string> state_labels;
};

/// Builds the statically initialized HMM. Every row is smoothed by 1e-4
/// after construction, which keeps unseen transitions/emissions strictly
/// positive for Baum-Welch.
///
/// `alphabet` is extended with every observation symbol the static model
/// emits; callers should pre-intern the symbols seen in training traces so
/// the emission matrix covers the union (dynamically-observed symbols the
/// static analysis missed start at the smoothing floor and are learned by
/// Baum-Welch).
StaticInitResult statically_initialized_hmm(
    const reduction::ReducedModel& reduced, ObservationEncoding encoding,
    Alphabet& alphabet);

}  // namespace cmarkov::hmm
