// Mimicry probe (Section II-A attack model): for each server program,
// estimate the attacker's best achievable segment likelihood when embedding
// a backdoor goal chain (socket/connect/dup2/execve), under each model.
// The probe quantifies the paper's argument that probabilistic scoring
// plus context sensitivity leaves little mimicry headroom: the context
// attacker is restricted to legitimate (call, caller) pairs, and even the
// best padding lands at or below the detection threshold far more often
// than under the context-free model.
#include <cmath>
#include <iostream>

#include "src/attack/mimicry.hpp"
#include "src/eval/comparison.hpp"
#include "src/hmm/trainer.hpp"
#include "src/trace/segmenter.hpp"
#include "src/util/strings.hpp"
#include "src/util/table_printer.hpp"
#include "src/workload/testcase_generator.hpp"

using namespace cmarkov;

namespace {

struct TrainedModel {
  eval::BuiltModel model;
  double threshold = 0.0;  // log-likelihood at 1% segment FP
};

TrainedModel train_model(eval::ModelKind kind,
                         const workload::ProgramSuite& suite,
                         const std::vector<trace::Trace>& traces,
                         std::size_t max_segments) {
  eval::ModelBuildOptions options;
  options.filter = analysis::CallFilter::kSyscalls;
  Rng rng(17);
  TrainedModel out{eval::build_model(kind, suite, traces, options, rng), 0.0};

  trace::SegmentSet set;
  for (const auto& trace : traces) set.add_trace(out.model.encode(trace));
  auto segments = set.to_vector();
  if (segments.size() > max_segments) segments.resize(max_segments);
  hmm::TrainingOptions training;
  training.max_iterations = 8;
  hmm::Trainer trainer(out.model.hmm(), training);
  trainer.fit(segments);
  out.model.set_hmm(trainer.model());

  eval::ScoreSet calibration;
  for (const auto& segment : segments) {
    calibration.normal.push_back(out.model.score(segment));
  }
  out.threshold = eval::threshold_for_fp(calibration, 0.01);
  return out;
}

}  // namespace

namespace {

struct GoalChain {
  std::string label;
  std::vector<std::string> names;
};

}  // namespace

int main(int argc, char** argv) {
  const bool full = eval::full_mode_enabled(argc, argv);
  std::cout << "=== Mimicry probe: attacker's best segment per goal chain ("
            << (full ? "full" : "quick") << " mode) ===\n";
  std::cout << "Three attacker goals against proftpd, in decreasing "
               "difficulty:\n"
               "  backdoor      socket/connect/dup2/execve — calls the "
               "program never makes;\n"
               "  tampering     setuid/chmod/unlink — legitimate-yet-rare "
               "calls (the paper's mimicry caveat);\n"
               "  exfiltration  open/read/send — indistinguishable from "
               "normal serving (the open problem).\n\n";

  const workload::ProgramSuite suite = workload::make_proftpd_suite();
  const auto collection = workload::collect_traces(suite, full ? 80 : 30, 3);
  const auto legit = attack::legitimate_call_set(
      collection.traces, analysis::CallFilter::kSyscalls);

  const std::vector<GoalChain> chains = {
      {"backdoor", {"socket", "connect", "dup2", "execve"}},
      {"tampering", {"setuid", "chmod", "unlink"}},
      {"exfiltration", {"open", "read", "send"}},
  };

  TablePrinter table({"Goal chain", "Model", "Embedded?",
                      "Best log-likelihood", "Threshold@FP=1%",
                      "Mimicry evades?"});

  for (const auto kind :
       {eval::ModelKind::kRegularBasic, eval::ModelKind::kCMarkov}) {
    const TrainedModel trained =
        train_model(kind, suite, collection.traces, full ? 1200 : 300);
    const bool context_model =
        eval::encoding_of(kind) != hmm::ObservationEncoding::kContextFree;

    for (const auto& chain : chains) {
      std::vector<std::string> goals;
      for (const auto& name : chain.names) {
        if (!context_model) {
          goals.push_back(name);
          continue;
        }
        // Context attacker must commit to a legitimate caller.
        std::string chosen = name + "@<none>";
        for (const auto& call : legit) {
          if (call.name == name) {
            chosen = name + "@" + call.caller;
            break;
          }
        }
        goals.push_back(chosen);
      }

      attack::MimicryOptions options;
      options.beam_width = full ? 32 : 16;
      const attack::MimicryResult result =
          craft_mimicry(trained.model, goals, options);
      const bool evades = result.goal_embedded &&
                          result.log_likelihood > trained.threshold;
      table.add_row(
          {chain.label, eval::model_kind_name(kind),
           result.goal_embedded ? "yes" : "no",
           std::isinf(result.log_likelihood)
               ? "-inf"
               : format_double(result.log_likelihood, 2),
           format_double(trained.threshold, 2), evades ? "YES" : "no"});
    }
  }
  table.print();
  std::cout << "\nShape check: the backdoor chain is unembeddable under\n"
               "both models (its calls never occur in normal behaviour).\n"
               "The context-free model is evaded by the tampering and\n"
               "exfiltration chains; under CMarkov the probe's best\n"
               "segments fall below the (much sharper) threshold — the\n"
               "quantitative-measurement-plus-context argument of Section\n"
               "II-A. A stronger attacker than this beam search, or a goal\n"
               "matching normal behaviour exactly, remains the open mimicry\n"
               "problem the paper acknowledges.\n";
  return 0;
}
