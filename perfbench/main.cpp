// perfbench_tool — the compiled half of the benchmark (run.py drives it).
//
//   perfbench_tool serve  --workload stream|runs --seed S --seconds T
//                         --daemon <cmarkovd> --models <dir> --log <file>
//                         [--trace 1 --trace-out <file>]
//   perfbench_tool train-traced --seed S --threads N --models-out <dir>
//                         --train-wall-s X --trace-out <file>
//   perfbench_tool corpus --seed S
//
// Each prints one JSON object (report.hpp) on its last stdout line. Errors
// that prevent a measurement exit with status 1.
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "serve.hpp"
#include "traced.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument '" + flag + "'");
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("need a subcommand");
    const std::string command = argv[1];
    const auto flags = parse_flags(argc, argv);
    perfbench::Report report;
    const std::uint64_t seed = std::stoull(need(flags, "seed"));
    if (command == "serve") {
      perfbench::ServeOptions options;
      options.workload = need(flags, "workload");
      options.seed = seed;
      options.seconds = std::stod(need(flags, "seconds"));
      options.daemon = need(flags, "daemon");
      options.models_dir = need(flags, "models");
      options.log_path = need(flags, "log");
      perfbench::run_serve(options, report);
      if (get(flags, "trace", "0") == "1") {
        perfbench::traced_serve(options, get(flags, "trace-out", ""), report);
      }
    } else if (command == "train-traced") {
      perfbench::traced_train(seed, std::stoul(need(flags, "threads")),
                              need(flags, "models-out"),
                              std::stod(need(flags, "train-wall-s")),
                              get(flags, "trace-out", ""), report);
    } else if (command == "corpus") {
      perfbench::train_corpus(seed, report);
    } else {
      throw std::runtime_error("unknown subcommand '" + command + "'");
    }
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_tool: " << e.what() << "\n";
    return 1;
  }
}
