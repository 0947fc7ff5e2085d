// mc_explore: exhaustive DPOR model checking of bounded DIET scenarios.
//
//   mc_explore                         # verify every scenario (DPOR)
//   mc_explore --scenario small_drop   # one scenario
//   mc_explore --naive                 # sleep sets off (pruning baseline)
//   mc_explore --max-executions N      # cap (0 = unlimited)
//   mc_explore --trace-out FILE        # write counterexample trace here
//   mc_explore --replay FILE           # deterministically re-run a trace
//   mc_explore --mutate NAME           # re-introduce a known-fixed bug
//   mc_explore --list                  # list scenarios
//
// Exit codes: 0 clean (or replay reproduced its violation), 1 a scenario
// violated a property, 2 usage/replay error, 3 no violation but a scenario
// hit --max-executions before its exploration completed (not a proof).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/mutation.hpp"
#include "common/log.hpp"
#include "mc/checker.hpp"
#include "mc/scenario.hpp"

namespace {

struct MutationName {
  const char* name;
  gc::check::Mutation mutation;
};

constexpr MutationName kMutationNames[] = {
    {"stale-wire-reuse", gc::check::Mutation::kStaleReplyReuseWire},
    {"sed-skip-dedup", gc::check::Mutation::kSedSkipDedup},
    {"keep-replicas-on-eviction", gc::check::Mutation::kKeepReplicasOnEviction},
};

struct ScenarioOutcome {
  std::string name;
  gc::mc::Result result;
};

void print_result(const ScenarioOutcome& outcome) {
  const gc::mc::Result& r = outcome.result;
  std::cout << "scenario " << outcome.name << ": explored=" << r.schedules_explored
            << " pruned=" << r.schedules_pruned
            << " executions=" << r.executions
            << " decision_points=" << r.decision_points
            << " max_enabled=" << r.max_enabled
            << (r.complete ? " complete"
                           : (r.violation_found ? " stopped" : " CAPPED"))
            << (r.violation_found ? " VIOLATION" : " ok") << "\n";
}

int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "mc_explore: cannot read trace file " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string scenario_name;
  std::vector<gc::mc::Decision> decisions;
  if (!gc::mc::decode_trace(buffer.str(), scenario_name, decisions)) {
    std::cerr << "mc_explore: malformed trace file " << path << "\n";
    return 2;
  }
  const gc::mc::Scenario* scenario = gc::mc::find_scenario(scenario_name);
  if (scenario == nullptr) {
    std::cerr << "mc_explore: trace names unknown scenario '" << scenario_name
              << "'\n";
    return 2;
  }
  std::cout << "replaying " << scenario_name << " with " << decisions.size()
            << " forced decisions\n";
  const gc::mc::ReplayResult replay =
      gc::mc::replay(scenario->fn, decisions);
  for (const gc::mc::Step& step : replay.schedule) {
    std::cout << "  [" << step.index << "] t=" << step.time << " cid "
              << step.cid << " owner " << step.owner;
    auto name = replay.owner_names.find(step.owner);
    if (name != replay.owner_names.end()) std::cout << " (" << name->second << ")";
    std::cout << " [picked " << step.picked << " of " << step.alternatives
              << "]\n";
  }
  if (replay.violation_found) {
    std::cout << "VIOLATION reproduced: " << replay.violation.what << "\n  at "
              << replay.violation.file << ":" << replay.violation.line << "\n";
    return 0;
  }
  std::cout << "no violation on this schedule\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Thousands of re-executions of fault scenarios produce the same
  // expected retry warnings over and over; GC_LOG_LEVEL overrides.
  gc::set_default_log_level(gc::LogLevel::kError);
  std::string only;
  std::string trace_out;
  std::string replay_path;
  gc::mc::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "mc_explore: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      only = next();
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--naive") {
      options.sleep_sets = false;
    } else if (arg == "--max-executions") {
      options.max_executions = std::stoull(next());
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--mutate") {
      const std::string which = next();
      bool found = false;
      for (const MutationName& m : kMutationNames) {
        if (which == m.name) {
          gc::check::set_mutation(m.mutation, true);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "mc_explore: unknown mutation '" << which << "'; one of:";
        for (const MutationName& m : kMutationNames) std::cerr << " " << m.name;
        std::cerr << "\n";
        return 2;
      }
      if (!gc::check::kMutationsCompiled) {
        std::cerr << "mc_explore: built without GC_MC_MUTATIONS; --mutate is "
                     "a no-op\n";
        return 2;
      }
    } else if (arg == "--list") {
      for (const gc::mc::Scenario& s : gc::mc::scenarios()) {
        std::cout << s.name << "  -  " << s.description << "\n";
      }
      return 0;
    } else {
      std::cerr << "mc_explore: unknown option " << arg << "\n";
      return 2;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path);

  std::vector<ScenarioOutcome> outcomes;
  bool violated = false;
  bool capped = false;
  for (const gc::mc::Scenario& scenario : gc::mc::scenarios()) {
    if (!only.empty() && scenario.name != only) continue;
    const gc::mc::Result result = gc::mc::explore(scenario.fn, options);
    outcomes.push_back(ScenarioOutcome{scenario.name, result});
    print_result(outcomes.back());
    if (!result.complete && !result.violation_found) capped = true;
    if (result.violation_found) {
      violated = true;
      std::cout << gc::mc::format_counterexample(result);
      const std::string trace =
          gc::mc::encode_trace(scenario.name, result.counterexample);
      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        out << trace;
        std::cout << "counterexample trace written to " << trace_out
                  << " (replay with --replay)\n";
      } else {
        std::cout << "counterexample trace:\n" << trace;
      }
    }
  }
  if (outcomes.empty()) {
    std::cerr << "mc_explore: no scenario named '" << only
              << "' (see --list)\n";
    return 2;
  }
  if (violated) return 1;
  return capped ? 3 : 0;
}
