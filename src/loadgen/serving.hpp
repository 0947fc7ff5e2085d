// Massive-scale serving harness: a federated DIET deployment on a
// generated fat-tree, driven by the open-loop load generator.
//
// run_serving() builds the whole experiment from one config: the
// platform::make_fattree topology, `mas` MA shards splitting the pods
// contiguously, per-shard service tables (so some services exist only on
// one shard and force cross-MA scheduling), thousands of Clients pinned
// to their pod's frontal, and the loadgen arrival plan scheduled as
// engine events. It returns throughput/latency aggregates plus two
// hashes:
//
//   science_digest — order- and timing-independent hash of every call's
//     (id, service, result) triple. Equal across 1/2/4-MA runs of the
//     same plan: federation must not change *what* is computed.
//   state_hash     — hash over full per-call records in client order,
//     including virtual timestamps. Equal across two same-seed runs (and
//     under tie-seed scrambles): the whole experiment is deterministic.
#pragma once

#include <cstdint>
#include <string>

#include "diet/agent.hpp"
#include "loadgen/loadgen.hpp"
#include "platform/generator.hpp"

namespace gc::loadgen {

/// The standard request mix: 90% "work" (short compute, volatile scalar),
/// 4% "store" (persistent vector IN — the GRAFIC1-style reuse path), and
/// four 1.5% "rareK" services. In a federation, rareK lives only on shard
/// K mod mas, so most rare requests miss locally and cross the mesh.
std::vector<RequestProfile> default_mix();

struct ServingConfig {
  platform::FatTreeConfig topology;
  /// Federation shards; pods are split into `mas` contiguous blocks, each
  /// block's clusters forming one MA hierarchy. Must be in [1, pods].
  int mas = 1;
  LoadSpec load;
  std::uint64_t tie_seed = 0;
  /// Captures the per-request obs::Journal (cleared at start; jsonl
  /// returned in the report). Costs memory at 10^4+ requests.
  bool journal = true;
  /// When set, the sampled plan is also written here (replayable via
  /// LoadSpec::trace_path).
  std::string trace_out;
};

struct ServingReport {
  std::size_t sed_count = 0;
  std::size_t arrivals = 0;
  std::size_t completed = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  double makespan_s = 0.0;  ///< first submit -> last completion (virtual)
  double requests_per_sec = 0.0;  ///< ok / makespan (virtual seconds)
  double p50_s = 0.0;             ///< end-to-end latency quantiles
  double p99_s = 0.0;
  std::uint64_t events = 0;  ///< DES events executed
  double wall_s = 0.0;       ///< host seconds the run took
  std::uint64_t science_digest = 0;
  std::uint64_t state_hash = 0;
  diet::Agent::PeerStats peer;  ///< summed over all MAs
  std::string journal_jsonl;    ///< when config.journal
};

ServingReport run_serving(const ServingConfig& config);

}  // namespace gc::loadgen
