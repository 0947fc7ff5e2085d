// Per-layer probes the traced run uses: counters read from obs::Metrics,
// a timing wrapper around the real scheduling policy, and timed calls
// into the codec (diet/protocol) and the flow model (net::FlowModel).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "sched/policy.hpp"

namespace pb {

/// Sum of a counter over all its label sets.
std::uint64_t counter_sum(const gc::obs::MetricsSnapshot& snapshot,
                          const std::string& name);

/// What the timing policy wrapper saw.
struct RankStats {
  std::uint64_t calls = 0;
  std::uint64_t candidates = 0;
  std::vector<double> seconds;  ///< one per rank() call
};

/// A policy that delegates every call to the real one and times rank().
std::unique_ptr<gc::sched::Policy> make_timed_policy(
    std::unique_ptr<gc::sched::Policy> inner, RankStats& stats,
    SpanLog& spans);

/// Message mix of one run: protocol message type -> count, from the
/// "msg:<type>" spans obs::Tracer records on every SimEnv delivery.
/// Returns an empty mix when the tracer recorded nothing.
std::map<std::uint32_t, std::uint64_t> traced_message_mix();

/// Codec cost over a corpus with the given mix. Types the diet/protocol
/// codec does not cover (the dtm messages) count in `total` only.
struct CodecCost {
  double encode_ns = 0.0;  ///< mix-weighted mean per message
  double decode_ns = 0.0;
  std::uint64_t covered = 0;  ///< messages of a timed type
  std::uint64_t total = 0;
};
CodecCost time_codec(const std::map<std::uint32_t, std::uint64_t>& mix,
                     SpanLog& spans);

/// Median microseconds of one FlowModel::start() on the Grid'5000 routes
/// when `active_flows` flows are already in progress.
double time_flow_start_us(int active_flows, double wan_bandwidth_scale,
                          SpanLog& spans);

}  // namespace pb
