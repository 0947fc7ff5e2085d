// The discrete-event workloads: the paper's Section 5 campaign, the same
// campaign under network congestion, and federated serving on a 1024-SED
// fat-tree. All three run the simulator through its public entry points
// (workflow::run_grid5000_campaign, loadgen::run_serving) on one thread.
#include <algorithm>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "check/statehash.hpp"
#include "layers.hpp"
#include "loadgen/serving.hpp"
#include "obs/trace.hpp"
#include "platform/generator.hpp"
#include "workflow/campaign.hpp"

namespace pb {

namespace {

namespace obs = gc::obs;

/// Seeds whose outputs are pinned below; any other seed only checks that
/// every repetition reproduces the first.
constexpr std::uint64_t kCampaignSeed = 7;
constexpr std::uint64_t kServingSeed = 42;

// Science digests (and the serving state hash) pinned per size.
constexpr std::uint64_t kCampaignDigest = 0xa97a67a8d32bca6eULL;
constexpr std::uint64_t kCampaignDigestTiny = 0xf4a58abe6945215dULL;
constexpr std::uint64_t kCongestedDigest = 0xe977ace6428dff64ULL;
constexpr std::uint64_t kCongestedDigestTiny = 0xa70322902775b1a4ULL;
constexpr std::uint64_t kServingDigest = 0x0db84937ce39d881ULL;
constexpr std::uint64_t kServingStateHash = 0x06d31ba72c255087ULL;
constexpr std::uint64_t kServingDigestTiny = 0x1d18977e06011158ULL;
constexpr std::uint64_t kServingStateHashTiny = 0x212668ce49c6e2fbULL;

/// The campaign writes its namelist and per-job outputs under this
/// relative directory (inside the benchmark's checkout). Same length as
/// the stock "/tmp/gridcosmo", so every modeled payload — and hence the
/// simulation — is byte-for-byte the stock zoom_campaign run.
const char* const kWorkDir = ".bench_out/gcw";

constexpr int kCampaignSetupReps = 201;
constexpr int kServingSetupReps = 21;

/// obs::Metrics counters the traced repetitions read, summed over labels.
const char* const kCounters[] = {
    "des_events_executed_total",  "des_events_scheduled_total",
    "des_events_cancelled_total", "net_messages_total",
    "net_bytes_total",            "diet_agent_requests_total",
    "diet_client_retries_total",  "diet_dtm_hits_total",
    "diet_dtm_misses_total",      "diet_dtm_bytes_moved_total",
    "diet_dtm_bytes_saved_total", "diet_dtm_evictions_total"};

using Counters = std::map<std::string, double>;

Counters read_counters() {
  const obs::MetricsSnapshot snapshot = obs::Metrics::instance().snapshot();
  Counters out;
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(counter_sum(snapshot, name));
  }
  return out;
}

/// Digest gates for one repetition: equal to the pin at the canonical
/// seed, and equal to the run's first repetition at every seed.
bool check_value(Outcome& out, const std::string& gate, std::uint64_t value,
                 std::uint64_t pin, bool pin_applies,
                 std::optional<std::uint64_t>& first) {
  bool ok = true;
  if (pin_applies) ok = out.gate(gate + "_pinned", value == pin) && ok;
  if (!first) first = value;
  ok = out.gate(gate + "_repeat", value == *first) && ok;
  return ok;
}

/// Counters a traced repetition leaves in obs::Metrics, plus the
/// benchmark's own layer timings, as per-layer metrics.
struct DesLayers {
  Counters counters;
  double calls = 0.0;          ///< DIET calls in the traced repetition
  double rep_s = 0.0;          ///< median untraced repetition seconds
  double trace_overhead = 0.0;
  CodecCost codec;
  std::uint64_t flows = 0;
  std::uint64_t flow_peak = 0;
  double flow_start_us = 0.0;
  std::uint64_t peer_forwards = 0;
  std::uint64_t resubmissions = 0;
  std::uint64_t rank_calls = 0;       ///< last traced repetition
  std::uint64_t rank_candidates = 0;  ///< last traced repetition
  std::vector<double> rank_s;         ///< every traced rank() call
  double platform_build_s = 0.0;
  double plan_s = 0.0;
};

void emit_des_layers(Outcome& out, const DesLayers& d) {
  const auto count = [&d](const char* name) {
    const auto it = d.counters.find(name);
    return it == d.counters.end() ? 0.0 : it->second;
  };
  const double events = count("des_events_executed_total");
  const double scheduled = count("des_events_scheduled_total");
  const double messages = count("net_messages_total");
  out.metric("des.events", events, "count");
  out.metric("des.events_per_call", events / d.calls, "count");
  out.metric("des.events_per_s", events / d.rep_s, "1/s");
  out.metric("des.cancelled_ratio",
             scheduled > 0 ? count("des_events_cancelled_total") / scheduled
                           : 0.0,
             "ratio");
  out.metric("net.messages_per_call", messages / d.calls, "count");
  out.metric("net.bytes_per_call", count("net_bytes_total") / d.calls, "B");
  out.metric("net.codec_encode_ns", d.codec.encode_ns, "ns");
  out.metric("net.codec_decode_ns", d.codec.decode_ns, "ns");
  out.metric("net.codec_share_computed",
             messages * (d.codec.encode_ns + d.codec.decode_ns) * 1e-9 /
                 d.rep_s,
             "ratio");
  out.metric("net.flows", static_cast<double>(d.flows), "count");
  out.metric("net.flow_peak", static_cast<double>(d.flow_peak), "count");
  out.metric("net.flow_start_us", d.flow_start_us, "us");
  out.metric("diet.agent_requests", count("diet_agent_requests_total"),
             "count");
  out.metric("diet.peer_forwards", static_cast<double>(d.peer_forwards),
             "count");
  out.metric("diet.client_retries", count("diet_client_retries_total"),
             "count");
  out.metric("diet.resubmissions", static_cast<double>(d.resubmissions),
             "count");
  out.metric("sched.rank_calls", static_cast<double>(d.rank_calls), "count");
  out.metric("sched.rank_candidates", static_cast<double>(d.rank_candidates),
             "count");
  out.metric("sched.rank_us_p50", median(d.rank_s) * 1e6, "us");
  const double hits = count("diet_dtm_hits_total");
  const double misses = count("diet_dtm_misses_total");
  out.metric("dtm.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  out.metric("dtm.bytes_moved", count("diet_dtm_bytes_moved_total"), "B");
  out.metric("dtm.bytes_saved", count("diet_dtm_bytes_saved_total"), "B");
  out.metric("dtm.evictions", count("diet_dtm_evictions_total"), "count");
  out.metric("platform.build_s", d.platform_build_s, "s");
  out.metric("loadgen.plan_s", d.plan_s, "s");
  out.metric("obs.trace_overhead", d.trace_overhead, "x");
  out.note("codec_messages_covered",
           std::to_string(d.codec.covered) + "/" +
               std::to_string(d.codec.total));
}

void emit_end_to_end(Outcome& out, std::uint64_t ok_calls,
                     const std::vector<double>& rep_s, double setup_s) {
  // Per median repetition, so a few repetitions slowed by the host do not
  // move it.
  const double ok_per_rep =
      static_cast<double>(ok_calls) / static_cast<double>(rep_s.size());
  out.metric("calls_per_s", ok_per_rep / median(rep_s), "1/s");
  out.metric("rep_s_p50", median(rep_s), "s");
  out.metric("setup_s", setup_s, "s");
  out.note("reps", std::to_string(rep_s.size()));
}

/// Runs `rep` with the tracer recording every message; returns the mix.
template <class Rep>
std::map<std::uint32_t, std::uint64_t> probe_message_mix(Rep&& rep) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  rep();
  tracer.set_enabled(false);
  auto mix = traced_message_mix();
  tracer.clear();
  return mix;
}

gc::workflow::CampaignConfig campaign_config(const Options& o,
                                             bool congested) {
  gc::workflow::CampaignConfig c;
  c.seed = o.seed;
  c.sub_simulations = o.tiny ? 22 : 100;
  c.services.work_dir = kWorkDir;
  if (congested) {
    // bench_network's "persistent+mct-data" row: a 2 GiB IC archive per
    // request over a RENATER backbone narrowed to 2%, write-replicated.
    c.policy = "mct-data";
    c.input_mode = gc::diet::Persistence::kPersistent;
    c.services.output_mode = gc::diet::Persistence::kPersistent;
    c.replicas = 2;
    c.shipped_input_bytes = std::int64_t{2048} << 20;
    c.contention = true;
    c.wan_bandwidth_scale = 0.02;
    c.resolution = 64;
    c.sed_tuning.data_fetch_timeout_s = 4.0 * 3600.0;
  }
  return c;
}

// -- campaign repetitions in child processes ---------------------------
//
// Each campaign repetition runs in a process forked from the runner, the
// way zoom_campaign runs one campaign per process. The sim services write
// one job directory per call, numbered from 0 in every process, so from
// the second repetition on they overwrite the same files instead of
// creating new ones. Creating inodes on a VM disk mounted with `discard`
// measured 0.3-1.3 ms each, swinging 2-4x from one minute to the next,
// which would bury the simulator's own ~10 ms per campaign. For the same
// reason DES repetitions are timed in CPU seconds of the simulating
// thread (the wall clock is kept as a note).

enum class RepMode { kPlain, kTraced, kProbe };

/// What one campaign repetition reports back from its process.
struct CampaignRep {
  double seconds = 0.0;       ///< CPU seconds of the campaign call
  double wall_seconds = 0.0;  ///< the same call on the wall clock
  std::uint64_t calls = 0;
  std::uint64_t failed_calls = 0;
  std::uint64_t digest = 0;
  std::uint64_t flows = 0;
  std::uint64_t flow_peak = 0;
  std::uint64_t forwards = 0;
  std::uint64_t resubmissions = 0;
  double makespan = 0.0;
  double peak_rss_mib = 0.0;
  Counters counters;                         ///< kTraced
  RankStats rank;                            ///< kTraced
  std::map<std::uint32_t, std::uint64_t> mix;  ///< kProbe
};

/// Child side: runs the campaign and writes the report as text lines.
std::string campaign_rep_child(gc::workflow::CampaignConfig config,
                               RepMode mode, SpanLog& spans) {
  const std::size_t span_base = spans.spans().size();
  RankStats rank;
  if (mode == RepMode::kTraced) {
    obs::Metrics::instance().set_enabled(true);
    obs::Metrics::instance().reset();
    const std::string policy = config.policy;
    config.policy_factory = [policy, &rank, &spans]() {
      return make_timed_policy(gc::sched::make_policy(policy), rank, spans);
    };
  }
  gc::workflow::CampaignResult r;
  double cpu_seconds = 0.0;
  double seconds = 0.0;
  auto run = [&]() {
    ScopedSpan span(spans, "workflow.run_grid5000_campaign");
    const double t0 = now_s();
    const double c0 = thread_cpu_s();
    r = gc::workflow::run_grid5000_campaign(config);
    cpu_seconds = thread_cpu_s() - c0;
    seconds = now_s() - t0;
  };
  std::map<std::uint32_t, std::uint64_t> mix;
  if (mode == RepMode::kProbe) {
    mix = probe_message_mix(run);
  } else {
    run();
  }

  std::ostringstream text;
  text.precision(17);
  text << "rep " << cpu_seconds << ' ' << seconds << ' '
       << 1 + r.zoom2.size() << ' '
       << r.failed_calls << ' ' << r.science_digest << ' '
       << r.flows_completed << ' ' << r.peak_active_flows << ' '
       << r.federation_forwards << ' ' << r.resubmissions << ' '
       << r.makespan << ' ' << peak_rss_mib() << '\n';
  if (mode == RepMode::kTraced) {
    for (const auto& [name, value] : read_counters()) {
      text << "counter " << name << ' ' << value << '\n';
    }
    text << "rank " << rank.calls << ' ' << rank.candidates << '\n';
    for (const double s : rank.seconds) text << "rank_s " << s << '\n';
  }
  for (const auto& [type, count] : mix) {
    text << "mix " << type << ' ' << count << '\n';
  }
  // Spans recorded here continue the parent's log index for index.
  for (std::size_t i = span_base; i < spans.spans().size(); ++i) {
    const SpanLog::Span& s = spans.spans()[i];
    text << "span " << s.parent << ' ' << s.start_s << ' ' << s.end_s << ' '
         << s.name << '\n';
  }
  return text.str();
}

/// Parent side: parses the child's report; nullopt when it is incomplete.
std::optional<CampaignRep> parse_campaign_rep(const std::string& text,
                                              SpanLog& spans) {
  std::istringstream in(text);
  std::string kind;
  CampaignRep rep;
  bool have_rep = false;
  while (in >> kind) {
    if (kind == "rep") {
      in >> rep.seconds >> rep.wall_seconds >> rep.calls >> rep.failed_calls >> rep.digest >>
          rep.flows >> rep.flow_peak >> rep.forwards >> rep.resubmissions >>
          rep.makespan >> rep.peak_rss_mib;
      have_rep = static_cast<bool>(in);
    } else if (kind == "counter") {
      std::string name;
      in >> name >> rep.counters[name];
    } else if (kind == "rank") {
      in >> rep.rank.calls >> rep.rank.candidates;
    } else if (kind == "rank_s") {
      rep.rank.seconds.emplace_back();
      in >> rep.rank.seconds.back();
    } else if (kind == "mix") {
      std::uint32_t type = 0;
      in >> type >> rep.mix[type];
    } else if (kind == "span") {
      SpanLog::Span s;
      in >> s.parent >> s.start_s >> s.end_s >> s.name;
      spans.add(s);
    } else {
      return std::nullopt;
    }
  }
  if (!have_rep) return std::nullopt;
  return rep;
}

}  // namespace

Outcome run_campaign(const Options& o, SpanLog& spans, bool congested) {
  const std::string label = congested ? "congested" : "campaign";
  Outcome out;
  const gc::workflow::CampaignConfig config = campaign_config(o, congested);

  // Set-up: the public functions a campaign is built from.
  std::vector<double> setup_s;
  std::vector<double> platform_s;
  for (int i = 0; i < kCampaignSetupReps; ++i) {
    ScopedSpan setup(spans, "setup");
    gc::platform::G5kOptions g5k_options;
    g5k_options.wan_bandwidth_scale = config.wan_bandwidth_scale;
    g5k_options.wan_per_stream_bps = config.wan_per_stream_bps;
    const double t0 = now_s();
    const long build = spans.open("platform.make_grid5000");
    const gc::platform::G5kDeployment g5k =
        gc::platform::make_grid5000(config.machines_per_sed, g5k_options);
    spans.close(build);
    const double t1 = now_s();
    const long deploy = spans.open("workflow.deployment_spec_from_g5k");
    const gc::diet::DeploymentSpec spec =
        gc::workflow::deployment_spec_from_g5k(g5k, config);
    spans.close(deploy);
    setup_s.push_back(now_s() - t0);
    platform_s.push_back(t1 - t0);
    out.gate(label + ".deployment_shape",
             g5k.seds.size() == 11 && g5k.las.size() == 6 &&
                 spec.seds.size() == 11);
  }

  const bool pin_applies = o.seed == kCampaignSeed;
  const std::uint64_t pin =
      pinned(o, congested ? (o.tiny ? kCongestedDigestTiny : kCongestedDigest)
                          : (o.tiny ? kCampaignDigestTiny : kCampaignDigest));
  std::optional<std::uint64_t> first_digest;
  std::uint64_t ok_calls = 0;
  std::vector<double> walls;
  CampaignRep last;

  // One gated repetition; returns its campaign seconds.
  auto rep = [&](RepMode mode) {
    const long span = spans.open("campaign.child");
    const std::optional<std::string> text = run_in_child(
        [&]() { return campaign_rep_child(config, mode, spans); });
    spans.close(span);
    std::optional<CampaignRep> r;
    if (text) r = parse_campaign_rep(*text, spans);
    const std::uint64_t calls =
        1 + static_cast<std::uint64_t>(config.sub_simulations);
    out.attempted += calls;
    if (!out.gate(label + ".child_completed", r.has_value())) {
      out.failed += calls;
      return 0.0;
    }
    const bool digest_ok = check_value(out, label + ".digest", r->digest, pin,
                                       pin_applies, first_digest);
    out.gate(label + ".no_failed_calls",
             r->failed_calls == 0 && r->calls == calls);
    const std::uint64_t failed = digest_ok ? r->failed_calls : calls;
    out.failed += failed;
    ok_calls += calls - failed;
    walls.push_back(r->wall_seconds);
    out.child_peak_rss_mib = std::max(out.child_peak_rss_mib, r->peak_rss_mib);
    last = std::move(*r);
    return last.seconds;
  };

  // Warm-up: the first repetition creates the job files the others
  // overwrite. Gated like every other, not timed.
  spans.set_enabled(false);
  rep(RepMode::kPlain);
  ok_calls = 0;
  walls.clear();

  if (!o.trace) {
    const std::vector<double> reps =
        repeat_for(o.seconds, 5, [&]() { return rep(RepMode::kPlain); });
    emit_end_to_end(out, ok_calls, reps, median(setup_s));
  } else {
    const std::vector<double> plain = repeat_for(
        0.4 * o.seconds, 3, [&]() { return rep(RepMode::kPlain); });
    spans.set_enabled(true);
    DesLayers d;
    const std::vector<double> traced =
        repeat_for(0.4 * o.seconds, 3, [&]() {
          const double seconds = rep(RepMode::kTraced);
          d.rank_s.insert(d.rank_s.end(), last.rank.seconds.begin(),
                          last.rank.seconds.end());
          return seconds;
        });
    d.counters = last.counters;
    d.rank_calls = last.rank.calls;
    d.rank_candidates = last.rank.candidates;
    d.calls = static_cast<double>(last.calls);
    d.rep_s = median(plain);
    d.trace_overhead = median(traced) / d.rep_s;
    d.flows = last.flows;
    d.flow_peak = last.flow_peak;
    d.peer_forwards = last.forwards;
    d.resubmissions = last.resubmissions;
    d.platform_build_s = median(platform_s);
    rep(RepMode::kProbe);
    d.codec = time_codec(last.mix, spans);
    d.flow_start_us = time_flow_start_us(static_cast<int>(last.flow_peak),
                                         config.wan_bandwidth_scale, spans);
    emit_des_layers(out, d);
  }
  out.note("rep_wall_s_p50", std::to_string(median(walls)));
  out.note("science_digest", hex(last.digest));
  out.note("makespan_s", std::to_string(last.makespan));
  return out;
}

Outcome run_serving(const Options& o, SpanLog& spans) {
  Outcome out;
  gc::loadgen::ServingConfig config;
  config.mas = 2;
  config.load.requests_per_client = 2;
  config.load.seed = o.seed;
  config.load.profiles = gc::loadgen::default_mix();
  config.journal = true;
  if (o.tiny) {
    // bench_serving --quick's fabric.
    config.topology.pods = 4;
    config.topology.clusters_per_pod = 2;
    config.topology.seds_per_cluster = 4;
    config.topology.machines_per_sed = 2;
    config.load.clients = 200;
    config.load.arrival_rate_hz = 2000.0;
  } else {
    config.load.clients = 2500;
    config.load.arrival_rate_hz = 4000.0;
  }
  const std::size_t seds = static_cast<std::size_t>(
      config.topology.pods * config.topology.clusters_per_pod *
      config.topology.seds_per_cluster);

  // Set-up: the fabric and the arrival plan, as run_serving builds them.
  std::vector<double> setup_s;
  std::vector<double> platform_s;
  std::vector<double> plan_s;
  std::size_t planned = 0;
  for (int i = 0; i < kServingSetupReps; ++i) {
    ScopedSpan setup(spans, "setup");
    const double t0 = now_s();
    const long build = spans.open("platform.make_fattree");
    const gc::platform::GeneratedPlatform fabric =
        gc::platform::make_fattree(config.topology);
    spans.close(build);
    const double t1 = now_s();
    const long plan_span = spans.open("loadgen.plan_arrivals");
    const std::vector<gc::loadgen::Arrival> plan =
        gc::loadgen::plan_arrivals(config.load, 0.0);
    spans.close(plan_span);
    const double t2 = now_s();
    setup_s.push_back(t2 - t0);
    platform_s.push_back(t1 - t0);
    plan_s.push_back(t2 - t1);
    std::size_t fabric_seds = 0;
    for (const auto& cluster : fabric.clusters) {
      fabric_seds += cluster.sed_nodes.size();
    }
    out.gate("serving.fabric_shape", fabric_seds == seds);
    planned = plan.size();
  }

  const bool pin_applies = o.seed == kServingSeed;
  const std::uint64_t digest_pin =
      pinned(o, o.tiny ? kServingDigestTiny : kServingDigest);
  const std::uint64_t state_pin =
      o.tiny ? kServingStateHashTiny : kServingStateHash;
  std::optional<std::uint64_t> first_digest;
  std::optional<std::uint64_t> first_state;
  std::optional<std::uint64_t> first_latency;
  std::uint64_t ok_calls = 0;
  std::vector<double> walls;
  gc::loadgen::ServingReport last;

  auto rep = [&]() {
    const long span = spans.open("loadgen.run_serving");
    const double t0 = now_s();
    const double c0 = thread_cpu_s();
    gc::loadgen::ServingReport r = gc::loadgen::run_serving(config);
    const double cpu = thread_cpu_s() - c0;
    walls.push_back(now_s() - t0);
    spans.close(span);

    out.attempted += r.arrivals;
    bool ok = check_value(out, "serving.digest", r.science_digest, digest_pin,
                          pin_applies, first_digest);
    ok = check_value(out, "serving.state_hash", r.state_hash, state_pin,
                     pin_applies, first_state) && ok;
    // Virtual latency quantiles are behaviour: bit-identical every time.
    gc::check::Fnv latency;
    latency.d(r.p50_s);
    latency.d(r.p99_s);
    if (!first_latency) first_latency = latency.h;
    ok = out.gate("serving.latency_repeat", latency.h == *first_latency) && ok;
    ok = out.gate("serving.arrivals_match_plan", r.arrivals == planned) && ok;
    out.gate("serving.no_failed_calls", r.failed == 0 && r.ok == r.arrivals);
    const std::uint64_t failed = ok ? r.arrivals - r.ok : r.arrivals;
    out.failed += failed;
    ok_calls += r.arrivals - failed;
    last = std::move(r);
    return cpu;
  };

  if (!o.trace) {
    const std::vector<double> reps = repeat_for(o.seconds, 1, rep);
    emit_end_to_end(out, ok_calls, reps, median(setup_s));
  } else {
    spans.set_enabled(false);
    const std::vector<double> plain = repeat_for(0.4 * o.seconds, 1, rep);
    spans.set_enabled(true);
    obs::Metrics::instance().set_enabled(true);
    const std::vector<double> traced =
        repeat_for(0.4 * o.seconds, 1, [&]() {
          obs::Metrics::instance().reset();
          return rep();
        });
    DesLayers d;
    d.counters = read_counters();
    obs::Metrics::instance().set_enabled(false);
    d.calls = static_cast<double>(last.arrivals);
    d.rep_s = median(plain);
    d.trace_overhead = median(traced) / d.rep_s;
    d.peer_forwards = last.peer.forwards;
    d.platform_build_s = median(platform_s);
    d.plan_s = median(plan_s);

    // Recording every message of the full run would hold millions of
    // trace events; the mix comes from the same fabric and federation
    // under a tenth of the clients (so heartbeats weigh a little more).
    gc::loadgen::ServingConfig probe = config;
    probe.load.clients = std::max(1, config.load.clients / 10);
    probe.journal = false;
    d.codec = time_codec(probe_message_mix([&probe, &spans]() {
                           ScopedSpan span(spans, "loadgen.run_serving.probe");
                           gc::loadgen::run_serving(probe);
                         }),
                         spans);
    d.flow_start_us = time_flow_start_us(0, 1.0, spans);
    emit_des_layers(out, d);
  }
  out.note("rep_wall_s_p50", std::to_string(median(walls)));
  out.note("science_digest", hex(last.science_digest));
  out.note("state_hash", hex(last.state_hash));
  out.note("events", std::to_string(last.events));
  out.note("virtual_p50_s", std::to_string(last.p50_s));
  out.note("virtual_p99_s", std::to_string(last.p99_s));
  return out;
}

}  // namespace pb
