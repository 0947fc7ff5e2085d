// The Section 5 experiment, runnable and configurable.
//
// Deploys DIET on the modeled Grid'5000 platform (1 MA, 6 LAs, 11 SEDs x
// 16 machines), submits the 128^3 / 100 Mpc/h first-part simulation, then
// the simultaneous sub-simulations, and prints one view (--view) of that
// single run; every other flag applies to whichever view is printed:
//
//   report (default)  the Section 5.2 headline numbers (T1), the per-SED
//                     distribution (Figure 4 right) and latency percentiles
//   gantt             Figure 4 left: ASCII Gantt chart plus a CSV job list
//   fig5              Figure 5: the per-request finding-time and latency
//                     series plus their summary against the paper's numbers
//
//   ./zoom_campaign                      # the paper's exact campaign
//   ./zoom_campaign --view gantt         # Figure 4 left of the same run
//   ./zoom_campaign --subsims 30 --policy mct --seed 3
//   ./zoom_campaign --machines 32        # what 32-machine SEDs would do
//   ./zoom_campaign --fault-sed 7 --fault-at 600   # kill a SED at t=600s
//   ./zoom_campaign --fault-plan mixed --fault-seed 3   # chaos run
//   ./zoom_campaign --trace out.json     # Perfetto trace of the campaign
//   ./zoom_campaign --journal j.jsonl    # per-request phase journal
//   ./zoom_campaign --timeseries t.jsonl --metrics-interval 30
//                                        # metrics sampled every 30 sim-s
//   ./zoom_campaign --tie-seed 5         # scramble same-time event order
//                                        # (results must not change)
//   ./zoom_campaign --persistence persistent --policy mct-data
//                                        # DTM: replica catalog + locality
//   ./zoom_campaign --mas 2 --digest     # federated: 2 MA hierarchies,
//                                        # print the science digest
//   ./zoom_campaign --contention --wan-scale 0.05
//                                        # flow-model network: transfers
//                                        # fair-share the narrowed WAN
//   ./zoom_campaign --contention --wan-streams 4 --wan-per-stream 2e6
//                                        # MPWide-style striped transfers
//                                        # on a lossy (per-stream-capped)
//                                        # backbone
//
// Fault plans (--fault-plan, or the GC_FAULT_PLAN environment variable)
// are spelled "preset[,key=value...]" with presets none, drop-only,
// crash-only, and mixed; --fault-seed (or GC_FAULT_SEED) makes the whole
// chaos run replayable bit-for-bit. See DESIGN.md, "Fault model".
//
// Data management (--persistence, or GC_PERSISTENCE) selects volatile
// (the default: every request ships its input, outputs come home in
// full) or persistent (inputs and service outputs stay on the SEDs,
// registered in the hierarchy's replica catalog; repeat requests ship
// id-only references and missing data travels SED-to-SED). --replicas N
// (GC_REPLICAS) additionally write-replicates fresh persistent data to N
// SEDs. See DESIGN.md, "Data management".
//
// Network contention (--contention, or GC_CONTENTION=1) switches bulk
// transfers from the closed-form latency+bytes/bw cost to the flow model:
// concurrent transfers fair-share every link on their route and NFS
// staging charges the cluster disks. --wan-scale F (GC_WAN_SCALE)
// narrows the RENATER backbone, --wan-streams K (GC_WAN_STREAMS) stripes
// bulk dtm pushes over K parallel streams, --wan-per-stream B caps each
// stream at B bytes/s (the lossy-WAN TCP ceiling striping exists to
// beat). See DESIGN.md, "Network & disk model".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "obs/session.hpp"
#include "workflow/campaign.hpp"

namespace {

using gc::workflow::CampaignConfig;
using gc::workflow::CampaignResult;

// Abandoned attempts of a chaos run never reached the started stage, and
// a retried call can start executing (first attempt) before its final
// find completes (later attempt) — both would corrupt latency statistics.
bool reached_start(const gc::diet::Client::CallRecord& record) {
  return record.found >= 0.0 && record.started >= record.found;
}

// Figure 4 (left): when each sub-simulation ran on which SED, as one ASCII
// Gantt row per SED plus a CSV job list so the figure can be replotted.
void print_gantt(const CampaignConfig& config, const CampaignResult& result) {
  double t_end = 0.0;
  const double t_begin = result.zoom1.submitted;
  for (const auto& sed : result.seds) {
    for (const auto& job : sed.jobs) t_end = std::max(t_end, job.finished);
  }
  constexpr int kColumns = 96;
  const double scale = (t_end - t_begin) / kColumns;

  std::printf("Fig4-left: Gantt chart of the %d sub-simulations over %zu "
              "SEDs (one column = %s)\n",
              config.sub_simulations, result.seds.size(),
              gc::format_duration(scale).c_str());
  std::printf("%-22s |%-*s|\n", "SED", kColumns, " time ->");
  for (const auto& sed : result.seds) {
    std::string row(kColumns, '.');
    for (const auto& job : sed.jobs) {
      const int c0 = std::max(
          0, static_cast<int>((job.started - t_begin) / scale));
      const int c1 = std::min(
          kColumns - 1, static_cast<int>((job.finished - t_begin) / scale));
      for (int c = c0; c <= c1; ++c) {
        // Alternate job glyphs so adjacent jobs stay distinguishable.
        row[static_cast<std::size_t>(c)] =
            job.service == "ramsesZoom1" ? '1'
                                         : (job.call_id % 2 == 0 ? '#' : '=');
      }
    }
    std::printf("%-22s |%s|\n", sed.name.c_str(), row.c_str());
  }

  std::printf("\nFig4-left CSV: sed,cluster,site,call_id,service,arrived_s,"
              "started_s,finished_s\n");
  for (const auto& sed : result.seds) {
    for (const auto& job : sed.jobs) {
      std::printf("%s,%s,%s,%llu,%s,%.3f,%.3f,%.3f\n", sed.name.c_str(),
                  sed.cluster.c_str(), sed.site.c_str(),
                  static_cast<unsigned long long>(job.call_id),
                  job.service.c_str(), job.arrived - t_begin,
                  job.started - t_begin, job.finished - t_begin);
    }
  }
}

// Figure 5: the finding time is "low and nearly constant (49.8ms on
// average)"; the latency (data transfer plus service initiation, queue
// wait included) "grows rapidly" because the simultaneous requests
// serialize on 11 SEDs; service initiation averages 20.8ms on the first
// executions; the total middleware overhead is ~7s for 101 simulations.
void print_fig5(const CampaignResult& result) {
  std::printf("Fig5 series: request,finding_ms,latency_s (latency plotted in "
              "log scale in the paper)\n");
  std::vector<double> latencies;
  gc::RunningStats finding;
  for (std::size_t i = 0; i < result.zoom2.size(); ++i) {
    const auto& record = result.zoom2[i];
    if (!reached_start(record)) continue;
    const double find_ms = record.finding_time() * 1e3;
    const double latency_s = record.latency();
    finding.add(find_ms);
    latencies.push_back(latency_s);
    std::printf("%zu,%.2f,%.4f\n", i + 1, find_ms, latency_s);
  }
  if (latencies.empty()) return;

  // First-wave latencies: the requests served immediately (queue empty),
  // whose latency is data transfer + service initiation only — the
  // paper's "taken on the 12 firsts executions".
  std::sort(latencies.begin(), latencies.end());
  gc::RunningStats first_wave;
  for (std::size_t i = 0; i < latencies.size() && i < 11; ++i) {
    first_wave.add(latencies[i]);
  }

  std::printf("\nsummary (paper -> reproduced)\n");
  std::printf("finding time mean: 49.8ms -> %.1fms (min %.1f max %.1f)\n",
              finding.mean(), finding.min(), finding.max());
  std::printf("near-constant finding: stddev %.1fms (%.0f%% of mean)\n",
              finding.stddev(), 100.0 * finding.stddev() / finding.mean());
  std::printf("first-wave latency (xfer+init): ~20.8ms+xfer -> %s mean\n",
              gc::format_duration(first_wave.mean()).c_str());
  std::printf("max latency (queue wait dominated): %s\n",
              gc::format_duration(latencies.back()).c_str());
  std::printf("latency growth (max/min): %.0fx (log-scale curve)\n",
              latencies.back() / std::max(latencies.front(), 1e-9));
  std::printf("total overhead: ~7s -> %s\n",
              gc::format_duration(result.overhead_total).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);

  const std::string view = args.get("view", "report");
  if (view != "report" && view != "gantt" && view != "fig5") {
    std::fprintf(stderr, "unknown --view '%s' (report|gantt|fig5)\n",
                 view.c_str());
    return 2;
  }

  CampaignConfig config;
  config.sub_simulations = static_cast<int>(args.get_int("subsims", 100));
  config.policy = args.get("policy", "default");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  config.tie_break_seed =
      static_cast<std::uint64_t>(args.get_int("tie-seed", 0));
  config.machines_per_sed = static_cast<int>(args.get_int("machines", 16));
  config.resolution = static_cast<int>(args.get_int("resolution", 128));
  config.nb_box = static_cast<int>(args.get_int("nbbox", 2));
  config.fault_sed_index = static_cast<int>(args.get_int("fault-sed", -1));
  config.fault_at_s = args.get_double("fault-at", 0.0);
  if (config.fault_sed_index >= 0) {
    // Survive the injected failure: bound calls and allow resubmission.
    config.call_deadline_s = args.get_double("deadline", 16.0 * 3600.0);
    config.max_retries = static_cast<int>(args.get_int("retries", 2));
  }

  config.fault_plan = args.get("fault-plan", "");
  if (config.fault_plan.empty()) {
    if (const char* env_plan = std::getenv("GC_FAULT_PLAN")) {
      config.fault_plan = env_plan;
    }
  }
  long fault_seed_default = 1;
  if (const char* env_seed = std::getenv("GC_FAULT_SEED")) {
    fault_seed_default = std::atol(env_seed);
  }
  config.fault_seed = static_cast<std::uint64_t>(
      args.get_int("fault-seed", fault_seed_default));
  const bool chaos =
      !config.fault_plan.empty() && config.fault_plan != "none";

  // Federation: --mas N splits the hierarchy into N peered MA shards.
  // --digest prints the science digest even fault-free (it is only in the
  // chaos report otherwise), so runs can be compared across --mas values;
  // the default report stays byte-identical to the pre-federation binary.
  config.federation_mas = static_cast<int>(args.get_int("mas", 1));
  if (config.federation_mas < 1) {
    std::fprintf(stderr, "--mas must be at least 1 (got %d)\n",
                 config.federation_mas);
    return 2;
  }
  const bool print_digest = args.has("digest");

  std::string persistence = args.get("persistence", "");
  if (persistence.empty()) {
    if (const char* env_mode = std::getenv("GC_PERSISTENCE")) {
      persistence = env_mode;
    }
  }
  const bool persistent = persistence == "persistent";
  if (!persistence.empty() && !persistent && persistence != "volatile") {
    std::fprintf(stderr, "unknown --persistence '%s' (volatile|persistent)\n",
                 persistence.c_str());
    return 2;
  }
  long replicas_default = 1;
  if (const char* env_replicas = std::getenv("GC_REPLICAS")) {
    replicas_default = std::atol(env_replicas);
  }
  config.replicas =
      static_cast<int>(args.get_int("replicas", replicas_default));
  if (persistent) {
    config.input_mode = gc::diet::Persistence::kPersistent;
    config.services.output_mode = gc::diet::Persistence::kPersistent;
  }

  // Contention flow model + WAN engine. Flags win; GC_ envs supply
  // defaults so scripted sweeps need no argv surgery.
  bool contention_default = false;
  if (const char* env_c = std::getenv("GC_CONTENTION")) {
    contention_default = std::atol(env_c) != 0;
  }
  config.contention = args.has("contention") || contention_default;
  long streams_default = 1;
  if (const char* env_s = std::getenv("GC_WAN_STREAMS")) {
    streams_default = std::atol(env_s);
  }
  config.sed_tuning.wan.streams =
      static_cast<int>(args.get_int("wan-streams", streams_default));
  if (config.sed_tuning.wan.streams < 1) {
    std::fprintf(stderr, "--wan-streams must be at least 1 (got %d)\n",
                 config.sed_tuning.wan.streams);
    return 2;
  }
  double wan_scale_default = 1.0;
  if (const char* env_ws = std::getenv("GC_WAN_SCALE")) {
    wan_scale_default = std::atof(env_ws);
  }
  config.wan_bandwidth_scale = args.get_double("wan-scale", wan_scale_default);
  config.wan_per_stream_bps = args.get_double("wan-per-stream", 0.0);

  const CampaignResult result = gc::workflow::run_grid5000_campaign(config);
  if (view == "gantt") {
    print_gantt(config, result);
    return 0;
  }
  if (view == "fig5") {
    print_fig5(result);
    return 0;
  }

  std::printf("zoom campaign: %d sub-simulations of %d^3 particles, "
              "%d nested boxes, policy '%s', %d machines/SED\n\n",
              config.sub_simulations, config.resolution, config.nb_box,
              config.policy.c_str(), config.machines_per_sed);
  std::printf("first part (ramsesZoom1) : %s on %s\n",
              gc::format_duration(result.part1_duration).c_str(),
              result.zoom1.sed_name.c_str());
  std::printf("second part mean exec    : %s\n",
              gc::format_duration(result.part2_mean_exec).c_str());
  std::printf("total experiment         : %s\n",
              gc::format_duration(result.makespan).c_str());
  std::printf("sequential estimate      : %s (speedup %.2fx)\n",
              gc::format_duration(result.sequential_estimate).c_str(),
              result.sequential_estimate / result.makespan);
  std::printf("mean finding time        : %s\n",
              gc::format_duration(result.finding_mean).c_str());
  std::printf("total middleware overhead: %s\n",
              gc::format_duration(result.overhead_total).c_str());
  std::printf("failed calls             : %llu (%llu resubmissions)\n",
              static_cast<unsigned long long>(result.failed_calls),
              static_cast<unsigned long long>(result.resubmissions));
  std::printf("network traffic          : %s in %llu messages\n",
              gc::format_bytes(result.network_bytes).c_str(),
              static_cast<unsigned long long>(result.network_messages));
  if (config.federation_mas > 1) {
    std::printf("federation               : %d MAs, %llu peer forwards, "
                "%llu peer replies\n",
                config.federation_mas,
                static_cast<unsigned long long>(result.federation_forwards),
                static_cast<unsigned long long>(result.federation_replies));
  }
  if (print_digest) {
    std::printf("science digest           : %016llx\n",
                static_cast<unsigned long long>(result.science_digest));
  }
  // Printed only under --contention so the default report stays
  // byte-identical to the pre-flow-model harness.
  if (config.contention) {
    std::printf("network contention       : %llu flows (peak %llu "
                "concurrent), wan x%.2f, %d stream%s\n",
                static_cast<unsigned long long>(result.flows_completed),
                static_cast<unsigned long long>(result.peak_active_flows),
                config.wan_bandwidth_scale, config.sed_tuning.wan.streams,
                config.sed_tuning.wan.streams == 1 ? "" : "s");
  }
  // Printed only under --persistence so the default report stays
  // byte-identical to the pre-DTM harness.
  if (persistent) {
    std::printf("inter-site (WAN) traffic : %s (persistent data, %d "
                "replica%s)\n",
                gc::format_bytes(result.wan_bytes).c_str(), config.replicas,
                config.replicas == 1 ? "" : "s");
  }
  std::printf("\n");

  if (chaos) {
    std::printf("fault plan '%s' (seed %llu):\n", config.fault_plan.c_str(),
                static_cast<unsigned long long>(config.fault_seed));
    std::printf("  messages dropped/duplicated/delayed : %llu / %llu / %llu\n",
                static_cast<unsigned long long>(result.messages_dropped),
                static_cast<unsigned long long>(result.messages_duplicated),
                static_cast<unsigned long long>(result.messages_delayed));
    std::printf("  SED crashes %llu (restarts %llu), LA deaths %llu, "
                "isolations %llu\n",
                static_cast<unsigned long long>(result.sed_crashes),
                static_cast<unsigned long long>(result.sed_restarts),
                static_cast<unsigned long long>(result.la_deaths),
                static_cast<unsigned long long>(result.sed_isolations));
    std::printf("  heartbeat evictions %llu\n",
                static_cast<unsigned long long>(result.heartbeat_evictions));
    std::printf("  science digest %016llx\n\n",
                static_cast<unsigned long long>(result.science_digest));
  }

  std::printf("%-22s %-10s %6s %9s %16s\n", "SED", "site", "power",
              "requests", "busy");
  for (const auto& sed : result.seds) {
    std::printf("%-22s %-10s %6.2f %9llu %16s\n", sed.name.c_str(),
                sed.site.c_str(), sed.machine_power,
                static_cast<unsigned long long>(sed.requests),
                gc::format_duration(sed.busy_seconds).c_str());
  }

  // Latency percentiles (the log-scale curve of Figure 5 in four numbers).
  std::vector<double> latencies;
  for (const auto& record : result.zoom2) {
    if (reached_start(record)) latencies.push_back(record.latency());
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    auto at = [&](double frac) {
      return latencies[static_cast<std::size_t>(
          frac * static_cast<double>(latencies.size() - 1))];
    };
    std::printf("\nlatency (xfer + queue + init): min %s, median %s, "
                "p90 %s, max %s\n",
                gc::format_duration(at(0.0)).c_str(),
                gc::format_duration(at(0.5)).c_str(),
                gc::format_duration(at(0.9)).c_str(),
                gc::format_duration(at(1.0)).c_str());
  }
  return 0;
}
