// Network contention ablation over the zoom campaign.
//
// Exercises the contention-aware network & disk model end to end: bulk
// transfers become fluid flows fair-sharing link capacity (net::FlowModel)
// instead of being priced on an idle network, and the dtm pull path runs
// the MPWide-style WAN engine (striped parallel streams).
//
// Three tables, all in virtual time (stdout is deterministic and is
// pasted verbatim into EXPERIMENTS.md):
//  - compat: contention off — the paper's closed-form costs; the flow
//    model must be invisible when disabled, so no flow may run.
//  - congested: the RENATER backbone narrowed to a sliver while every
//    request ships a full IC archive. Volatile mode drags every archive
//    across the congested WAN; persistent keeps bytes where they landed;
//    persistent + mct-data additionally steers repeat work toward replica
//    holders. The makespan separation is the win congestion amplifies.
//  - striping: a lossy long-fat WAN (per-stream TCP ceiling well below
//    the link) where a single-stream pull crawls at the ceiling and
//    MPWide-style striping restores the link rate.
//
// Usage:
//   bench_network           # the table, exit 0
//   bench_network --floor   # exit 1 unless the separation >= 20%, striping
//                           # beats single-stream by >= 1.05x, no row lost
//                           # calls, the compat row ran no flows and every
//                           # congested row ran some
#include <cstdio>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "workflow/campaign.hpp"

namespace {

struct Measure {
  double makespan = 0.0;
  double mean_latency = 0.0;
  std::int64_t wan_bytes = 0;
  std::uint64_t flows = 0;
  std::uint64_t peak_flows = 0;
  std::uint64_t failed = 0;
};

Measure run(const gc::workflow::CampaignConfig& config) {
  const gc::workflow::CampaignResult result =
      gc::workflow::run_grid5000_campaign(config);
  Measure m;
  m.makespan = result.makespan;
  for (const auto& record : result.zoom2) m.mean_latency += record.latency();
  if (!result.zoom2.empty()) {
    m.mean_latency /= static_cast<double>(result.zoom2.size());
  }
  m.wan_bytes = result.wan_bytes;
  m.flows = result.flows_completed;
  m.peak_flows = result.peak_active_flows;
  m.failed = result.failed_calls;
  return m;
}

void print_row(const char* label, const Measure& m) {
  std::printf("%-26s %12s %14s %8llu %6llu %10s\n", label,
              gc::format_duration(m.makespan).c_str(),
              gc::format_bytes(m.wan_bytes).c_str(),
              static_cast<unsigned long long>(m.flows),
              static_cast<unsigned long long>(m.peak_flows),
              gc::format_duration(m.mean_latency).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const bool floor = args.has("floor");
  const int sub_sims = static_cast<int>(args.get_int("subsims", 22));

  // The congested regime: every request ships a full IC archive while the
  // backbone is narrowed to 5% — RENATER on a bad day. The striping rows
  // instead keep the link wide but cap each stream at a lossy-TCP
  // ceiling, the regime MPWide's parallel streams were built for.
  const std::int64_t archive_bytes =
      args.get_int("archive-mib", 2048) * (std::int64_t{1} << 20);
  const double wan_scale = args.get_double("wan-scale", 0.02);
  const double per_stream_bps = 4e6;
  const int replicas = static_cast<int>(args.get_int("replicas", 2));

  auto base = [&](gc::diet::Persistence mode, const char* policy,
                  int replicas) {
    gc::workflow::CampaignConfig config;
    config.sub_simulations = sub_sims;
    config.policy = policy;
    config.input_mode = mode;
    config.services.output_mode = mode;
    config.replicas = replicas;
    config.shipped_input_bytes = archive_bytes;
    config.contention = true;
    config.wan_bandwidth_scale = wan_scale;
    // Half resolution: the zoom computes shrink ~8x, putting the campaign
    // in the transfer-bound regime this ablation is about (the compat row
    // keeps the stock paper settings).
    config.resolution = 64;
    // A congested pull of the archive takes far longer than the stock
    // 10 s timeout; without this every pull degrades to a full resend.
    config.sed_tuning.data_fetch_timeout_s = 4.0 * 3600.0;
    return config;
  };

  std::printf("bench_network: %d zoom2 requests, 11 SEDs, %s IC archive\n",
              sub_sims, gc::format_bytes(archive_bytes).c_str());
  std::printf("%-26s %12s %14s %8s %6s %10s\n", "mode", "makespan",
              "WAN bytes", "flows", "peak", "mean lat");

  // -- compat: contention off, stock campaign ---------------------------
  gc::workflow::CampaignConfig compat_config;
  compat_config.sub_simulations = sub_sims;
  const Measure compat = run(compat_config);
  print_row("compat (contention off)", compat);

  // -- congested: volatile vs persistent vs persistent+mct-data ---------
  const Measure congested_volatile =
      run(base(gc::diet::Persistence::kVolatile, "default", 1));
  print_row("congested volatile", congested_volatile);

  const Measure congested_persistent =
      run(base(gc::diet::Persistence::kPersistent, "default", 1));
  print_row("congested persistent", congested_persistent);

  const Measure congested_mct =
      run(base(gc::diet::Persistence::kPersistent, "mct-data", replicas));
  print_row("congested persistent+mct", congested_mct);

  const double separation =
      congested_volatile.makespan > 0.0
          ? (congested_volatile.makespan - congested_mct.makespan) /
                congested_volatile.makespan
          : 0.0;

  // -- striping: 1 vs 4 streams on a per-stream-capped (lossy) WAN ------
  // Persistent + default policy: repeat requests land away from the
  // holder, so every one pulls the archive through the WAN engine.
  Measure striped[2];
  const int stream_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    gc::workflow::CampaignConfig config =
        base(gc::diet::Persistence::kPersistent, "default", 1);
    config.wan_bandwidth_scale = 1.0;
    config.wan_per_stream_bps = per_stream_bps;
    config.sed_tuning.wan.streams = stream_counts[i];
    striped[i] = run(config);
    const char* label = i == 0 ? "lossy WAN, 1 stream" : "lossy WAN, 4 streams";
    print_row(label, striped[i]);
  }
  const double striping_gain =
      striped[1].makespan > 0.0 ? striped[0].makespan / striped[1].makespan
                                : 0.0;

  std::printf(
      "\nshape: congestion amplifies the data-locality win — volatile "
      "drags every archive across the narrowed WAN while mct-data "
      "schedules onto replica holders (separation %.1f%%). On the lossy "
      "per-stream-capped WAN, striping restores the link rate "
      "(%.2fx faster).\n",
      separation * 100.0, striping_gain);

  if (floor) {
    bool ok = true;
    if (separation < 0.20) {
      std::printf("FLOOR FAIL: volatile vs persistent+mct-data makespan "
                  "separation %.1f%% < 20%%\n",
                  separation * 100.0);
      ok = false;
    }
    if (striping_gain < 1.05) {
      std::printf("FLOOR FAIL: 4-stream striping gain %.2fx < 1.05x on the "
                  "lossy WAN\n",
                  striping_gain);
      ok = false;
    }
    if (compat.flows != 0) {
      std::printf("FLOOR FAIL: contention off but %llu flows ran\n",
                  static_cast<unsigned long long>(compat.flows));
      ok = false;
    }
    for (const Measure* m :
         {&congested_volatile, &congested_persistent, &congested_mct}) {
      if (m->flows == 0) {
        std::printf("FLOOR FAIL: contention on but a congested row ran no "
                    "flows\n");
        ok = false;
      }
    }
    const Measure* rows[] = {&compat,        &congested_volatile,
                             &congested_persistent, &congested_mct,
                             &striped[0],    &striped[1]};
    for (const Measure* m : rows) {
      if (m->failed != 0) {
        std::printf("FLOOR FAIL: a campaign lost %llu calls\n",
                    static_cast<unsigned long long>(m->failed));
        ok = false;
      }
    }
    if (!ok) return 1;
  }
  return 0;
}
