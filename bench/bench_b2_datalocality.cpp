// B2 — data locality ablation over the 22-sub-sim zoom campaign.
//
// Sweeps the data-management modes the DTM subsystem adds on top of the
// paper's deployment: everything volatile (the paper's Section 4.2.3
// setting, every 200 MiB result tarball ships home across RENATER),
// persistent outputs (results stay on the SED that produced them, only
// ids travel), and persistent + write-replication scheduled with the
// locality-aware mct-data policy (the estimation vector's bytes-to-move
// term steers zoom2 calls toward replica holders).
//
// Prints modeled WAN (inter-site) bytes, total wire bytes, mean zoom2
// latency, and makespan per mode, and exits 1 if the persistent modes
// fail to cut the WAN bytes.
#include <cstdio>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "obs/session.hpp"
#include "workflow/campaign.hpp"

namespace {

struct Row {
  const char* label;
  gc::diet::Persistence mode;  ///< inputs and service outputs
  int replicas;
  const char* policy;
};

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const gc::obs::Session obs = gc::obs::Session::from_cli(args);
  const int sub_sims = static_cast<int>(args.get_int("subsims", 22));

  const Row rows[] = {
      {"volatile", gc::diet::Persistence::kVolatile, 1, "default"},
      {"persistent", gc::diet::Persistence::kPersistent, 1, "default"},
      {"persistent+mct-data", gc::diet::Persistence::kPersistent, 2,
       "mct-data"},
  };

  std::printf("B2: data locality (%d zoom2 requests, 11 SEDs)\n", sub_sims);
  std::printf("%-22s %10s %14s %14s %12s %10s\n", "mode", "policy",
              "WAN bytes", "wire total", "mean lat", "makespan");

  std::int64_t volatile_wan = 0;
  std::int64_t best_wan = 0;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    gc::workflow::CampaignConfig config;
    config.sub_simulations = sub_sims;
    config.policy = row.policy;
    config.input_mode = row.mode;
    config.services.output_mode = row.mode;
    config.replicas = row.replicas;
    const gc::workflow::CampaignResult result =
        gc::workflow::run_grid5000_campaign(config);

    double mean_latency = 0.0;
    for (const auto& record : result.zoom2) {
      mean_latency += record.latency();
    }
    if (!result.zoom2.empty()) {
      mean_latency /= static_cast<double>(result.zoom2.size());
    }

    if (i == 0) volatile_wan = result.wan_bytes;
    best_wan = result.wan_bytes;

    std::printf("%-22s %10s %14s %14s %12s %10s\n", row.label, row.policy,
                gc::format_bytes(result.wan_bytes).c_str(),
                gc::format_bytes(result.network_bytes).c_str(),
                gc::format_duration(mean_latency).c_str(),
                gc::format_duration(result.makespan).c_str());
  }

  std::printf("\nshape: volatile ships every result tarball across RENATER; "
              "persistent outputs stay where they were produced, so WAN "
              "traffic collapses to ids and namelists. mct-data additionally "
              "steers repeat work toward replica holders.\n");

  if (best_wan >= volatile_wan) {
    std::printf("WARNING: persistent modes did not reduce WAN bytes\n");
    return 1;
  }
  return 0;
}
