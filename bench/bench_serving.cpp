// bench_serving: massive-scale serving throughput on the generated
// fat-tree (ISSUE 9).
//
// Sweeps 1/2/4 MA federations x client counts against one fixed 1024-SED
// topology (16 pods x 4 clusters x 16 SEDs), driving the open-loop
// Poisson plan from src/loadgen. Reported per run:
//
//   requests/s — ok completions per *virtual* second of makespan. The MA
//     reactor CPU is the serving bottleneck, so this is the number that
//     must scale with the MA count. Being virtual, it is bit-reproducible
//     and safe to gate in CI.
//   p50/p99    — end-to-end latency quantiles from the request journal.
//   events/s   — DES events per host second (engine throughput).
//
// Each run's line also carries its makespan and science digest, so the
// EXPERIMENTS.md table reads straight off stdout. The digest must be
// identical across the MA sweep at each client count (federation changes
// where requests run, never what they compute). The bench exits 1 on a
// diverging digest, on any failed call, and on a federated run (mas > 1)
// that never forwarded to a peer.
//
// --quick shrinks the fabric for the CI smoke lane and then also requires
// at least two MA points, so the digest comparison is never vacuous;
// --floor N fails if the single-MA requests/s lands below N.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "loadgen/serving.hpp"

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const bool quick = args.has("quick");
  const double floor = args.get_double("floor", 0.0);

  // --trace records the sampled arrival plan (one file per sweep point,
  // suffixed when the sweep has several); --replay drives every run from a
  // recorded trace instead of sampling; --mas pins the MA sweep to one
  // federation size.
  const std::string trace_out = args.get("trace", "");
  const std::string trace_in = args.get("replay", "");

  gc::platform::FatTreeConfig topology;
  std::vector<int> client_counts;
  std::vector<int> ma_counts{1, 2, 4};
  if (args.has("mas")) {
    ma_counts = {static_cast<int>(args.get_int("mas", 1))};
  }
  double arrival_rate = args.get_double("arrival", quick ? 2000.0 : 4000.0);
  if (quick) {
    topology.pods = 4;
    topology.clusters_per_pod = 2;
    topology.seds_per_cluster = 4;
    topology.machines_per_sed = 2;
    client_counts = {static_cast<int>(args.get_int("clients", 200))};
    if (!args.has("mas")) ma_counts = {1, 2};
  } else {
    client_counts = {2500, static_cast<int>(args.get_int("clients", 5000))};
  }

  std::printf("bench_serving (%s): %d SEDs (%d pods x %d x %d), "
              "arrival %.0f req/s\n\n",
              quick ? "quick" : "full",
              topology.pods * topology.clusters_per_pod *
                  topology.seds_per_cluster,
              topology.pods, topology.clusters_per_pod,
              topology.seds_per_cluster, arrival_rate);

  bool ok = true;
  // The floor gates the single-MA baseline; under --mas N>1 there is no
  // such run, so it gates the sweep's first run instead.
  double gated_rate = -1.0;

  for (const int clients : client_counts) {
    std::uint64_t digest = 0;
    bool digest_set = false;
    for (const int mas : ma_counts) {
      gc::loadgen::ServingConfig config;
      config.topology = topology;
      config.mas = mas;
      config.load.clients = clients;
      config.load.requests_per_client = 2;
      config.load.arrival_rate_hz = arrival_rate;
      config.load.seed = 42;
      config.load.trace_path = trace_in;
      // The plan is a pure function of the load spec, so per clients count
      // one recording (taken at the first MA sweep point) covers the row.
      if (!trace_out.empty() && mas == ma_counts.front()) {
        config.trace_out = client_counts.size() == 1
                               ? trace_out
                               : trace_out + "." + std::to_string(clients);
      }
      // The journal at 10^4 requests costs memory but feeds the latency
      // quantiles; keep it on — that is the lane the ISSUE names.
      const gc::loadgen::ServingReport report =
          gc::loadgen::run_serving(config);
      std::printf(
          "mas=%d clients=%5d  %8.0f req/s  p50 %7.3fs  p99 %7.3fs  "
          "makespan %7.1fs  %9.0f ev/s  (%zu ok, %zu failed, %llu peer "
          "forwards, digest %016llx, %.1fs wall)\n",
          mas, clients, report.requests_per_sec, report.p50_s, report.p99_s,
          report.makespan_s,
          report.wall_s > 0.0
              ? static_cast<double>(report.events) / report.wall_s
              : 0.0,
          report.ok, report.failed,
          static_cast<unsigned long long>(report.peer.forwards),
          static_cast<unsigned long long>(report.science_digest),
          report.wall_s);
      if (report.failed != 0) {
        std::fprintf(stderr, "FAIL: mas=%d clients=%d had %zu failed calls\n",
                     mas, clients, report.failed);
        ok = false;
      }
      if (mas > 1 && report.peer.forwards == 0) {
        std::fprintf(stderr,
                     "FAIL: mas=%d clients=%d never exercised peer "
                     "forwarding\n",
                     mas, clients);
        ok = false;
      }
      if (!digest_set) {
        digest = report.science_digest;
        digest_set = true;
      } else if (report.science_digest != digest) {
        std::fprintf(stderr,
                     "FAIL: science digest diverged at mas=%d clients=%d "
                     "(%016llx vs %016llx)\n",
                     mas, clients,
                     static_cast<unsigned long long>(report.science_digest),
                     static_cast<unsigned long long>(digest));
        ok = false;
      }
      if (mas == 1 || gated_rate < 0.0) gated_rate = report.requests_per_sec;
    }
    std::printf("\n");
  }

  if (quick && !args.has("mas") && ma_counts.size() < 2) {
    std::fprintf(stderr, "FAIL: the quick sweep lost its MA points\n");
    ok = false;
  }
  if (floor > 0.0 && gated_rate < floor) {
    std::fprintf(stderr, "FAIL: %.0f req/s below floor %.0f req/s\n",
                 gated_rate, floor);
    ok = false;
  }
  return ok ? 0 : 1;
}
