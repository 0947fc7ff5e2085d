// bench_des — DES kernel & message-path throughput, and a CI tripwire.
//
// Every scaling result in the ROADMAP (MA federation, thousands of
// concurrent clients, contention-aware networking) rides on the DES
// engine's event throughput; this bench pins it down with three workloads:
//
//   phold      PHOLD-style self-driving event population: a fixed budget of
//              events, each firing reschedules one successor at
//              now + Exp(1), and every 4th firing re-arms a far-future
//              watchdog after cancelling the previous one (the diet
//              heartbeat/timeout pattern, so the cancel path is priced in).
//              Also run once on the frozen naive reference
//              (src/des/reference.hpp), so the speedup over the naive
//              engine is measured live in the same binary.
//
//   pingstorm  Request/reply message storm through SimEnv over a
//              1 MA / 4 LA / 64 SED topology: every SED ping-pongs its LA
//              and every LA ping-pongs the MA, exercising the per-stream
//              FIFO clock, byte accounting, and delivery-event path.
//
//   pingstorm_sampled
//              The same storm with the obs::TimeSeries sampler ticking on
//              a recurring virtual-time event. Each sampled run directly
//              follows an unsampled one, so the ratio of the pair is the
//              sampler overhead (budget: < 5%).
//
//   campaign22 The 22-sub-sim zoom campaign replay (the paper's Section 5
//              experiment at bench scale), events counted via the
//              des_events_executed_total metric.
//
// phold and the pingstorm pair are each sampled five times in this one
// process. Exit status 1 if the median sampled/unsampled pingstorm ratio
// is at or below 0.90 (a sampler blowout past 10%), or if --floor is set
// and any phold sample lands below it. perfbench (python3 perfbench/run.py)
// is the performance record; this binary only prints and gates.
//
//   bench_des                      # full sizes
//   bench_des --quick              # CI smoke sizes
//   bench_des --quick --floor 250000   # exit 1 if phold drops below floor
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <functional>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "des/engine.hpp"
#include "des/reference.hpp"
#include "net/env.hpp"
#include "net/simenv.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "workflow/campaign.hpp"

namespace {

// Every lane is timed in thread CPU seconds: a lane descheduled by other
// load on the host is not charged for it, so a sampled/unsampled pair
// compares the work each did rather than the machine's load.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// phold

template <typename EngineT>
struct PholdCtx {
  EngineT engine;
  gc::Rng rng{7};
  std::uint64_t remaining = 0;  ///< successors still to be scheduled
  std::uint64_t fired = 0;
  std::uint64_t watchdog = 0;  ///< pending far-future timer, 0 = none
  std::uint64_t cancels = 0;
};

template <typename EngineT>
struct PholdEvent {
  PholdCtx<EngineT>* c;
  void operator()() {
    PholdCtx<EngineT>& ctx = *c;
    ++ctx.fired;
    if (ctx.remaining == 0) return;
    --ctx.remaining;
    ctx.engine.schedule_after(ctx.rng.exponential(1.0), PholdEvent<EngineT>{c});
    if ((ctx.fired & 3u) == 0) {
      // Heartbeat pattern: re-arm a watchdog far in the future; the
      // previous one is cancelled and must not rot in the calendar.
      if (ctx.watchdog != 0 && ctx.engine.cancel(ctx.watchdog)) ++ctx.cancels;
      ctx.watchdog = ctx.engine.schedule_after(1e9, PholdEvent<EngineT>{c});
    }
  }
};

/// Runs PHOLD with `population` events in flight and ~`budget` total
/// firings; returns events/sec (cancellations included in the work, not in
/// the numerator).
template <typename EngineT>
double phold_rate(std::uint64_t budget, int population) {
  PholdCtx<EngineT> ctx;
  ctx.remaining = budget > static_cast<std::uint64_t>(population)
                      ? budget - static_cast<std::uint64_t>(population)
                      : 0;
  for (int i = 0; i < population; ++i) {
    ctx.engine.schedule_after(ctx.rng.exponential(1.0),
                              PholdEvent<EngineT>{&ctx});
  }
  const double t0 = cpu_s();
  ctx.engine.run();
  const double dt = cpu_s() - t0;
  return static_cast<double>(ctx.engine.events_executed()) / dt;
}

// ---------------------------------------------------------------------------
// pingstorm

struct StormActor final : gc::net::Actor {
  gc::net::Endpoint parent = gc::net::kNullEndpoint;  ///< 0: pure echoer
  int remaining = 0;  ///< pings this actor will still send

  void on_message(const gc::net::Envelope& e) override {
    if (e.type == 1) {  // ping from a child: echo a pong
      gc::net::Envelope r;
      r.from = endpoint();
      r.to = e.from;
      r.type = 2;
      env()->send(r);
      return;
    }
    send_next();  // pong from the parent: fire the next ping
  }

  void send_next() {
    if (remaining <= 0) return;
    --remaining;
    gc::net::Envelope p;
    p.from = endpoint();
    p.to = parent;
    p.type = 1;
    env()->send(p);
  }
};

/// 1 MA / 4 LA / 64 SED ping-pong storm; returns events/sec and fills
/// messages with the wire-message count. Runs with metrics enabled — the
/// production configuration — so the per-link counter path is priced in.
/// With `sampled` set, the obs::TimeSeries sampler additionally snapshots
/// the registry from a recurring virtual-time event (the zoom_campaign
/// --timeseries configuration) — the delta against the unsampled lane is
/// the sampler's whole cost.
double pingstorm_rate(int rounds, std::uint64_t* messages,
                      bool sampled = false) {
  auto& metrics = gc::obs::Metrics::instance();
  const bool was_on = metrics.enabled();
  metrics.reset();
  metrics.set_enabled(true);
  auto& series = gc::obs::TimeSeries::instance();
  if (sampled) {
    series.clear();
    series.set_interval(0.05);  // many ticks across the storm's ~virtual-min
    series.set_enabled(true);
  }
  gc::des::Engine engine;
  gc::net::UniformTopology topology(5e-4, 1.25e8);
  gc::net::SimEnv env(engine, topology);

  constexpr int kLas = 4;
  constexpr int kSeds = 64;
  StormActor ma;
  StormActor las[kLas];
  StormActor seds[kSeds];
  env.attach(ma, 0);
  for (int i = 0; i < kLas; ++i) {
    env.attach(las[i], static_cast<gc::net::NodeId>(1 + i));
    las[i].parent = ma.endpoint();
    las[i].remaining = rounds;
  }
  for (int i = 0; i < kSeds; ++i) {
    env.attach(seds[i], static_cast<gc::net::NodeId>(1 + kLas + i));
    seds[i].parent = las[i / (kSeds / kLas)].endpoint();
    seds[i].remaining = rounds;
  }
  for (int i = 0; i < kLas; ++i) {
    engine.schedule_at(0.0, [&las, i] { las[i].send_next(); });
  }
  for (int i = 0; i < kSeds; ++i) {
    engine.schedule_at(0.0, [&seds, i] { seds[i].send_next(); });
  }
  std::function<void()> sampler_tick;
  if (sampled) {
    sampler_tick = [&engine, &sampler_tick, &series]() {
      engine.publish_tag_metrics();
      series.sample(engine.now());
      if (engine.events_pending() > 0) {
        engine.schedule_after(series.interval(),
                              [&sampler_tick]() { sampler_tick(); },
                              gc::des::EventTag::kSampler);
      }
    };
    engine.schedule_after(series.interval(),
                          [&sampler_tick]() { sampler_tick(); },
                          gc::des::EventTag::kSampler);
  }

  const double t0 = cpu_s();
  engine.run();
  const double dt = cpu_s() - t0;
  metrics.set_enabled(was_on);
  if (sampled) {
    series.set_enabled(false);
    series.clear();
  }
  *messages = env.messages_sent();
  return static_cast<double>(engine.events_executed()) / dt;
}

// ---------------------------------------------------------------------------
// campaign22

/// The zoom campaign replay, repeated `reps` times for a stable wall-time
/// denominator; events counted via the metrics registry
/// (des_events_executed_total), which each campaign engine bumps per event.
double campaign_rate(int sub_sims, int reps, std::uint64_t* events) {
  auto& metrics = gc::obs::Metrics::instance();
  const bool was_on = metrics.enabled();
  metrics.reset();
  metrics.set_enabled(true);

  const double t0 = cpu_s();
  for (int rep = 0; rep < reps; ++rep) {
    gc::workflow::CampaignConfig config;
    config.sub_simulations = sub_sims;
    config.seed = 11;
    const gc::workflow::CampaignResult result =
        gc::workflow::run_grid5000_campaign(config);
    if (result.failed_calls != 0) {
      std::fprintf(stderr, "campaign22: unexpected failed calls\n");
    }
  }
  const double dt = cpu_s() - t0;

  *events = metrics.counter("des_events_executed_total").value();
  metrics.set_enabled(was_on);
  return static_cast<double>(*events) / dt;
}

}  // namespace

int main(int argc, char** argv) {
  gc::set_default_log_level(gc::LogLevel::kWarn);
  const gc::CliArgs args(argc, argv);
  const bool quick = args.has("quick");
  const double floor = args.get_double("floor", 0.0);

  const std::uint64_t phold_budget = quick ? 300000 : 3000000;
  const int phold_population = static_cast<int>(args.get_int("population", 4096));
  const int storm_rounds = quick ? 150 : 3000;
  const int sub_sims = quick ? 6 : 22;
  const int campaign_reps = quick ? 2 : 40;
  constexpr int kSamples = 5;

  std::printf("bench_des (%s): phold %llu events / storm %d rounds / "
              "campaign %d sub-sims, %d samples\n\n",
              quick ? "quick" : "full",
              static_cast<unsigned long long>(phold_budget), storm_rounds,
              sub_sims, kSamples);

  // phold: reference lane first so the optimized lane runs on a warm heap.
  const double phold_ref =
      phold_rate<gc::des::ReferenceEngine>(phold_budget, phold_population);
  std::vector<double> phold(kSamples);
  for (double& rate : phold) {
    rate = phold_rate<gc::des::Engine>(phold_budget, phold_population);
  }
  const double phold_median = gc::percentile(phold, 50.0);
  const double phold_min = *std::min_element(phold.begin(), phold.end());
  std::printf("%-12s %12.0f ev/s   (min %.0f; reference %.0f ev/s, %.2fx)\n",
              "phold", phold_median, phold_min, phold_ref,
              phold_median / phold_ref);

  // Sampler-overhead lane: each sampled storm directly follows an
  // unsampled one, so a pair sees the same machine state and its ratio is
  // the sampler's events/sec cost. One pair is too noisy to gate on, so
  // the gate reads the median of the pairs.
  std::vector<double> storm(kSamples);
  std::vector<double> ratio(kSamples);
  std::uint64_t storm_messages = 0;
  for (int i = 0; i < kSamples; ++i) {
    storm[i] = pingstorm_rate(storm_rounds, &storm_messages);
    std::uint64_t sampled_messages = 0;
    ratio[i] = pingstorm_rate(storm_rounds, &sampled_messages,
                              /*sampled=*/true) /
               storm[i];
  }
  const double ratio_median = gc::percentile(ratio, 50.0);
  std::printf("%-12s %12.0f ev/s   (%llu messages)\n", "pingstorm",
              gc::percentile(storm, 50.0),
              static_cast<unsigned long long>(storm_messages));
  std::printf("%-12s %11.1f%% of unsampled (pairs:", "pingstorm+ts",
              100.0 * ratio_median);
  for (const double r : ratio) std::printf(" %.1f%%", 100.0 * r);
  std::printf(")\n");

  std::uint64_t campaign_events = 0;
  const double campaign =
      campaign_rate(sub_sims, campaign_reps, &campaign_events);
  std::printf("%-12s %12.0f ev/s   (%llu events)\n", "campaign22", campaign,
              static_cast<unsigned long long>(campaign_events));

  bool ok = true;
  if (floor > 0.0 && phold_min < floor) {
    std::fprintf(stderr,
                 "FAIL: a phold sample ran at %.0f ev/s, below floor %.0f "
                 "ev/s (10x-regression guard)\n",
                 phold_min, floor);
    ok = false;
  }
  if (ratio_median <= 0.90) {
    std::fprintf(stderr,
                 "FAIL: time-series sampler overhead blew past 10%% on "
                 "pingstorm (median %.1f%% of unsampled)\n",
                 100.0 * ratio_median);
    ok = false;
  }
  return ok ? 0 : 1;
}
