// Federation suite: multi-MA deployments under test (ISSUE 9).
//
// The contract: an MA that cannot serve a request locally forwards the
// collect to capable peer MAs within a hop budget (TTL), peers answer
// with a bounded top-k candidate list, the same request arriving at a
// shard along two federation paths collects once (dedup), a forward that
// loops back to its origin shard is dropped, a dead peer MA is ejected by
// the heartbeat watchdog and rejoins when its beacons resume, persistent
// data is locatable across federation edges, and — the science contract —
// a federated campaign computes exactly what the single-MA campaign
// computes, fault-free and under every chaos plan.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "des/engine.hpp"
#include "diet/client.hpp"
#include "diet/deployment.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "naming/registry.hpp"
#include "net/simenv.hpp"
#include "workflow/campaign.hpp"

namespace gc {
namespace {

// ---------- shared service + fixture plumbing ----------

/// Scalar int service `name`: out = 2 * in. Each shard gets its own
/// ServiceTable, so a service can exist on some shards only — that is
/// what makes a local miss (and thus a federation forward) happen.
diet::ProfileDesc twice_desc(const std::string& name) {
  diet::ProfileDesc desc(name, 0, 0, 1);
  desc.arg(0).type = diet::DataType::kScalar;
  desc.arg(0).base = diet::BaseType::kInt;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kInt;
  return desc;
}

void register_twice(diet::ServiceTable& services, const std::string& name) {
  diet::SolveFn solve = [](diet::ServiceContext& ctx) {
    ctx.compute(
        1.0,
        [&ctx]() {
          const auto in = ctx.profile().arg(0).get_scalar<std::int32_t>();
          if (!in.is_ok()) return 1;
          ctx.profile().arg(1).set_scalar<std::int32_t>(
              in.value() * 2, diet::BaseType::kInt,
              diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  ASSERT_TRUE(services.add(twice_desc(name), std::move(solve)).is_ok());
}

/// Persistent-vector service `name`: out = sum of the vector. Used by the
/// cross-federation data-locality test.
void register_sum(diet::ServiceTable& services, const std::string& name) {
  diet::ProfileDesc desc(name, 0, 0, 1);
  desc.arg(0).type = diet::DataType::kVector;
  desc.arg(0).base = diet::BaseType::kDouble;
  desc.arg(1).type = diet::DataType::kScalar;
  desc.arg(1).base = diet::BaseType::kDouble;
  diet::SolveFn solve = [](diet::ServiceContext& ctx) {
    ctx.compute(
        1.0,
        [&ctx]() {
          const auto data = ctx.profile().arg(0).get_vector<double>();
          if (!data.is_ok()) return 1;
          double sum = 0.0;
          for (const double v : data.value()) sum += v;
          ctx.profile().arg(1).set_scalar<double>(
              sum, diet::BaseType::kDouble, diet::Persistence::kVolatile);
          return 0;
        },
        [&ctx](int rc) { ctx.finish(rc); });
  };
  ASSERT_TRUE(services.add(desc, std::move(solve)).is_ok());
}

/// One shard of a hand-built federation: `seds` SEDs under one LA. Nodes
/// are laid out 16 per shard so shards never share a node (isolation
/// faults hit exactly one shard's MA).
diet::DeploymentSpec shard_spec(int shard, int seds,
                                const diet::AgentTuning& tuning) {
  diet::DeploymentSpec spec;
  const net::NodeId base = static_cast<net::NodeId>(100 + 16 * shard);
  spec.ma_name = "MA" + std::to_string(shard + 1);
  spec.ma_node = base;
  spec.agent_tuning = tuning;
  if (tuning.heartbeat_timeout > 0.0) {
    // The watchdog owns liveness: SEDs must beat too (staggered like the
    // campaign does), and strike eviction must not erase children first.
    spec.sed_tuning.heartbeat_period = 0.17 + 0.01 * shard;
    spec.agent_tuning.max_child_timeouts = 0;
  }
  spec.seed = 42 + static_cast<std::uint64_t>(shard);
  diet::DeploymentSpec::LaSpec la;
  la.name = "LA" + std::to_string(shard + 1);
  la.node = base + 1;
  for (int s = 0; s < seds; ++s) {
    diet::DeploymentSpec::SedSpec sed;
    sed.name = "SeD" + std::to_string(shard + 1) + "-" + std::to_string(s);
    sed.node = base + 2 + static_cast<net::NodeId>(s);
    sed.machines = 2;
    la.sed_indexes.push_back(s);
    spec.seds.push_back(sed);
  }
  spec.las.push_back(la);
  return spec;
}

/// A full-mesh federation (diet::Federation wiring) with one service
/// table per shard.
struct FedFixture {
  FedFixture(std::vector<std::vector<std::string>> shard_services,
             const diet::AgentTuning& tuning, int seds_per_shard = 1)
      : topology(1e-3, 1.25e8), env(engine, topology) {
    const std::size_t n = shard_services.size();
    std::vector<diet::ServiceTable*> table_ptrs;
    std::vector<diet::DeploymentSpec> specs;
    for (std::size_t i = 0; i < n; ++i) {
      tables.push_back(std::make_unique<diet::ServiceTable>());
      for (const std::string& service : shard_services[i]) {
        if (service.rfind("sum", 0) == 0) {
          register_sum(*tables[i], service);
        } else {
          register_twice(*tables[i], service);
        }
      }
      table_ptrs.push_back(tables[i].get());
      specs.push_back(shard_spec(static_cast<int>(i), seds_per_shard,
                                 tuning));
    }
    federation = std::make_unique<diet::Federation>(env, registry,
                                                    table_ptrs,
                                                    std::move(specs));
    engine.run_until(engine.now() + 1.0);
  }

  /// Creates a client on its own node, connected to shard `shard`'s MA.
  std::unique_ptr<diet::Client> make_client(int shard,
                                            std::uint64_t id_base) {
    auto client = std::make_unique<diet::Client>(
        "client" + std::to_string(id_base >> 32), diet::Client::Tuning{},
        id_base);
    env.attach(*client, static_cast<net::NodeId>(1 + (id_base >> 32)));
    client->connect(
        registry.resolve("MA" + std::to_string(shard + 1)).value());
    return client;
  }

  /// Blocking-style call of a `twice` service; nullopt = the call failed.
  /// Steps the engine until the call completes (or 120 virtual seconds
  /// pass) rather than draining it: self-rearming heartbeat beacons keep
  /// the calendar non-empty forever, so engine.run() would never return.
  std::optional<std::int32_t> call_twice(diet::Client& client,
                                         const std::string& service,
                                         std::int32_t in) {
    diet::Profile profile(service, 0, 0, 1);
    profile.arg(0).set_scalar<std::int32_t>(in, diet::BaseType::kInt,
                                            diet::Persistence::kVolatile);
    profile.arg(1).desc.type = diet::DataType::kScalar;
    profile.arg(1).desc.base = diet::BaseType::kInt;
    bool done = false;
    std::optional<std::int32_t> out;
    client.call_async(std::move(profile),
                      [&](const gc::Status& status, diet::Profile& result) {
                        done = true;
                        if (status.is_ok()) {
                          out = result.arg(1).get_scalar<std::int32_t>()
                                    .value();
                        }
                      });
    const double deadline = engine.now() + 120.0;
    while (!done && engine.now() < deadline && engine.step()) {
    }
    return out;
  }

  des::Engine engine;
  net::UniformTopology topology;
  net::SimEnv env;
  naming::Registry registry;
  std::vector<std::unique_ptr<diet::ServiceTable>> tables;
  std::unique_ptr<diet::Federation> federation;
};

diet::AgentTuning fed_tuning(std::uint32_t ttl, std::size_t top_k,
                             bool always) {
  diet::AgentTuning tuning;
  tuning.peer_ttl = ttl;
  tuning.peer_top_k = top_k;
  tuning.federate_always = always;
  return tuning;
}

// ---------- on-miss forwarding ----------

TEST(Federation, OnMissForwardsToCapablePeer) {
  // "work" everywhere, "rare" only on shard 2. A shard-1 client's "rare"
  // call misses locally and must be served by shard 2 over the mesh.
  FedFixture fix({{"work"}, {"work", "rare"}},
                 fed_tuning(/*ttl=*/1, /*top_k=*/4, /*always=*/false));
  auto client = fix.make_client(0, 1ull << 32);

  EXPECT_EQ(fix.call_twice(*client, "rare", 21), 42);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().forwards, 1u);
  EXPECT_EQ(fix.federation->ma(1).peer_stats().replies, 1u);
  EXPECT_GE(fix.federation->ma(1).peer_stats().candidates_returned, 1u);
  // The chosen SED lives in shard 2.
  EXPECT_EQ(client->records().back().sed_name.rfind("SeD2", 0), 0u);

  // A locally-served "work" call must NOT cross the mesh (on-miss mode).
  EXPECT_EQ(fix.call_twice(*client, "work", 5), 10);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().forwards, 1u);
}

TEST(Federation, TtlZeroDisablesForwarding) {
  FedFixture fix({{"work"}, {"work", "rare"}},
                 fed_tuning(/*ttl=*/0, /*top_k=*/4, /*always=*/false));
  auto client = fix.make_client(0, 1ull << 32);

  // No hop budget: the local miss is final and the call fails.
  EXPECT_EQ(fix.call_twice(*client, "rare", 21), std::nullopt);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().forwards, 0u);
}

// ---------- TTL chains ----------

/// A hand-wired *line* federation MA1 -- MA2 -- MA3 (no MA1--MA3 edge),
/// which diet::Federation's full mesh cannot express. The service lives
/// on shards 2 and 3; whether shard 3 is ever consulted from shard 1
/// depends purely on the hop budget.
struct LineFixture {
  explicit LineFixture(std::uint32_t ttl)
      : topology(1e-3, 1.25e8), env(engine, topology) {
    for (int i = 0; i < 3; ++i) {
      tables.push_back(std::make_unique<diet::ServiceTable>());
    }
    register_twice(*tables[0], "work");  // shard 1 serves something local
    register_twice(*tables[1], "rare");
    register_twice(*tables[2], "rare");
    diet::AgentTuning tuning = fed_tuning(ttl, 4, /*always=*/true);
    for (int i = 0; i < 3; ++i) {
      diet::DeploymentSpec spec = shard_spec(i, 1, tuning);
      spec.ma_uid = static_cast<std::uint32_t>(i + 1);
      spec.sed_uid_base = static_cast<std::uint64_t>(i) * 100;
      spec.request_key_base = static_cast<std::uint64_t>(i + 1) << 48;
      shards.push_back(std::make_unique<diet::Deployment>(
          env, registry, *tables[static_cast<std::size_t>(i)], spec));
    }
    // The line: 1--2 and 2--3, both directions, no 1--3 edge.
    shards[0]->ma().connect_peer(shards[1]->ma().endpoint());
    shards[1]->ma().connect_peer(shards[0]->ma().endpoint());
    shards[1]->ma().connect_peer(shards[2]->ma().endpoint());
    shards[2]->ma().connect_peer(shards[1]->ma().endpoint());
    engine.run_until(engine.now() + 1.0);
  }

  des::Engine engine;
  net::UniformTopology topology;
  net::SimEnv env;
  naming::Registry registry;
  std::vector<std::unique_ptr<diet::ServiceTable>> tables;
  std::vector<std::unique_ptr<diet::Deployment>> shards;
};

std::optional<std::int32_t> line_call(LineFixture& fix,
                                      diet::Client& client,
                                      std::int32_t in) {
  diet::Profile profile("rare", 0, 0, 1);
  profile.arg(0).set_scalar<std::int32_t>(in, diet::BaseType::kInt,
                                          diet::Persistence::kVolatile);
  profile.arg(1).desc.type = diet::DataType::kScalar;
  profile.arg(1).desc.base = diet::BaseType::kInt;
  std::optional<std::int32_t> out;
  client.call_async(std::move(profile),
                    [&](const gc::Status& status, diet::Profile& result) {
                      if (status.is_ok()) {
                        out =
                            result.arg(1).get_scalar<std::int32_t>().value();
                      }
                    });
  fix.engine.run();
  return out;
}

TEST(Federation, TtlOneStopsAtDirectPeers) {
  LineFixture fix(/*ttl=*/1);
  diet::Client client("client", diet::Client::Tuning{}, 1ull << 32);
  fix.env.attach(client, 1);
  client.connect(fix.registry.resolve("MA1").value());

  // MA1 -> MA2 spends the whole budget: MA2 answers from its own shard
  // and may not re-forward to MA3.
  EXPECT_EQ(line_call(fix, client, 21), 42);
  EXPECT_EQ(fix.shards[0]->ma().peer_stats().forwards, 1u);
  EXPECT_EQ(fix.shards[1]->ma().peer_stats().forwards, 0u);
  EXPECT_EQ(fix.shards[2]->ma().peer_stats().replies, 0u);
}

TEST(Federation, TtlTwoReachesTheSecondHop) {
  LineFixture fix(/*ttl=*/2);
  diet::Client client("client", diet::Client::Tuning{}, 1ull << 32);
  fix.env.attach(client, 1);
  client.connect(fix.registry.resolve("MA1").value());

  // MA1 -> MA2 (one hop left) -> MA3: the far shard answers too, and its
  // candidates reach MA1 through MA2's merged reply.
  EXPECT_EQ(line_call(fix, client, 21), 42);
  EXPECT_EQ(fix.shards[0]->ma().peer_stats().forwards, 1u);
  EXPECT_EQ(fix.shards[1]->ma().peer_stats().forwards, 1u);
  EXPECT_EQ(fix.shards[2]->ma().peer_stats().replies, 1u);
}

// ---------- bounded candidate fan-in (top-k) ----------

TEST(Federation, PeerRepliesAreTruncatedToTopK) {
  // Shard 2 has 6 capable SEDs but answers with at most 2 candidates: the
  // merge cost at the originating MA is bounded per shard.
  FedFixture fix({{"work"}, {"rare"}},
                 fed_tuning(/*ttl=*/1, /*top_k=*/2, /*always=*/false),
                 /*seds_per_shard=*/6);
  auto client = fix.make_client(0, 1ull << 32);

  EXPECT_EQ(fix.call_twice(*client, "rare", 4), 8);
  EXPECT_EQ(fix.federation->ma(1).peer_stats().replies, 1u);
  EXPECT_EQ(fix.federation->ma(1).peer_stats().candidates_returned, 2u);
}

TEST(Federation, TopKZeroReturnsEveryCandidate) {
  FedFixture fix({{"work"}, {"rare"}},
                 fed_tuning(/*ttl=*/1, /*top_k=*/0, /*always=*/false),
                 /*seds_per_shard=*/6);
  auto client = fix.make_client(0, 1ull << 32);

  EXPECT_EQ(fix.call_twice(*client, "rare", 4), 8);
  EXPECT_EQ(fix.federation->ma(1).peer_stats().candidates_returned, 6u);
}

// ---------- dedup and loop prevention ----------

TEST(Federation, DiamondPathsCollectOnce) {
  // Full mesh of 3 shards, all capable, federate_always, budget 2: the
  // origin forwards to both peers, and each peer re-forwards to the
  // other. Every shard thus sees the request twice (once from the origin,
  // once from its sibling) — the second copy must be dropped, and the
  // origin must still get exactly one answer per peer.
  FedFixture fix({{"work"}, {"work"}, {"work"}},
                 fed_tuning(/*ttl=*/2, /*top_k=*/4, /*always=*/true));
  auto client = fix.make_client(0, 1ull << 32);

  EXPECT_EQ(fix.call_twice(*client, "work", 10), 20);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().forwards, 2u);
  EXPECT_EQ(fix.federation->ma(1).peer_stats().forwards, 1u);
  EXPECT_EQ(fix.federation->ma(2).peer_stats().forwards, 1u);
  std::uint64_t dup_drops = 0;
  std::uint64_t loop_drops = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    dup_drops += fix.federation->ma(i).peer_stats().dup_drops;
    loop_drops += fix.federation->ma(i).peer_stats().loop_drops;
  }
  // One duplicate dropped at each non-origin shard; the origin-uid check
  // keeps any copy from ever being *sent* back to shard 1.
  EXPECT_EQ(dup_drops, 2u);
  EXPECT_EQ(loop_drops, 0u);
}

/// Swallows anything sent to it; the return address for forged messages.
struct Sink final : net::Actor {
  void on_message(const net::Envelope&) override {}
};

TEST(Federation, ForwardLoopedBackToOriginIsDropped) {
  // The send-side origin check needs the peer's uid, which it only has
  // after the peer's announce. A forward racing that announce can still
  // loop back — modeled here by forging a kPeerCollect whose origin is
  // the receiving MA itself.
  FedFixture fix({{"work"}, {"work"}},
                 fed_tuning(/*ttl=*/1, /*top_k=*/4, /*always=*/true));
  Sink sink;
  fix.env.attach(sink, 90);

  diet::RequestCollectMsg msg;
  msg.request_key = 0xdeadbeefULL;
  msg.desc = twice_desc("work");
  msg.in_bytes = 4;
  msg.origin_uid = fix.federation->ma(0).ma_uid();
  msg.ttl = 1;
  fix.env.send(net::Envelope{sink.endpoint(),
                             fix.federation->ma(0).endpoint(),
                             diet::kPeerCollect, msg.encode(), 0, 0});
  fix.engine.run_until(fix.engine.now() + 2.0);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().loop_drops, 1u);

  // The same key from a foreign origin expands once; its wire duplicate
  // is dropped by the cross-MA dedup journal.
  msg.origin_uid = 77;  // no such shard: nothing to loop back to
  fix.env.send(net::Envelope{sink.endpoint(),
                             fix.federation->ma(0).endpoint(),
                             diet::kPeerCollect, msg.encode(), 0, 0});
  fix.env.send(net::Envelope{sink.endpoint(),
                             fix.federation->ma(0).endpoint(),
                             diet::kPeerCollect, msg.encode(), 0, 0});
  fix.engine.run();
  EXPECT_EQ(fix.federation->ma(0).peer_stats().dup_drops, 1u);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().replies, 1u);
}

// ---------- peer death and revival via heartbeats ----------

TEST(Federation, PeerDeathEjectsShardAndRevivalRejoins) {
  diet::AgentTuning tuning = fed_tuning(1, 4, /*always=*/false);
  // Staggered beacon periods (as the deployments use for SEDs) and a
  // watchdog tight enough to fire within the test's virtual seconds.
  tuning.heartbeat_period = 0.19;
  tuning.heartbeat_timeout = 1.0;
  FedFixture fix({{"work"}, {"work", "rare"}}, tuning);

  // A zero-rate plan: the injector is live (isolate/heal work) but rolls
  // no dice, so the run stays deterministic.
  const auto plan =
      fault::parse_plan("drop-only,drop=0,dup=0,delay=0").value();
  fault::Injector injector(plan, 1);
  fix.env.set_fault_hook(&injector);

  auto client = fix.make_client(0, 1ull << 32);
  EXPECT_EQ(fix.call_twice(*client, "rare", 1), 2);

  // Cut shard 2's MA off the WAN. Its beacons stop; shard 1's watchdog
  // must eject the whole shard.
  const net::NodeId ma2_node = 100 + 16;  // shard_spec(1) puts MA2 here
  injector.isolate(ma2_node);
  fix.engine.run_until(fix.engine.now() + 5.0);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().evictions, 1u);

  // With the only capable shard ejected, the rare call fails fast — the
  // dead peer is skipped, not waited for.
  const std::uint64_t forwards_before =
      fix.federation->ma(0).peer_stats().forwards;
  EXPECT_EQ(fix.call_twice(*client, "rare", 2), std::nullopt);
  EXPECT_EQ(fix.federation->ma(0).peer_stats().forwards, forwards_before);

  // Heal the link: beacons resume, the shard rejoins, requests cross
  // the mesh again.
  injector.heal(ma2_node);
  fix.engine.run_until(fix.engine.now() + 5.0);
  EXPECT_EQ(fix.call_twice(*client, "rare", 3), 6);
}

// ---------- persistent data across federation edges ----------

TEST(Federation, LocateCrossesFederationAndPullsPeerToPeer) {
  // "stage" (persistent input) exists only on shard 1, "sum2" only on
  // shard 2. Staging places the datum on a shard-1 SED; the follow-up
  // sum2 call is scheduled onto shard 2, whose hierarchy has never seen
  // the id. The SED's locate must cross the federation edge to shard 1
  // and the datum must arrive SED-to-SED.
  FedFixture fix({{"sum-stage"}, {"sum2"}},
                 fed_tuning(/*ttl=*/1, /*top_k=*/4, /*always=*/false));
  auto client = fix.make_client(0, 1ull << 32);
  const std::vector<double> data(4096, 0.5);

  auto call_sum = [&](const std::string& service) {
    diet::Profile profile(service, 0, 0, 1);
    profile.arg(0).set_vector<double>(data, diet::BaseType::kDouble,
                                      diet::Persistence::kPersistent);
    profile.arg(1).desc.type = diet::DataType::kScalar;
    profile.arg(1).desc.base = diet::BaseType::kDouble;
    double out = -1.0;
    client->call_async(std::move(profile),
                       [&](const gc::Status& status, diet::Profile& result) {
                         if (status.is_ok()) {
                           out = result.arg(1).get_scalar<double>().value();
                         }
                       });
    fix.engine.run();
    return out;
  };

  EXPECT_DOUBLE_EQ(call_sum("sum-stage"), 2048.0);
  diet::Sed& holder = fix.federation->shard(0).sed(0);
  diet::Sed& remote = fix.federation->shard(1).sed(0);
  EXPECT_EQ(holder.data_manager().count(), 1u);
  EXPECT_EQ(remote.data_manager().count(), 0u);

  EXPECT_DOUBLE_EQ(call_sum("sum2"), 2048.0);
  EXPECT_EQ(client->records().back().sed_name.rfind("SeD2", 0), 0u);
  // The pull healed the remote shard's copy without the client resending.
  EXPECT_EQ(remote.data_manager().count(), 1u);
}

// ---------- a one-shard federation is a plain deployment ----------

/// One hierarchy as the paper deploys it: an MA, two LAs, two SEDs under
/// each, every SED offering "work" and the persistent-input "sum".
diet::DeploymentSpec two_la_spec() {
  diet::DeploymentSpec spec;
  spec.ma_node = 100;
  spec.seed = 9;
  for (int l = 0; l < 2; ++l) {
    diet::DeploymentSpec::LaSpec la;
    la.name = "LA" + std::to_string(l + 1);
    la.node = static_cast<net::NodeId>(101 + l);
    for (int s = 0; s < 2; ++s) {
      diet::DeploymentSpec::SedSpec sed;
      sed.name = "SeD" + std::to_string(l + 1) + "-" + std::to_string(s);
      sed.node = static_cast<net::NodeId>(110 + 2 * l + s);
      sed.machines = 1 + s;
      la.sed_indexes.push_back(static_cast<int>(spec.seds.size()));
      spec.seds.push_back(sed);
    }
    spec.las.push_back(la);
  }
  return spec;
}

struct Observed {
  std::vector<diet::Client::CallRecord> records;
  std::int64_t bytes_sent = 0;
  std::uint64_t messages_sent = 0;
};

/// Deploys two_la_spec() as a plain Deployment or as a one-shard
/// Federation and runs the same calls on it: a burst of six "work" calls,
/// then two "sum" calls on one persistent vector (the second ships an
/// id-only reference).
Observed run_two_la_calls(bool one_shard_federation) {
  des::Engine engine;
  net::UniformTopology topology(1e-3, 1.25e8);
  net::SimEnv env(engine, topology);
  naming::Registry registry;
  diet::ServiceTable services;
  register_twice(services, "work");
  register_sum(services, "sum");
  std::unique_ptr<diet::Deployment> plain;
  std::unique_ptr<diet::Federation> federation;
  if (one_shard_federation) {
    federation = std::make_unique<diet::Federation>(
        env, registry, services,
        std::vector<diet::DeploymentSpec>{two_la_spec()});
  } else {
    plain = std::make_unique<diet::Deployment>(env, registry, services,
                                               two_la_spec());
  }
  engine.run_until(engine.now() + 1.0);

  diet::Client client("client", diet::Client::Tuning{}, 1ull << 32);
  env.attach(client, 1);
  client.connect(registry.resolve("MA1").value());
  const auto ignore = [](const gc::Status&, diet::Profile&) {};
  for (std::int32_t i = 0; i < 6; ++i) {
    diet::Profile work("work", 0, 0, 1);
    work.arg(0).set_scalar<std::int32_t>(i, diet::BaseType::kInt,
                                         diet::Persistence::kVolatile);
    work.arg(1).desc.type = diet::DataType::kScalar;
    work.arg(1).desc.base = diet::BaseType::kInt;
    client.call_async(std::move(work), ignore);
  }
  engine.run();
  const std::vector<double> data(4096, 0.25);
  for (int i = 0; i < 2; ++i) {
    diet::Profile sum("sum", 0, 0, 1);
    sum.arg(0).set_vector<double>(data, diet::BaseType::kDouble,
                                  diet::Persistence::kPersistent);
    sum.arg(1).desc.type = diet::DataType::kScalar;
    sum.arg(1).desc.base = diet::BaseType::kDouble;
    client.call_async(std::move(sum), ignore);
    engine.run();
  }
  return Observed{client.records(), env.bytes_sent(), env.messages_sent()};
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Federation, OneShardFederationIsThePlainDeployment) {
  // The campaign builds every hierarchy as a diet::Federation, one shard
  // when it runs one MA. That shard's MA is federation-capable (uid 1,
  // request keys from 1<<48) but has no peers: it must schedule, time and
  // charge exactly like the plain Deployment of the same spec.
  const Observed plain = run_two_la_calls(false);
  const Observed shard = run_two_la_calls(true);

  ASSERT_EQ(plain.records.size(), 8u);
  ASSERT_EQ(shard.records.size(), plain.records.size());
  std::set<std::uint64_t> seds_used;
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    const diet::Client::CallRecord& a = plain.records[i];
    const diet::Client::CallRecord& b = shard.records[i];
    SCOPED_TRACE("call " + std::to_string(i));
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(b.id, a.id);
    EXPECT_EQ(b.service, a.service);
    EXPECT_EQ(bits(b.submitted), bits(a.submitted));
    EXPECT_EQ(bits(b.found), bits(a.found));
    EXPECT_EQ(bits(b.started), bits(a.started));
    EXPECT_EQ(bits(b.completed), bits(a.completed));
    EXPECT_EQ(b.sed_uid, a.sed_uid);
    EXPECT_EQ(b.sed_name, a.sed_name);
    EXPECT_EQ(b.solve_status, a.solve_status);
    EXPECT_EQ(b.ok, a.ok);
    seds_used.insert(a.sed_uid);
  }
  // The burst spread over both LAs' SEDs, so both subtrees were collected.
  EXPECT_GE(seds_used.size(), 3u);
  EXPECT_EQ(shard.bytes_sent, plain.bytes_sent);
  EXPECT_EQ(shard.messages_sent, plain.messages_sent);
}

// ---------- the science contract: federated == single-MA ----------

workflow::CampaignResult run_campaign(int mas, const std::string& plan,
                                      std::uint64_t fault_seed) {
  workflow::CampaignConfig config;
  config.sub_simulations = 22;
  config.seed = 11;
  config.federation_mas = mas;
  config.fault_plan = plan;
  config.fault_seed = fault_seed;
  return workflow::run_grid5000_campaign(config);
}

TEST(FederationChaos, FaultFreeFederatedCampaignMatchesSingleMa) {
  const workflow::CampaignResult single = run_campaign(1, "", 1);
  const workflow::CampaignResult fed = run_campaign(2, "", 1);
  EXPECT_EQ(single.failed_calls, 0u);
  EXPECT_EQ(fed.failed_calls, 0u);
  EXPECT_NE(fed.science_digest, 0u);
  // Same sub-simulations, same results: federation must not change *what*
  // is computed, only which shard schedules it.
  EXPECT_EQ(fed.science_digest, single.science_digest);
  // And the mesh was actually exercised (split shards federate_always).
  EXPECT_GT(fed.federation_forwards, 0u);
  EXPECT_GT(fed.federation_replies, 0u);
}

TEST(FederationChaos, ChaosPlansPreserveTheScienceAcrossTheMesh) {
  const workflow::CampaignResult single = run_campaign(1, "", 1);
  for (const char* plan : {"drop-only", "crash-only", "mixed"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const workflow::CampaignResult run = run_campaign(2, plan, seed);
      ASSERT_EQ(run.failed_calls, 0u) << plan << " seed " << seed;
      ASSERT_EQ(run.science_digest, single.science_digest)
          << plan << " seed " << seed;
    }
  }
}

TEST(FederationChaos, SameSeedFederatedChaosRunsAreBitIdentical) {
  for (const char* plan : {"drop-only", "mixed"}) {
    const workflow::CampaignResult first = run_campaign(2, plan, 5);
    const workflow::CampaignResult replay = run_campaign(2, plan, 5);
    ASSERT_EQ(first.makespan, replay.makespan) << plan;
    ASSERT_EQ(first.science_digest, replay.science_digest) << plan;
    ASSERT_EQ(first.federation_forwards, replay.federation_forwards) << plan;
  }
}

}  // namespace
}  // namespace gc
