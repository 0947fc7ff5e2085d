#include "layers.hpp"

#include <cstdlib>

#include "des/engine.hpp"
#include "diet/protocol.hpp"
#include "net/flow.hpp"
#include "obs/trace.hpp"
#include "platform/grid5000.hpp"
#include "workflow/services.hpp"

namespace pb {

namespace {

namespace diet = gc::diet;
namespace sched = gc::sched;

/// Keeps the optimizer from discarding a value the timing loop computed.
template <class T>
void keep(T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

class TimedPolicy final : public sched::Policy {
 public:
  TimedPolicy(std::unique_ptr<sched::Policy> inner, RankStats& stats,
              SpanLog& spans)
      : inner_(std::move(inner)), stats_(stats), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void rank(std::vector<sched::Candidate>& candidates,
            const sched::RequestContext& request, gc::Rng& rng) override {
    ScopedSpan span(spans_, "sched.rank");
    const double t0 = now_s();
    inner_->rank(candidates, request, rng);
    stats_.seconds.push_back(now_s() - t0);
    ++stats_.calls;
    stats_.candidates += candidates.size();
  }

 private:
  std::unique_ptr<sched::Policy> inner_;
  RankStats& stats_;
  SpanLog& spans_;
};

sched::Candidate sample_candidate(std::uint64_t i) {
  sched::Candidate c;
  c.sed_uid = i + 1;
  c.sed_endpoint = static_cast<gc::net::Endpoint>(100 + i);
  c.sed_name = "SeD-sagittaire-" + std::to_string(i);
  c.est.timestamp = 3600.25;
  c.est.host_power = 1.3;
  c.est.machines = 16;
  c.est.queue_length = 1.0;
  c.est.queued_work_s = 5000.0;
  c.est.free_cpu = 0.5;
  c.est.free_mem_mb = 2048.0;
  c.est.service_comp_s = 4100.0;
  c.est.jobs_completed = 3;
  return c;
}

/// Median per-message encode and decode nanoseconds for one message.
template <class Msg>
std::pair<double, double> time_message(const Msg& msg, SpanLog& spans,
                                       const std::string& label) {
  constexpr int kBatch = 2000;
  constexpr int kRounds = 5;
  const gc::net::Bytes wire = msg.encode();
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  for (int round = 0; round < kRounds; ++round) {
    {
      ScopedSpan span(spans, "net.codec.encode:" + label);
      const double t0 = now_s();
      for (int i = 0; i < kBatch; ++i) {
        gc::net::Bytes bytes = msg.encode();
        keep(bytes);
      }
      encode_s.push_back((now_s() - t0) / kBatch);
    }
    {
      ScopedSpan span(spans, "net.codec.decode:" + label);
      const double t0 = now_s();
      for (int i = 0; i < kBatch; ++i) {
        Msg decoded = Msg::decode(wire);
        keep(decoded);
      }
      decode_s.push_back((now_s() - t0) / kBatch);
    }
  }
  return {median(encode_s) * 1e9, median(decode_s) * 1e9};
}

/// Representative instance of every diet/protocol message type, timed.
std::map<std::uint32_t, std::pair<double, double>> codec_costs(
    const std::map<std::uint32_t, std::uint64_t>& mix, SpanLog& spans) {
  const diet::ProfileDesc zoom1 = gc::workflow::zoom1_profile_desc();
  const diet::ProfileDesc zoom2 = gc::workflow::zoom2_profile_desc();
  std::map<std::uint32_t, std::pair<double, double>> costs;
  auto wanted = [&mix](std::uint32_t type) { return mix.count(type) > 0; };

  if (wanted(diet::kSedRegister)) {
    diet::SedRegisterMsg m;
    m.sed_uid = 7;
    m.name = "SeD-sagittaire-0";
    m.host_power = 1.3;
    m.machines = 16;
    m.services = {zoom1, zoom2};
    costs[diet::kSedRegister] = time_message(m, spans, "sed_register");
  }
  if (wanted(diet::kAgentRegister)) {
    diet::AgentRegisterMsg m;
    m.name = "LA-lyon-sagittaire";
    m.services = {"ramsesZoom1", "ramsesZoom2"};
    costs[diet::kAgentRegister] = time_message(m, spans, "agent_register");
  }
  if (wanted(diet::kRequestSubmit)) {
    diet::RequestSubmitMsg m;
    m.client_request_id = 42;
    m.desc = zoom2;
    m.in_bytes = 4096;
    costs[diet::kRequestSubmit] = time_message(m, spans, "request_submit");
  }
  diet::RequestCollectMsg collect;
  collect.request_key = 1234;
  collect.desc = zoom2;
  collect.in_bytes = 4096;
  collect.timeout_s = 5.0;
  if (wanted(diet::kRequestCollect)) {
    costs[diet::kRequestCollect] =
        time_message(collect, spans, "request_collect");
  }
  if (wanted(diet::kPeerCollect)) {
    diet::RequestCollectMsg m = collect;
    m.origin_uid = 1;
    m.ttl = 1;
    costs[diet::kPeerCollect] = time_message(m, spans, "peer_collect");
  }
  if (wanted(diet::kCandidates)) {
    diet::CandidatesMsg m;
    m.request_key = 1234;
    m.candidates = {sample_candidate(0)};
    costs[diet::kCandidates] = time_message(m, spans, "candidates");
  }
  if (wanted(diet::kRequestReply)) {
    diet::RequestReplyMsg m;
    m.client_request_id = 42;
    m.found = true;
    m.chosen = sample_candidate(0);
    costs[diet::kRequestReply] = time_message(m, spans, "request_reply");
  }
  if (wanted(diet::kCallData)) {
    const diet::Profile profile = gc::workflow::make_zoom2_profile(
        ".bench_out/gcw/campaign_7/zoom.nml", 4096, 128, 100, 12, 40, 77, 2);
    gc::net::Writer w;
    profile.serialize_inputs(w);
    diet::CallDataMsg m;
    m.call_id = 42;
    m.path = "ramsesZoom2";
    m.last_in = zoom2.last_in();
    m.last_inout = zoom2.last_inout();
    m.last_out = zoom2.last_out();
    m.inputs = w.take();
    costs[diet::kCallData] = time_message(m, spans, "call_data");
  }
  if (wanted(diet::kCallStarted)) {
    diet::CallStartedMsg m;
    m.call_id = 42;
    costs[diet::kCallStarted] = time_message(m, spans, "call_started");
  }
  if (wanted(diet::kCallResult)) {
    diet::CallResultMsg m;
    m.call_id = 42;
    m.outputs = gc::net::Bytes(96, 0x5a);
    costs[diet::kCallResult] = time_message(m, spans, "call_result");
  }
  if (wanted(diet::kJobDone)) {
    diet::JobDoneMsg m;
    m.sed_uid = 7;
    m.call_id = 42;
    m.busy_seconds = 4100.0;
    costs[diet::kJobDone] = time_message(m, spans, "job_done");
  }
  if (wanted(diet::kLoadReport)) {
    diet::LoadReportMsg m;
    m.sed_uid = 7;
    m.queue_length = 1.0;
    m.queued_work_s = 5000.0;
    m.jobs_completed = 3;
    costs[diet::kLoadReport] = time_message(m, spans, "load_report");
  }
  if (wanted(diet::kHeartbeat)) {
    diet::HeartbeatMsg m;
    m.uid = 7;
    m.seq = 99;
    costs[diet::kHeartbeat] = time_message(m, spans, "heartbeat");
  }
  if (wanted(diet::kPeerAnnounce)) {
    diet::PeerAnnounceMsg m;
    m.ma_uid = 2;
    m.name = "MA2";
    m.services = {"work", "store", "rare0", "rare1", "rare2", "rare3"};
    costs[diet::kPeerAnnounce] = time_message(m, spans, "peer_announce");
  }
  if (wanted(diet::kPeerCandidates)) {
    diet::PeerCandidatesMsg m;
    m.request_key = 1234;
    m.ma_uid = 2;
    for (std::uint64_t i = 0; i < 4; ++i) {
      m.candidates.push_back(sample_candidate(i));
    }
    costs[diet::kPeerCandidates] = time_message(m, spans, "peer_candidates");
  }
  return costs;
}

}  // namespace

std::uint64_t counter_sum(const gc::obs::MetricsSnapshot& snapshot,
                          const std::string& name) {
  std::uint64_t sum = 0;
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name || key.rfind(name + "{", 0) == 0) sum += value;
  }
  return sum;
}

std::unique_ptr<sched::Policy> make_timed_policy(
    std::unique_ptr<sched::Policy> inner, RankStats& stats, SpanLog& spans) {
  return std::make_unique<TimedPolicy>(std::move(inner), stats, spans);
}

std::map<std::uint32_t, std::uint64_t> traced_message_mix() {
  std::map<std::uint32_t, std::uint64_t> mix;
  for (const gc::obs::TraceEvent& e : gc::obs::Tracer::instance().events()) {
    if (e.phase != gc::obs::TraceEvent::Phase::kSpan ||
        e.name.rfind("msg:", 0) != 0) {
      continue;
    }
    ++mix[static_cast<std::uint32_t>(std::strtoul(e.name.c_str() + 4,
                                                  nullptr, 10))];
  }
  return mix;
}

CodecCost time_codec(const std::map<std::uint32_t, std::uint64_t>& mix,
                     SpanLog& spans) {
  const auto costs = codec_costs(mix, spans);
  CodecCost out;
  for (const auto& [type, count] : mix) {
    out.total += count;
    const auto it = costs.find(type);
    if (it == costs.end()) continue;
    out.covered += count;
    out.encode_ns += static_cast<double>(count) * it->second.first;
    out.decode_ns += static_cast<double>(count) * it->second.second;
  }
  if (out.covered > 0) {
    out.encode_ns /= static_cast<double>(out.covered);
    out.decode_ns /= static_cast<double>(out.covered);
  }
  return out;
}

double time_flow_start_us(int active_flows, double wan_bandwidth_scale,
                          SpanLog& spans) {
  gc::platform::G5kOptions g5k_options;
  g5k_options.wan_bandwidth_scale = wan_bandwidth_scale;
  const gc::platform::G5kDeployment g5k =
      gc::platform::make_grid5000(16, g5k_options);
  // Routes between SED frontals, every ordered pair, so the flows cross
  // NICs, site LANs and the RENATER WAN the way the campaign's do.
  std::vector<gc::net::Route> routes;
  for (const auto& a : g5k.seds) {
    for (const auto& b : g5k.seds) {
      if (a.frontal == b.frontal) continue;
      gc::net::Route route;
      g5k.platform.route(a.frontal, b.frontal, route);
      if (route.hop_count > 0) routes.push_back(route);
    }
  }
  if (routes.empty()) return 0.0;
  constexpr std::int64_t kBytes = std::int64_t{2} << 30;
  constexpr int kSamples = 201;
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    gc::des::Engine engine;
    gc::net::FlowModel model(engine);
    for (int f = 0; f < active_flows; ++f) {
      model.start(routes[static_cast<std::size_t>(f) % routes.size()],
                  kBytes, [](double) {});
    }
    const gc::net::Route& route =
        routes[static_cast<std::size_t>(s + active_flows) % routes.size()];
    ScopedSpan span(spans, "net.flow_start");
    const double t0 = now_s();
    model.start(route, kBytes, [](double) {});
    samples.push_back(now_s() - t0);
  }
  return median(samples) * 1e6;
}

}  // namespace pb
