#include "diet/sed.hpp"

#include <algorithm>
#include <utility>

#include "check/mutation.hpp"
#include "common/log.hpp"
#include "diet/liveness.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace gc::diet {

namespace {

/// ServiceContext bound to one running job on one SED.
class SedContext final : public ServiceContext {
 public:
  SedContext(Sed& sed, Sed::PendingJob job, SimTime started)
      : sed_(sed), job_(std::move(job)), started_(started) {}

  Profile& profile() override { return job_.profile; }
  net::Env& env() override { return *sed_.env(); }
  double host_power() const override { return sed_.host_power(); }
  int machines() const override { return sed_.machines(); }
  const std::string& sed_name() const override { return sed_.name(); }
  const std::string& work_dir() const override { return work_dir_; }
  Rng& rng() override { return rng_; }

  void compute(double modeled_seconds, std::function<int()> work,
               std::function<void(int)> then) override {
    sed_.env()->execute(sed_.node(), modeled_seconds, std::move(work),
                        std::move(then));
  }

  void finish(int solve_status) override {
    GC_CHECK_MSG(!finished_, "ServiceContext::finish called twice");
    finished_ = true;
    sed_.complete_job(job_, started_, solve_status);
  }

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  friend class gc::diet::Sed;
  Sed& sed_;
  Sed::PendingJob job_;
  SimTime started_;
  std::string work_dir_;
  Rng rng_{0};
  bool finished_ = false;
};

/// Decodes a stored/pushed blob back into an ArgValue for materialization.
ArgValue decode_blob(const net::Bytes& value) {
  net::Reader r(value);
  ArgValue arg;
  arg.deserialize_value(r);
  return arg;
}

}  // namespace

Sed::Sed(std::uint64_t uid, std::string name, ServiceTable& services,
         double host_power, int machines, SedTuning tuning,
         std::uint64_t seed)
    : uid_(uid),
      name_(std::move(name)),
      services_(services),
      host_power_(host_power),
      machines_(machines),
      tuning_(std::move(tuning)),
      rng_(seed),
      data_manager_(tuning_.data_store_max_bytes, name_) {
  // Catalog-coordinated eviction: an LRU victim leaves the hierarchy
  // catalog too, so locate answers never point at data we dropped.
  data_manager_.set_eviction_listener(
      [this](const std::string& id, std::int64_t /*bytes*/) {
        if (failed_ || parent_ == net::kNullEndpoint || env() == nullptr) {
          return;
        }
        dtm::DataUnregisterMsg msg;
        msg.sed_uid = uid_;
        msg.data_id = id;
        env()->send(net::Envelope{endpoint(), parent_, dtm::kDataUnregister,
                                  msg.encode(), 0});
      });
}

void Sed::register_at(net::Endpoint parent) {
  parent_ = parent;
  SedRegisterMsg msg;
  msg.sed_uid = uid_;
  msg.name = name_;
  msg.host_power = host_power_;
  msg.machines = machines_;
  for (const auto& path : services_.service_paths()) {
    msg.services.push_back(services_.find_by_path(path)->desc);
  }
  env()->send(net::Envelope{endpoint(), parent, kSedRegister, msg.encode(), 0});
  start_beacon(*this, tuning_.heartbeat_period, epoch_, [this]() {
    HeartbeatMsg beat;
    beat.uid = uid_;
    beat.seq = ++heartbeat_seq_;
    env()->send(
        net::Envelope{endpoint(), parent_, kHeartbeat, beat.encode(), 0});
  });
}

void Sed::fail() {
  failed_ = true;
  ++epoch_;
  queue_.clear();
  for (auto& [id, fetch] : fetches_) {
    if (fetch.timer != 0) env()->cancel_timer(fetch.timer);
  }
  fetches_.clear();
  blocked_.clear();
  stripes_.clear();  // partially reassembled transfers die with the crash
  if constexpr (check::kEnabled) live_calls_.reset();
  queued_work_s_ = 0.0;
  // Running contexts are abandoned: their finish() becomes a no-op send
  // from a detached endpoint once we leave the Env.
  env()->detach(endpoint());
}

void Sed::restart() {
  GC_CHECK_MSG(failed_, "restarting a SED that is not failed");
  failed_ = false;
  running_ = 0;
  heartbeat_seq_ = 0;
  // The crash lost everything in memory: queued jobs are already gone
  // (fail() cleared them) and the DTM store starts cold — the parent
  // drops this SED's catalog entries when it sees the re-registration,
  // and clients holding references recover through a peer re-fetch (or
  // the missing-data resend when no replica survived). seen_calls_ and
  // executed_calls_ survive on purpose (see the header).
  data_manager_.clear();
  env()->attach(*this, node());
  register_at(parent_);
}

void Sed::shutdown() { ++epoch_; }

void Sed::on_message(const net::Envelope& envelope) {
  if (failed_) return;
  switch (envelope.type) {
    case kRequestCollect:
      handle_collect(envelope);
      break;
    case kCallData:
      handle_call(envelope);
      break;
    case dtm::kDataLocation:
      handle_data_location(envelope);
      break;
    case dtm::kDataPull:
      handle_data_pull(envelope);
      break;
    case dtm::kDataPush:
      handle_data_push(envelope);
      break;
    case dtm::kDataStripe:
      handle_data_stripe(envelope);
      break;
    case dtm::kDataReplicate:
      handle_data_replicate(envelope);
      break;
    case kRegisterAck:
      break;
    default:
      GC_WARN << "sed " << name_ << ": unexpected message type "
              << envelope.type;
  }
}

double Sed::noisy(double base) {
  if (tuning_.delay_noise_cv <= 0.0 || base <= 0.0) return base;
  return rng_.lognormal_with_mean(base, tuning_.delay_noise_cv);
}

sched::Estimation Sed::make_estimation(const ProfileDesc& request) {
  sched::Estimation est;
  est.timestamp = env()->now();
  est.host_power = host_power_;
  est.machines = machines_;
  est.queue_length = static_cast<double>(queue_length());
  est.queued_work_s = queued_work_s_;
  est.free_cpu = running_ > 0 ? 0.15 : 0.95;
  est.free_mem_mb = running_ > 0 ? 1024.0 : 3584.0;
  est.jobs_completed = completed_;
  const ServiceEntry* entry = services_.find(request);
  if (entry != nullptr && entry->estimator) {
    entry->estimator(request, host_power_, machines_, est);
  }
  return est;
}

void Sed::handle_collect(const net::Envelope& envelope) {
  const RequestCollectMsg msg = RequestCollectMsg::decode(envelope.payload);
  CandidatesMsg reply;
  reply.request_key = msg.request_key;
  if (services_.find(msg.desc) != nullptr) {
    sched::Candidate self;
    self.sed_uid = uid_;
    self.sed_endpoint = endpoint();
    self.sed_name = name_;
    self.est = make_estimation(msg.desc);
    reply.candidates.push_back(std::move(self));
  }
  const net::Endpoint to = envelope.from;
  const obs::TraceId trace_id = envelope.trace_id;
  const std::uint64_t epoch = epoch_;
  env()->post_after(noisy(tuning_.estimation_delay),
                    [this, to, reply, trace_id, epoch]() {
    if (failed_ || epoch != epoch_) return;
    env()->send(net::Envelope{endpoint(), to, kCandidates, reply.encode(), 0,
                              trace_id});
  });
}

void Sed::store_value(const ArgValue& arg, int replicas, obs::TraceId trace) {
  net::Writer w;
  arg.serialize_value(w);
  dtm::Blob blob;
  blob.value = w.take();
  blob.charged_bytes = arg.wire_bytes();
  const std::int64_t charged = blob.charged_bytes;
  const bool fresh = data_manager_.store(arg.data_id(), std::move(blob));
  if (fresh && parent_ != net::kNullEndpoint) {
    dtm::DataRegisterMsg reg;
    reg.data_id = arg.data_id();
    reg.holder = dtm::ReplicaInfo{uid_, endpoint(), node(), charged};
    reg.replicas = static_cast<std::int32_t>(replicas);
    env()->send(net::Envelope{endpoint(), parent_, dtm::kDataRegister,
                              reg.encode(), 0, trace});
  }
}

void Sed::begin_fetch(const std::string& id, std::uint64_t call_id,
                      obs::TraceId trace) {
  FetchState& fetch = fetches_[id];
  fetch.waiters.push_back(call_id);
  if (fetch.waiters.size() > 1) return;  // locate already in flight
  dtm::DataLocateMsg msg;
  msg.data_id = id;
  msg.requester_uid = uid_;
  msg.requester_endpoint = endpoint();
  env()->send(net::Envelope{endpoint(), parent_, dtm::kDataLocate,
                            msg.encode(), 0, trace});
  if (tuning_.data_fetch_timeout_s > 0.0) {
    const std::uint64_t epoch = epoch_;
    fetch.timer = env()->post_after(tuning_.data_fetch_timeout_s,
                                    [this, id, epoch]() {
      if (failed_ || epoch != epoch_) return;
      auto it = fetches_.find(id);
      if (it == fetches_.end()) return;
      it->second.timer = 0;
      fail_fetch(id);
    });
  }
}

void Sed::fail_fetch(const std::string& id) {
  auto it = fetches_.find(id);
  if (it == fetches_.end()) return;
  FetchState fetch = std::move(it->second);
  fetches_.erase(it);
  if (fetch.timer != 0) env()->cancel_timer(fetch.timer);
  for (const std::uint64_t call_id : fetch.waiters) {
    auto blocked = blocked_.find(call_id);
    if (blocked == blocked_.end()) continue;  // already failed via another id
    PendingJob job = std::move(blocked->second.job);
    blocked_.erase(blocked);
    GC_WARN << "sed " << name_ << ": missing persistent data " << id
            << " for call " << job.call_id;
    seen_calls_.erase(job.call_id);  // the full-data resend reuses the id
    CallResultMsg result;
    result.call_id = job.call_id;
    result.solve_status = kMissingDataStatus;
    env()->send(net::Envelope{endpoint(), job.client, kCallResult,
                              result.encode(), 0, job.trace_id});
  }
}

void Sed::handle_call(const net::Envelope& envelope) {
  GC_INVARIANT(envelope.trace_id != 0,
               "call-data envelope carries no trace id");
  CallDataMsg msg = CallDataMsg::decode(envelope.payload);
  // At-most-once: a call id we already accepted is a duplicate delivery
  // (the network's or a stale retry's) and must not execute again.
  // Mutation seam kSedSkipDedup drops the journal lookup — a duplicated
  // kCallData then executes twice and trips executed_calls_.
  if (!check::mutation_enabled(check::Mutation::kSedSkipDedup) &&
      seen_calls_.count(msg.call_id) > 0) {
    if (obs::metrics_on()) {
      obs::Metrics::instance()
          .counter("diet_sed_duplicate_calls_total", {{"sed", name_}})
          .inc();
    }
    return;
  }
  seen_calls_.insert(msg.call_id);
  net::Reader r(msg.inputs);
  PendingJob job;
  job.call_id = msg.call_id;
  job.client = envelope.from;
  job.profile = Profile::deserialize_inputs(msg.path, msg.last_in,
                                            msg.last_inout, msg.last_out, r);
  job.arrived = env()->now();
  job.comp_estimate_s = 0.0;
  job.trace_id = envelope.trace_id;

  const ServiceEntry* entry = services_.find_by_path(msg.path);
  if (entry == nullptr) {
    GC_WARN << "sed " << name_ << ": no service " << msg.path;
    seen_calls_.erase(msg.call_id);  // the error reply invites a resend
    CallResultMsg result;
    result.call_id = msg.call_id;
    result.solve_status = -1;
    env()->send(net::Envelope{endpoint(), job.client, kCallResult,
                              result.encode(), 0, job.trace_id});
    return;
  }

  // Persistent data management: incoming persistent values are stored on
  // receipt (and registered in the hierarchy catalog) so calls queued
  // behind this one can reference them; incoming references are resolved
  // against the local store, and local misses start a peer-to-peer fetch
  // through the catalog instead of failing back to the client.
  std::set<std::string> missing;
  for (int i = 0; i <= job.profile.last_inout(); ++i) {
    ArgValue& arg = job.profile.arg(i);
    if (!arg.has_value()) continue;
    if (arg.is_reference()) {
      const dtm::Blob* stored = data_manager_.lookup(arg.data_id());
      if (stored == nullptr) {
        if (parent_ == net::kNullEndpoint) {
          // No hierarchy to ask: fail fast, the client resends in full.
          GC_WARN << "sed " << name_ << ": missing persistent data "
                  << arg.data_id() << " for call " << msg.call_id;
          seen_calls_.erase(msg.call_id);
          CallResultMsg result;
          result.call_id = msg.call_id;
          result.solve_status = kMissingDataStatus;
          env()->send(net::Envelope{endpoint(), job.client, kCallResult,
                                    result.encode(), 0, job.trace_id});
          return;
        }
        missing.insert(arg.data_id());
      } else {
        arg.materialize_from(decode_blob(stored->value));
      }
    } else if (arg.desc.persistence != Persistence::kVolatile &&
               !arg.data_id().empty()) {
      store_value(arg, tuning_.replication_factor, job.trace_id);
    }
  }
  if (!missing.empty()) {
    const std::uint64_t call_id = job.call_id;
    const obs::TraceId trace = job.trace_id;
    BlockedCall blocked;
    blocked.job = std::move(job);
    blocked.missing = missing;
    blocked_.emplace(call_id, std::move(blocked));
    for (const auto& id : missing) begin_fetch(id, call_id, trace);
    return;
  }
  admit_job(std::move(job), entry);
}

void Sed::admit_job(PendingJob job, const ServiceEntry* entry) {
  if (entry->estimator) {
    sched::Estimation est;
    est.host_power = host_power_;
    est.machines = machines_;
    entry->estimator(entry->desc, host_power_, machines_, est);
    if (est.service_comp_s > 0.0) job.comp_estimate_s = est.service_comp_s;
  }
  if (obs::tracing()) {
    job.queue_span = obs::Tracer::instance().begin_span(
        env()->now(), "queue:" + job.profile.path(), "sed:" + name_,
        job.trace_id);
  }
  queued_work_s_ += job.comp_estimate_s;
  if constexpr (check::kEnabled) {
    live_calls_.add(job.call_id, __FILE__, __LINE__);
  }
  job.epoch = epoch_;
  queue_.push_back(std::move(job));
  if (obs::metrics_on()) {
    auto& gauge = obs::Metrics::instance()
        .gauge("diet_sed_queue_depth", {{"sed", name_}});
    gauge.set(static_cast<double>(queue_length()));
    GC_INVARIANT(gauge.value() == static_cast<double>(queue_length()),
                 "queue-depth gauge diverged from the queue");
  }
  start_next();
}

void Sed::handle_data_location(const net::Envelope& envelope) {
  const dtm::DataLocationMsg msg = dtm::DataLocationMsg::decode(
      envelope.payload);
  auto it = fetches_.find(msg.data_id);
  if (it == fetches_.end() || it->second.pull_sent) return;
  // Nearest replica on the modeled links; smallest uid breaks ties so the
  // choice is deterministic under the DES.
  const dtm::ReplicaInfo* best = nullptr;
  double best_time = 0.0;
  for (const auto& replica : msg.replicas) {
    if (replica.sed_uid == uid_) continue;
    // Contention-aware when the flow model is on: a congested path ranks
    // worse than an idle one even if its raw links are faster.
    const double t =
        env()->estimate_transfer_s(replica.node, node(), replica.bytes);
    if (best == nullptr || t < best_time ||
        (t == best_time && replica.sed_uid < best->sed_uid)) {
      best = &replica;
      best_time = t;
    }
  }
  if (best == nullptr) {
    fail_fetch(msg.data_id);
    return;
  }
  it->second.pull_sent = true;
  dtm::DataPullMsg pull;
  pull.data_id = msg.data_id;
  pull.requester_uid = uid_;
  env()->send(net::Envelope{endpoint(), best->endpoint, dtm::kDataPull,
                            pull.encode(), 0, envelope.trace_id});
}

void Sed::handle_data_pull(const net::Envelope& envelope) {
  const dtm::DataPullMsg msg = dtm::DataPullMsg::decode(envelope.payload);
  push_data(msg, envelope.from, envelope.trace_id);
}

void Sed::push_data(const dtm::DataPullMsg& msg, net::Endpoint requester,
                    obs::TraceId trace) {
  const dtm::Blob* stored = data_manager_.lookup(msg.data_id);
  if (stored == nullptr) {
    // Evicted between the catalog answer and the pull: a not-found push
    // (never striped — there are no bytes to stripe).
    dtm::DataPushMsg push;
    push.data_id = msg.data_id;
    env()->send(net::Envelope{endpoint(), requester, dtm::kDataPush,
                              push.encode(), 0, trace});
    return;
  }
  const std::int64_t total = stored->charged_bytes;
  // The requester holds a copy once the transfer lands: our entry now has
  // a replica elsewhere and becomes a preferred eviction victim.
  data_manager_.set_replica_hint(msg.data_id, 1);
  if (obs::metrics_on()) {
    // Per-link accounting, same label convention as net_bytes_total:
    // this transfer rides node() -> requester's node.
    const std::string link = "n" + std::to_string(node()) + "->n" +
                             std::to_string(env()->node_of(requester));
    obs::Metrics::instance()
        .counter("diet_dtm_bytes_moved_total",
                 {{"sed", name_}, {"link", link}})
        .inc(static_cast<std::uint64_t>(total));
  }
  if (!tuning_.wan.striping(total)) {
    dtm::DataPushMsg push;
    push.data_id = msg.data_id;
    push.found = true;
    push.value = stored->value;
    push.charged_bytes = total;
    const std::int64_t extra = std::max<std::int64_t>(
        0, total - static_cast<std::int64_t>(stored->value.size()));
    env()->send(net::Envelope{endpoint(), requester, dtm::kDataPush,
                              push.encode(), extra, trace});
    return;
  }

  // MPWide-style striped transfer: split the bulk push into K stripes,
  // each an out-of-band envelope — its own parallel stream under the
  // contention flow model. Stripe 0 carries the serialized value; the
  // others charge their slice purely through modeled_extra_bytes.
  const int streams = tuning_.wan.streams;
  const std::uint64_t transfer_id = (uid_ << 32) | ++stripe_counter_;
  const std::int64_t share = total / streams;
  for (int i = 0; i < streams; ++i) {
    dtm::DataStripeMsg stripe;
    stripe.transfer_id = transfer_id;
    stripe.data_id = msg.data_id;
    stripe.stripe_index = static_cast<std::uint32_t>(i);
    stripe.stripe_count = static_cast<std::uint32_t>(streams);
    stripe.found = true;
    stripe.total_bytes = total;
    stripe.dest_endpoint = requester;
    std::int64_t stripe_bytes = share;
    std::int64_t extra = share;
    if (i == 0) {
      stripe_bytes = total - share * (streams - 1);  // + remainder
      stripe.value = stored->value;
      extra = std::max<std::int64_t>(
          0, stripe_bytes - static_cast<std::int64_t>(stored->value.size()));
    }
    net::Envelope out{endpoint(), requester, dtm::kDataStripe,
                      stripe.encode(), extra, trace};
    out.oob = true;  // parallel streams skip FIFO serialization
    env()->send(out);
  }
}

void Sed::handle_data_push(const net::Envelope& envelope) {
  const dtm::DataPushMsg msg = dtm::DataPushMsg::decode(envelope.payload);
  finish_fetch(msg.data_id, msg.found, msg.value, msg.charged_bytes,
               envelope.trace_id);
}

void Sed::handle_data_stripe(const net::Envelope& envelope) {
  const dtm::DataStripeMsg msg = dtm::DataStripeMsg::decode(envelope.payload);
  StripeAssembly& assembly = stripes_[msg.transfer_id];
  if (assembly.count == 0) assembly.count = msg.stripe_count;
  GC_CHECK_MSG(assembly.count == msg.stripe_count,
               "stripe count changed mid-transfer");
  ++assembly.received;
  if (msg.stripe_index == 0) assembly.value = msg.value;
  assembly.total_bytes = msg.total_bytes;
  if (assembly.received < assembly.count) return;
  StripeAssembly done = std::move(assembly);
  stripes_.erase(msg.transfer_id);
  finish_fetch(msg.data_id, true, done.value, done.total_bytes,
               envelope.trace_id);
}

void Sed::finish_fetch(const std::string& data_id, bool found,
                       const net::Bytes& value, std::int64_t charged_bytes,
                       obs::TraceId trace) {
  auto it = fetches_.find(data_id);
  if (!found) {
    // The peer evicted it between the catalog answer and our pull.
    if (it != fetches_.end()) fail_fetch(data_id);
    return;
  }
  dtm::Blob blob;
  blob.value = value;
  blob.charged_bytes = charged_bytes;
  const bool fresh = data_manager_.store(data_id, std::move(blob));
  // The pusher still holds the value: both copies are replicated now.
  data_manager_.set_replica_hint(data_id, 1);
  if (fresh && parent_ != net::kNullEndpoint) {
    dtm::DataRegisterMsg reg;
    reg.data_id = data_id;
    reg.holder = dtm::ReplicaInfo{uid_, endpoint(), node(), charged_bytes};
    reg.replicas = 1;  // a pulled copy never cascades replication
    env()->send(net::Envelope{endpoint(), parent_, dtm::kDataRegister,
                              reg.encode(), 0, trace});
  }
  if (it == fetches_.end()) return;  // replication copy: nobody is waiting
  FetchState fetch = std::move(it->second);
  fetches_.erase(it);
  if (fetch.timer != 0) env()->cancel_timer(fetch.timer);
  const ArgValue stored = decode_blob(value);
  for (const std::uint64_t call_id : fetch.waiters) {
    auto blocked = blocked_.find(call_id);
    if (blocked == blocked_.end()) continue;  // failed via another id
    BlockedCall& call = blocked->second;
    for (int i = 0; i <= call.job.profile.last_inout(); ++i) {
      ArgValue& arg = call.job.profile.arg(i);
      if (arg.has_value() && arg.is_reference() &&
          arg.data_id() == data_id) {
        arg.materialize_from(stored);
      }
    }
    call.missing.erase(data_id);
    if (call.missing.empty()) {
      PendingJob job = std::move(call.job);
      blocked_.erase(blocked);
      const ServiceEntry* entry = services_.find_by_path(job.profile.path());
      GC_CHECK(entry != nullptr);  // checked when the call arrived
      admit_job(std::move(job), entry);
    }
  }
}

void Sed::handle_data_replicate(const net::Envelope& envelope) {
  const dtm::DataReplicateMsg msg = dtm::DataReplicateMsg::decode(
      envelope.payload);
  if (msg.holder.sed_uid == uid_ || data_manager_.contains(msg.data_id)) {
    return;
  }
  dtm::DataPullMsg pull;
  pull.data_id = msg.data_id;
  pull.requester_uid = uid_;
  env()->send(net::Envelope{endpoint(), msg.holder.endpoint, dtm::kDataPull,
                            pull.encode(), 0, envelope.trace_id});
}

void Sed::start_next() {
  if (running_ >= tuning_.concurrency || queue_.empty()) return;
  ++running_;
  PendingJob job = std::move(queue_.front());
  queue_.pop_front();

  const double init = noisy(tuning_.init_delay);
  env()->post_after(init, [this, job = std::move(job)]() mutable {
    if (failed_ || job.epoch != epoch_) return;
    // Service initiation complete: tell the client (the latency series of
    // Figure 5 ends here) and hand over to the solve function.
    CallStartedMsg started;
    started.call_id = job.call_id;
    env()->send(net::Envelope{endpoint(), job.client, kCallStarted,
                              started.encode(), 0, job.trace_id});
    const std::string path = job.profile.path();
    const ServiceEntry* entry = services_.find_by_path(path);
    GC_CHECK(entry != nullptr);  // checked on enqueue
    obs::Tracer::instance().end_span(job.queue_span, env()->now());
    job.queue_span = 0;
    if (obs::tracing()) {
      job.exec_span = obs::Tracer::instance().begin_span(
          env()->now(), "exec:" + path, "sed:" + name_, job.trace_id);
    }
    if constexpr (check::kEnabled) {
      // THE at-most-once oracle: this id reaches a solve function for the
      // first and only time, ever, crashes and retries notwithstanding.
      executed_calls_.add(job.call_id, __FILE__, __LINE__);
    }
    auto ctx =
        std::make_unique<SedContext>(*this, std::move(job), env()->now());
    ctx->work_dir_ = tuning_.work_dir;
    ctx->rng_.reseed(rng_.next_u64());
    ServiceContext& ref = *ctx;
    live_contexts_.push_back(std::move(ctx));
    entry->solve(ref);
  });
}

void Sed::complete_job(PendingJob& job, SimTime started, int solve_status) {
  // A dead SED sends nothing; a job from before a crash-restart belongs
  // to the previous incarnation and must not leak into this one.
  if (failed_ || job.epoch != epoch_) return;
  Profile& profile = job.profile;
  const SimTime finished = env()->now();

  // Persist non-volatile arguments for future reference calls; fresh ids
  // register in the hierarchy catalog and request write-replication.
  // Service-produced outputs arrive without an identity — mint one from
  // the content so the client (the id rides home in the outputs) and the
  // catalog agree on what the data is called.
  if (solve_status == 0) {
    for (int i = 0; i < profile.arg_count(); ++i) {
      ArgValue& arg = profile.arg(i);
      if (arg.desc.persistence == Persistence::kVolatile || !arg.has_value())
        continue;
      if (arg.data_id().empty() && !arg.is_reference()) {
        arg.set_data_id(arg.content_id());
      }
      if (arg.data_id().empty()) continue;
      store_value(arg, tuning_.replication_factor, job.trace_id);
      // DIET semantics: PERSISTENT/STICKY OUT data stays on the server —
      // only the id travels home (PERSISTENT_RETURN ships the value too).
      // The client, or a later request, reaches the bytes through the
      // replica catalog instead of the result message.
      if (i > profile.last_inout() &&
          (arg.desc.persistence == Persistence::kPersistent ||
           arg.desc.persistence == Persistence::kSticky)) {
        arg.make_reference();
      }
    }
  }

  CallResultMsg result;
  result.call_id = job.call_id;
  result.solve_status = solve_status;
  net::Writer w;
  profile.serialize_outputs(w);
  result.outputs = w.take();
  env()->send(net::Envelope{endpoint(), job.client, kCallResult,
                            result.encode(), profile.out_file_bytes(),
                            job.trace_id});

  ++completed_;
  busy_seconds_ += finished - started;
  queued_work_s_ = std::max(0.0, queued_work_s_ - job.comp_estimate_s);
  GC_INVARIANT(running_ > 0, "completing a job with no job running");
  if constexpr (check::kEnabled) live_calls_.remove(job.call_id);
  job_log_.push_back(JobRecord{job.call_id, profile.path(), job.arrived,
                               started, finished, solve_status});
  if (obs::journal_on()) {
    // Keyed by trace id, so it pairs with the client's completion record
    // at export time without anything extra on the wire.
    obs::Journal::instance().sed_phases(job.trace_id, name_, job.arrived,
                                        started, finished);
  }
  obs::Tracer::instance().end_span(job.exec_span, finished);
  job.exec_span = 0;
  if (obs::metrics_on()) {
    auto& m = obs::Metrics::instance();
    const obs::Labels labels = {{"sed", name_}};
    m.counter("diet_sed_jobs_total", labels).inc();
    m.gauge("diet_sed_busy_seconds_total", labels).add(finished - started);
    m.gauge("diet_sed_queue_depth", labels)
        .set(static_cast<double>(queue_length() - 1));  // this job leaves
  }

  if (parent_ != net::kNullEndpoint) {
    JobDoneMsg done;
    done.sed_uid = uid_;
    done.call_id = job.call_id;
    done.busy_seconds = finished - started;
    env()->send(net::Envelope{endpoint(), parent_, kJobDone, done.encode(), 0,
                              job.trace_id});
  }

  --running_;
  // Retire finished contexts on a fresh event: the caller's stack frame
  // still lives inside the context we are about to destroy.
  env()->post_after(0.0, [this]() {
    live_contexts_.erase(
        std::remove_if(live_contexts_.begin(), live_contexts_.end(),
                       [](const std::unique_ptr<ServiceContext>& c) {
                         return static_cast<SedContext*>(c.get())->finished();
                       }),
        live_contexts_.end());
    start_next();
  });
}

}  // namespace gc::diet
