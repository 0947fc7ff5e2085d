// Liveness: the heartbeats of every monitored edge (SED -> LA, LA -> MA,
// MA <-> peer MA; "each SeD is monitored by its responsible Local Agent",
// Section 2.2). Senders run a beacon, receivers a watchdog; callers say
// what a beat carries and what death and revival mean.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/env.hpp"

namespace gc::diet {

/// Runs `beat` every `period` seconds on `owner`'s timer chain until
/// `epoch` moves past the value it holds now: owners bump it in fail()
/// and shutdown(), so a stale chain never runs beside the one a restart
/// arms. A period <= 0 starts nothing.
void start_beacon(net::Actor& owner, double period,
                  const std::uint64_t& epoch, std::function<void()> beat);

/// Watchdog state per watched endpoint, embedded in the watcher's own
/// child/peer record so hot loops (collect fan-out) read a field.
struct LivenessEntry {
  bool alive = true;          ///< false = deadline expired, no beat since
  net::TimerId deadline = 0;  ///< pending deadline timer, 0 = none
};

template <typename Record>
Record* find_record(std::vector<Record>& records, net::Endpoint endpoint) {
  for (Record& record : records) {
    if (record.endpoint == endpoint) return &record;
  }
  return nullptr;
}

/// One heartbeat deadline per record in `records` (a Record has an
/// `endpoint` and a `LivenessEntry live`). An expired deadline looks its
/// record up again by endpoint, so it leaves alone a record evicted, or
/// re-registered under a fresh endpoint, since it was armed.
template <typename Record>
class Watchdog {
 public:
  using Hook = std::function<void(Record&)>;

  /// `on_dead` runs when a deadline marks a record dead, `on_revive` when a
  /// beat marks it alive again. A `timeout` <= 0 disables the watchdog, and
  /// deadlines do nothing once `halted` (the owner failed).
  Watchdog(net::Actor& owner, std::vector<Record>& records, double timeout,
           const bool& halted, Hook on_dead, Hook on_revive)
      : owner_(owner),
        records_(records),
        timeout_(timeout),
        halted_(halted),
        on_dead_(std::move(on_dead)),
        on_revive_(std::move(on_revive)) {}
  Watchdog(const Watchdog&) = delete;  // pending deadlines hold `this`
  Watchdog& operator=(const Watchdog&) = delete;

  /// (Re)arms `record`'s deadline, cancelling the pending one.
  void arm(Record& record) {
    if (timeout_ <= 0.0) return;
    cancel(record);
    record.live.deadline = owner_.env()->post_after_as(
        owner_.endpoint(), timeout_, [this, watched = record.endpoint]() {
          Record* r = halted_ ? nullptr : find_record(records_, watched);
          if (r == nullptr || !r->live.alive) return;
          r->live.alive = false;
          r->live.deadline = 0;
          on_dead_(*r);
        });
  }

  /// A heartbeat from `record`: revives it if dead-marked, then re-arms.
  void beat(Record& record) {
    if (!record.live.alive) {
      record.live.alive = true;
      on_revive_(record);
    }
    arm(record);
  }

  void cancel_all() {
    for (Record& record : records_) cancel(record);
  }

 private:
  void cancel(Record& record) {
    if (record.live.deadline == 0) return;
    owner_.env()->cancel_timer(record.live.deadline);
    record.live.deadline = 0;
  }

  net::Actor& owner_;
  std::vector<Record>& records_;
  double timeout_;
  const bool& halted_;
  Hook on_dead_;
  Hook on_revive_;
};

}  // namespace gc::diet
