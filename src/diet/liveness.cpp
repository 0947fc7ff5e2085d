#include "diet/liveness.hpp"

namespace gc::diet {

void start_beacon(net::Actor& owner, double period,
                  const std::uint64_t& epoch, std::function<void()> beat) {
  if (period <= 0.0) return;
  owner.env()->post_after_as(
      owner.endpoint(), period,
      [&owner, period, &epoch, armed = epoch,
       beat = std::move(beat)]() mutable {
        if (epoch != armed) return;
        beat();
        start_beacon(owner, period, epoch, std::move(beat));
      });
}

}  // namespace gc::diet
