// MPWide-style WAN transfer engine knobs (Groen et al.: striped parallel
// TCP streams, the technique that kept the CosmoGrid simulations fed
// across continents).
//
// Applied by SEDs to their bulk dtm pushes (pull replies and write-
// replication). Striping only changes modeled time under the contention
// flow model, where each stripe is an independent flow: on a WAN link
// with a per-stream cap (lossy TCP), K stripes sustain up to K times the
// single-stream throughput; under fair sharing they also claim a K/(K+n)
// share against n competitors. With the flow model off, stripes still
// travel but the closed-form cost makes them a wash — the engine is
// honest, not a free speedup.
#pragma once

#include <cstdint>

namespace gc::dtm {

struct WanTuning {
  /// Parallel streams per bulk transfer (1 = classic single push).
  int streams = 1;
  /// Transfers below this size never stripe (stripe overhead dominates).
  std::int64_t stripe_min_bytes = 1 << 20;

  [[nodiscard]] bool striping(std::int64_t bytes) const {
    return streams > 1 && bytes >= stripe_min_bytes;
  }
};

}  // namespace gc::dtm
