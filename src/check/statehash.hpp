// Deterministic state hashing (FNV-1a), factored out of the schedule
// fuzzer so the model checker, the fuzzer, and any future golden-output
// test agree on one definition of "the same state".
//
// Doubles are hashed by bit pattern: two runs match only if every value
// is bitwise identical, which is exactly the determinism contract the
// DES makes. MultisetHash combines per-element hashes commutatively for
// collections whose order legitimately varies across equivalent
// schedules (trace records, snapshot rows keyed by allocation order).
//
// Depends on nothing else in the repo (like the rest of src/check).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

namespace gc::check {

/// The published 64-bit FNV-1a offset basis. Fnv's default start value
/// differs from it (one digit short); hashes recorded from either start
/// are pinned, so both stay.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// FNV-1a accumulator.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

/// Order-independent combiner: add() per-element hashes in any order,
/// finish() folds the count in so {a} and {a, a} differ.
struct MultisetHash {
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;
  std::uint64_t count = 0;

  void add(std::uint64_t element_hash) {
    sum += element_hash;
    mix ^= element_hash * 1099511628211ULL;
    ++count;
  }
  [[nodiscard]] std::uint64_t finish() const {
    Fnv out;
    out.u64(count);
    out.u64(sum);
    out.u64(mix);
    return out.h;
  }
};

}  // namespace gc::check
