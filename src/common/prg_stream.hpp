// Per-task PRG stream derivation — the blessed seam for task-local
// randomness in the deterministic multi-core engine.
//
// A shared sequential PRG is the enemy of parallelism: the value a task
// draws depends on how many draws every earlier task made, so any change in
// scheduling order changes every downstream byte.  The multi-core engine
// instead keys each task's randomness by (seed, role, activation index):
//
//   std::uint64_t s = prg::subseed({run_seed, "offline.triple", gate});
//   Rng rng(s);                       // or: Prg stream = prg::derive_prg(key)
//
// Two properties make this the determinism contract the thread-pool PR must
// keep (tests/prg_stream_test.cpp):
//
//   * independence — distinct (seed, role, activation) keys give
//     independent streams; no draw count leaks between tasks, so tasks can
//     execute in any order (or concurrently) with identical results;
//   * sequential equivalence — SequentialStreams hands out the same
//     sub-seeds a direct keyed derivation would produce when activations
//     are consumed in order, so a single-threaded run and an N-threaded
//     run that partition the same activation space are bit-identical.
//
// The tools/lint `prg-discipline` rule flags ad-hoc construction of the
// sequential generators (Rng / Prg / gmp_randclass) outside this seam;
// pre-existing derivations are whitelisted (changing them would shift every
// seeded transcript and the committed BENCH_comm.json record) but new code
// must come here.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "crypto/prg.hpp"

namespace yoso::prg {

// One task-local stream identity.  `role` names the seam (dotted lowercase,
// e.g. "offline.triple", "chaos.schedule"); `activation` is the task's
// index within that role (gate number, schedule number, party index, ...).
struct StreamKey {
  std::uint64_t seed = 0;
  std::string role;
  std::uint64_t activation = 0;
};

// 64-bit sub-seed: the first 8 bytes (little-endian) of
// SHA-256("yoso.prg.stream" || seed || role || activation).  Collisions
// across distinct keys are cryptographically negligible, unlike the xor/mix
// folklore derivations this replaces.
std::uint64_t subseed(const StreamKey& key);
std::uint64_t subseed(std::uint64_t seed, std::string_view role, std::uint64_t activation);

// A full independent byte stream for tasks that draw heavily (Prg is the
// SHA-256 counter-mode generator; copyable, unlike Rng).
Prg derive_prg(const StreamKey& key);

// Sequential facade over the keyed derivation: next_subseed(role) consumes
// activation indices 0, 1, 2, ... per role.  A single-threaded caller that
// pulls streams in activation order gets exactly the sub-seeds a parallel
// scheduler would hand its tasks by direct keyed derivation — that equality
// is asserted in tests/prg_stream_test.cpp.
class SequentialStreams {
public:
  explicit SequentialStreams(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t next_subseed(const std::string& role);
  Prg next_prg(const std::string& role);

  // Activations consumed so far for `role` (the next index handed out).
  std::uint64_t activations(const std::string& role) const;

private:
  std::uint64_t seed_ = 0;
  std::map<std::string, std::uint64_t> next_;
};

}  // namespace yoso::prg
