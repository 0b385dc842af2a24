// Communication ledger: every value a role publishes to the bulletin board
// is recorded here, priced in bytes and in ring elements.  The paper's
// claims (online O(1) per gate, offline O(n) per gate) are verified against
// these counters by the benchmark harness.
//
// The ledger is one of the shared-state classes the deterministic
// multi-core engine will contend on, so its buckets are lock-protected and
// thread-safety-annotated: clang -Wthread-safety proves every access goes
// through mu_ (see docs/STATIC_ANALYSIS.md, "Concurrency readiness").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "common/sync.hpp"

namespace yoso {

enum class Phase { Setup, Offline, Online };

const char* phase_name(Phase p);

struct LedgerEntry {
  std::size_t messages = 0;  // distinct broadcasts
  std::size_t elements = 0;  // ring/group elements carried
  std::size_t bytes = 0;     // serialized size
};

class Ledger {
public:
  Ledger() = default;
  // Deep copy under `other`'s lock.  Needed because the mutex member would
  // otherwise delete copying, and the service layer returns aggregate
  // ledgers by value.
  Ledger(const Ledger& other);
  Ledger& operator=(const Ledger& other);

  // Records one broadcast of `elements` ring elements totaling `bytes`.
  void record(Phase phase, const std::string& category, std::size_t bytes,
              std::size_t elements = 1);

  LedgerEntry phase_total(Phase phase) const;
  LedgerEntry total() const;
  // Per-category breakdown within a phase.  Locks internally; the returned
  // reference stays valid for the ledger's lifetime but is only consistent
  // while no writer is active (today the simulation is single-threaded).
  const std::map<std::string, LedgerEntry>& categories(Phase phase) const;

  void reset();

  // Adds every entry of `other` into this ledger, phase and category
  // preserved.  The service layer (src/service) folds per-session ledgers
  // and the triple pool's production ledgers into one aggregate view.
  void merge(const Ledger& other);

  // Human-readable dump (used by benches and examples).
  std::string report() const;

  // Machine-readable single-line JSON dump: per-phase totals and category
  // breakdowns plus the grand total.  Benches write this to BENCH_comm.json
  // so the communication trajectory is tracked across PRs.
  std::string report_json() const;

private:
  mutable Mutex mu_;
  std::map<std::string, LedgerEntry> setup_ GUARDED_BY(mu_);
  std::map<std::string, LedgerEntry> offline_ GUARDED_BY(mu_);
  std::map<std::string, LedgerEntry> online_ GUARDED_BY(mu_);

  std::map<std::string, LedgerEntry>& bucket(Phase phase) REQUIRES(mu_);
  const std::map<std::string, LedgerEntry>& bucket(Phase phase) const REQUIRES(mu_);
  LedgerEntry phase_total_locked(Phase phase) const REQUIRES(mu_);
  LedgerEntry total_locked() const REQUIRES(mu_);
};

}  // namespace yoso
