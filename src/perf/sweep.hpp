// Reproducible n-sweeps for the performance observatory.
//
// The *audit* sweep is the one controlled regime every communication and
// compute key is recorded from.  ProtocolParams::for_gap lets the packing
// factor k drift sublinearly at small n (k = 2, 2, 3, 4, 5 over
// n = 4, 6, 8, 12, 16), which contaminates the online per-gate exponent
// with a spurious n/k trend; the audit regime pins k = max(1, (n+2)/4)
// (k = 1, 2, 2, 3, 4 over the same n) so n/k stays (near) constant and
// the fitted slope measures the per-gate cost law itself.  Varying k is
// bench_ablation_packing's job.
//
// One audit run yields every audit-derived key.  run_audit_point() resets
// the op profiler, runs ours over a net::NetBulletin and the CDN baseline
// on the default board, and keeps:
//   - the two ledgers ("scaling_audit"), from which perf audit derives the
//     E3 online and E4 offline tables (perf/audit.hpp);
//   - the op counts over both runs ("profile", E15), so one point covers
//     all four phase contexts: ours' setup/offline/online plus the CDN's;
//   - the happens-before DAG of ours' run, priced with the reference table
//     (perf/critpath.hpp) into the "critpath" analysis and DAG summary (E16).
// The DAG is finalized before the CDN run starts, so its Residue node holds
// none of the CDN's ops: dag.op_total equals the profile total minus its
// by_phase.cdn counts.  Every key is a pure function of seeds 9300/9400 + n.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"

namespace yoso::perf {

// Parses one numeric CLI token: decimal digits only, within [lo, hi].
// Empty, signed, non-numeric and out-of-range tokens yield nullopt, so a
// CLI can print its usage before any run starts.
std::optional<std::uint64_t> parse_uint(std::string_view tok, std::uint64_t lo = 0,
                                        std::uint64_t hi = UINT64_MAX);

// CLI glue over parse_uint: parses `tok`, the value of `flag`, into `field`
// within [lo, max of T].  On a bad value prints "<tool>: bad value 'tok' for
// flag" and returns false; the caller then prints usage and exits 2.
template <typename T>
bool parse_uint_flag(const char* tool, const char* flag, const char* tok, std::uint64_t lo,
                     T& field) {
  const auto v = parse_uint(tok, lo, std::numeric_limits<T>::max());
  if (!v) {
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", tool, tok, flag);
    return false;
  }
  field = static_cast<T>(*v);
  return true;
}

// Parses one probability CLI token: a finite decimal in [0, 1].  Empty,
// non-numeric, trailing-garbage, NaN, infinite and out-of-range tokens
// yield nullopt.
std::optional<double> parse_prob(std::string_view tok);

// Parses a --sweep list ("4,8,12") token by token with parse_uint.  Throws
// std::invalid_argument on an empty list or any empty, non-numeric or zero
// token.
std::vector<unsigned> parse_sweep(const std::string& arg);

// The sweep input derivation shared by every recorder: Rng seeded with
// `seed` (the committee size n), one value below 2^20 per input gate.
std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed);

// One point of the controlled fixed-ratio audit sweep (4n-wide circuit,
// k pinned by audit_packing), with everything the three audit-derived keys
// need.
struct AuditPoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  std::string ours_report;  // full ledger JSON
  std::string cdn_report;
  std::string counts_json;  // {"ops":{...counts only...}} over both runs
  std::string crit_json;    // crit_report_json of ours' DAG — deterministic
  std::string dag_json;     // DAG summary (nodes/edges/kinds/op_total)
};

// The pinned packing factor of the audit regime: max(1, (n+2)/4), which
// ProtocolParams::validate() accepts for every n >= 4 at eps = 0.25.
unsigned audit_packing(unsigned n);

AuditPoint run_audit_point(unsigned n);

// BENCH_comm.json values ({"n4": ..., "n6": ...}) for a recorded sweep.
std::string scaling_audit_json(const std::vector<AuditPoint>& pts);
std::string profile_sweep_json(const std::vector<AuditPoint>& pts);
std::string critpath_sweep_json(const std::vector<AuditPoint>& pts);

}  // namespace yoso::perf
