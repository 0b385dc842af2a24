// Reproducible n-sweeps for the performance observatory.
//
// Each point replays exactly the configuration the standalone benches
// (bench_online_comm / bench_offline_comm) run — same circuits, same
// protocol seeds (9000/9100/9200 + n), same Rng(n) inputs — so a sweep
// recorded by tools/perf is bit-identical to the numbers already committed
// in BENCH_comm.json.
//
// The *audit* sweep is the controlled regime the scaling fitter consumes.
// ProtocolParams::for_gap lets the packing factor k drift sublinearly at
// small n (k = 2, 2, 3, 4, 5 over n = 4, 6, 8, 12, 16, the k column of
// bench_online_comm), which contaminates the online per-gate exponent
// with a spurious n/k trend; the audit regime pins k = max(1, (n+2)/4)
// (k = 1, 2, 2, 3, 4 over the same n) so n/k stays (near) constant and
// the fitted slope measures the per-gate cost law itself.  Seeds
// 9300/9400 + n keep the audit runs distinct from the headline benches.
//
// One audit run yields every audit-derived key.  run_audit_point() resets
// the op profiler, runs ours over a net::NetBulletin and the CDN baseline
// on the default board, and keeps:
//   - the two ledgers ("scaling_audit");
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

// One point of the E3 online sweep: ours + CDN on wide_mul_circuit(4n).
struct OnlinePoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double ours_mult_elems = 0;   // online.mult category, total elements
  double ours_total_elems = 0;  // online phase total, elements
  double cdn_mult_elems = 0;    // cdn.mult.pdec category, elements
  double cdn_total_elems = 0;   // CDN online phase total, elements
  std::string ours_report;      // full ledger JSON
  std::string cdn_report;
};

// One point of the E4 offline sweep: ours on wide_mul_circuit(n).
struct OfflinePoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double offline_elems = 0;  // offline phase total, elements
  double offline_bytes = 0;
  std::string report;
};

// One point of the controlled fixed-ratio audit sweep (4n-wide circuit,
// k pinned by audit_packing), with everything the three audit-derived keys
// need.
struct AuditPoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double ours_mult_bytes = 0, ours_mult_elems = 0;  // online.mult category
  double cdn_mult_bytes = 0, cdn_mult_elems = 0;    // cdn.mult.pdec category
  double offline_bytes = 0, offline_elems = 0;      // ours offline phase total
  std::string ours_report;
  std::string cdn_report;
  std::string counts_json;  // {"ops":{...counts only...}} over both runs
  std::string crit_json;    // crit_report_json of ours' DAG — deterministic
  std::string dag_json;     // DAG summary (nodes/edges/kinds/op_total)
};

// The pinned packing factor of the audit regime: max(1, (n+2)/4), which
// ProtocolParams::validate() accepts for every n >= 4 at eps = 0.25.
unsigned audit_packing(unsigned n);

OnlinePoint run_online_point(unsigned n);
OfflinePoint run_offline_point(unsigned n);
AuditPoint run_audit_point(unsigned n);

// BENCH_comm.json values ({"n4": ..., "n6": ...}) for a recorded sweep.
std::string online_comm_json(const std::vector<OnlinePoint>& pts);
std::string offline_comm_json(const std::vector<OfflinePoint>& pts);
std::string scaling_audit_json(const std::vector<AuditPoint>& pts);
std::string profile_sweep_json(const std::vector<AuditPoint>& pts);
std::string critpath_sweep_json(const std::vector<AuditPoint>& pts);

}  // namespace yoso::perf
