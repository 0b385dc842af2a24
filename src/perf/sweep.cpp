#include "perf/sweep.hpp"

#include <charconv>
#include <climits>
#include <stdexcept>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/profile.hpp"
#include "perf/critpath.hpp"

namespace yoso::perf {

std::optional<std::uint64_t> parse_uint(std::string_view tok, std::uint64_t lo,
                                        std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  // from_chars accepts no sign or space for an unsigned type; the first
  // character must be a digit, so "+4" and "-4" fail here too.
  if (tok.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

std::optional<double> parse_prob(std::string_view tok) {
  double v = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  // The range test also rejects NaN (every comparison is false) and inf.
  if (tok.empty() || ec != std::errc() || ptr != end || !(v >= 0.0 && v <= 1.0)) {
    return std::nullopt;
  }
  return v;
}

std::vector<unsigned> parse_sweep(const std::string& arg) {
  std::vector<unsigned> ns;
  std::size_t pos = 0;
  do {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const auto n = parse_uint(std::string_view(arg).substr(pos, comma - pos), 1, UINT_MAX);
    if (!n) {
      throw std::invalid_argument("bad sweep list '" + arg + "': want n,n,... with every n >= 1");
    }
    ns.push_back(static_cast<unsigned>(*n));
    pos = comma + 1;
  } while (pos <= arg.size());
  return ns;
}

// Rng seeded with n: the input derivation every sweep point shares.
std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 20))));
    }
  }
  return inputs;
}

namespace {

std::string point_key(unsigned n) {
  std::string key = "n";  // not "n" + to_string: GCC 12 -O2 trips -Werror=restrict
  key += std::to_string(n);
  return key;
}

// {"n4": {"t":..,"k":..,"gates":.., <members(w, pt)>}, ...}: the per-point
// header every audit-derived key shares.
template <typename Members>
std::string audit_sweep_json(const std::vector<AuditPoint>& pts, Members members) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    w.key(point_key(pt.n)).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    members(w, pt);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace

unsigned audit_packing(unsigned n) {
  const unsigned k = (n + 2) / 4;
  return k == 0 ? 1 : k;
}

AuditPoint run_audit_point(unsigned n) {
  AuditPoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  params.k = audit_packing(n);
  params.validate();
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(4 * n);
  pt.gates = c.num_mul_gates();

  // Fresh profiler cell per point: the counts cover exactly these two runs,
  // and the DAG recorder (built with the board) starts from a clean cell.
  obs::profiler().reset();

  Ledger ledger;
  net::NetBulletin board(ledger);
  YosoMpc ours(params, c, AdversaryPlan::honest(n), 9300 + n, &board);
  ours.run(make_inputs(c, n));
  pt.ours_report = ledger.report_json();
  // Finalize and price the DAG now: after the CDN run its Residue node
  // would absorb the CDN's ops.
  const obs::dag::DagRecorder& dag = board.dag();
  pt.crit_json = crit_report_json(analyze(dag.nodes(), CostCoeffs::reference_table()));
  pt.dag_json = dag.report_json();

  CdnBaseline cdn(params, c, AdversaryPlan::honest(n), 9400 + n);
  cdn.run(make_inputs(c, n));
  pt.cdn_report = cdn.ledger().report_json();

  pt.counts_json = obs::profiler().snapshot().snapshot_json();
  return pt;
}

std::string scaling_audit_json(const std::vector<AuditPoint>& pts) {
  return audit_sweep_json(pts, [](json::Writer& w, const AuditPoint& pt) {
    w.key("ours").raw(pt.ours_report);
    w.key("cdn").raw(pt.cdn_report);
  });
}

std::string profile_sweep_json(const std::vector<AuditPoint>& pts) {
  return audit_sweep_json(pts, [](json::Writer& w, const AuditPoint& pt) {
    w.key("counts").raw(pt.counts_json);
  });
}

std::string critpath_sweep_json(const std::vector<AuditPoint>& pts) {
  return audit_sweep_json(pts, [](json::Writer& w, const AuditPoint& pt) {
    w.key("crit").raw(pt.crit_json);
    w.key("dag").raw(pt.dag_json);
  });
}

}  // namespace yoso::perf
