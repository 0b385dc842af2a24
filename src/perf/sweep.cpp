#include "perf/sweep.hpp"

#include <stdexcept>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "obs/profile.hpp"

namespace yoso::perf {

std::vector<unsigned> parse_sweep(const std::string& arg) {
  std::vector<unsigned> ns;
  std::size_t pos = 0;
  do {
    std::size_t comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string tok = arg.substr(pos, comma - pos);
    const bool digits = !tok.empty() && tok.size() <= 9 &&
                        tok.find_first_not_of("0123456789") == std::string::npos;
    const unsigned long n = digits ? std::stoul(tok) : 0;
    if (n == 0) {
      throw std::invalid_argument("bad sweep list '" + arg + "': want n,n,... with every n >= 1");
    }
    ns.push_back(static_cast<unsigned>(n));
    pos = comma + 1;
  } while (pos <= arg.size());
  return ns;
}

// Same input derivation as the standalone benches: Rng seeded with n.
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

double category_elems(const Ledger& ledger, Phase phase, const std::string& cat) {
  const auto& cats = ledger.categories(phase);
  auto it = cats.find(cat);
  return it == cats.end() ? 0 : static_cast<double>(it->second.elements);
}

double category_bytes(const Ledger& ledger, Phase phase, const std::string& cat) {
  const auto& cats = ledger.categories(phase);
  auto it = cats.find(cat);
  return it == cats.end() ? 0 : static_cast<double>(it->second.bytes);
}

}  // namespace

unsigned audit_packing(unsigned n) {
  const unsigned k = (n + 2) / 4;
  return k == 0 ? 1 : k;
}

OnlinePoint run_online_point(unsigned n) {
  OnlinePoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(4 * n);  // width Theta(n), the paper's regime
  pt.gates = c.num_mul_gates();

  YosoMpc ours(params, c, AdversaryPlan::honest(n), 9000 + n);
  ours.run(make_inputs(c, n));
  pt.ours_mult_elems = category_elems(ours.ledger(), Phase::Online, "online.mult");
  pt.ours_total_elems = static_cast<double>(ours.ledger().phase_total(Phase::Online).elements);
  pt.ours_report = ours.ledger().report_json();

  CdnBaseline cdn(params, c, AdversaryPlan::honest(n), 9100 + n);
  cdn.run(make_inputs(c, n));
  pt.cdn_mult_elems = category_elems(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_total_elems = static_cast<double>(cdn.ledger().phase_total(Phase::Online).elements);
  pt.cdn_report = cdn.ledger().report_json();
  return pt;
}

OfflinePoint run_offline_point(unsigned n) {
  OfflinePoint pt;
  pt.n = n;
  auto params = ProtocolParams::for_gap(n, 0.25, 128);
  pt.t = params.t;
  pt.k = params.k;
  Circuit c = wide_mul_circuit(n);
  pt.gates = c.num_mul_gates();

  YosoMpc mpc(params, c, AdversaryPlan::honest(n), 9200 + n);
  mpc.run(make_inputs(c, n));
  pt.offline_elems = static_cast<double>(mpc.ledger().phase_total(Phase::Offline).elements);
  pt.offline_bytes = static_cast<double>(mpc.ledger().phase_total(Phase::Offline).bytes);
  pt.report = mpc.ledger().report_json();
  return pt;
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

  // Fresh profiler cell per point: the counts cover exactly these two runs.
  obs::profiler().reset();

  YosoMpc ours(params, c, AdversaryPlan::honest(n), 9300 + n);
  ours.run(make_inputs(c, n));
  pt.ours_mult_elems = category_elems(ours.ledger(), Phase::Online, "online.mult");
  pt.ours_mult_bytes = category_bytes(ours.ledger(), Phase::Online, "online.mult");
  pt.offline_elems = static_cast<double>(ours.ledger().phase_total(Phase::Offline).elements);
  pt.offline_bytes = static_cast<double>(ours.ledger().phase_total(Phase::Offline).bytes);
  pt.ours_report = ours.ledger().report_json();

  CdnBaseline cdn(params, c, AdversaryPlan::honest(n), 9400 + n);
  cdn.run(make_inputs(c, n));
  pt.cdn_mult_elems = category_elems(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_mult_bytes = category_bytes(cdn.ledger(), Phase::Online, "cdn.mult.pdec");
  pt.cdn_report = cdn.ledger().report_json();

  pt.counts_json = obs::profiler().snapshot().snapshot_json(false);
  return pt;
}

std::string online_comm_json(const std::vector<OnlinePoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.key("ours").raw(pt.ours_report);
    w.key("cdn").raw(pt.cdn_report);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string offline_comm_json(const std::vector<OfflinePoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).raw(pt.report);
  }
  w.end_object();
  return w.take();
}

std::string scaling_audit_json(const std::vector<AuditPoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.key("ours").raw(pt.ours_report);
    w.key("cdn").raw(pt.cdn_report);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string profile_sweep_json(const std::vector<AuditPoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.key("counts").raw(pt.counts_json);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

}  // namespace yoso::perf
