#include "perf/audit.hpp"

#include <algorithm>
#include <cstdlib>

namespace yoso::perf {

namespace {

struct AuditRow {
  double n = 0;
  double k = 0;
  double gates = 0;
  double ours_mult_bytes = 0, ours_mult_elems = 0;
  double cdn_mult_bytes = 0, cdn_mult_elems = 0;
  double offline_bytes = 0;
};

const json::Value* descend(const json::Value* v, std::initializer_list<const char*> path) {
  for (const char* key : path) {
    if (v == nullptr) return nullptr;
    v = v->find(key);
  }
  return v;
}

double leaf(const json::Value* v, std::initializer_list<const char*> path, const char* field) {
  const json::Value* node = descend(v, path);
  return node == nullptr ? 0 : node->num_or(field, 0);
}

}  // namespace

AuditReport audit_scaling(const json::Value& bench) {
  AuditReport report;
  const json::Value* audit = bench.find("scaling_audit");
  if (audit == nullptr || !audit->is_object()) {
    report.error = "no scaling_audit key; run `perf record` first";
    return report;
  }

  std::vector<AuditRow> rows;
  for (const auto& [key, point] : audit->members) {
    if (key.size() < 2 || key[0] != 'n') continue;
    AuditRow row;
    row.n = std::strtod(key.c_str() + 1, nullptr);
    row.k = point.num_or("k", 0);
    row.gates = point.num_or("gates", 0);
    if (row.n <= 0 || row.gates <= 0) continue;
    row.ours_mult_bytes = leaf(&point, {"ours", "online", "categories", "online.mult"}, "bytes");
    row.ours_mult_elems =
        leaf(&point, {"ours", "online", "categories", "online.mult"}, "elements");
    row.cdn_mult_bytes = leaf(&point, {"cdn", "online", "categories", "cdn.mult.pdec"}, "bytes");
    row.cdn_mult_elems =
        leaf(&point, {"cdn", "online", "categories", "cdn.mult.pdec"}, "elements");
    row.offline_bytes = leaf(&point, {"ours", "offline", "total"}, "bytes");
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(), [](const AuditRow& a, const AuditRow& b) {
    return a.n < b.n;
  });
  if (rows.size() < 3) {
    report.error = "scaling_audit has fewer than 3 usable points";
    return report;
  }

  std::vector<double> ns, ours_online, cdn_online, ours_offline;
  for (const AuditRow& row : rows) {
    ns.push_back(row.n);
    ours_online.push_back(row.ours_mult_bytes / row.gates);
    cdn_online.push_back(row.cdn_mult_bytes / row.gates);
    ours_offline.push_back(row.offline_bytes / row.gates);
  }
  report.checks.push_back(obs::check_exponent("ours.online.mult.bytes_per_gate", ns,
                                              ours_online, {-0.15, 0.15}));
  report.checks.push_back(
      obs::check_exponent("cdn.online.pdec.bytes_per_gate", ns, cdn_online, {0.85, 1.25}));
  report.checks.push_back(obs::check_exponent("ours.offline.total.bytes_per_gate", ns,
                                              ours_offline, {0.85, 1.75}));

  const AuditRow& last = rows.back();
  report.speedup = obs::derive_packed_speedup(
      1000, 0.05, last.ours_mult_elems / last.gates, last.cdn_mult_elems / last.gates,
      static_cast<unsigned>(last.n), static_cast<unsigned>(last.k));

  report.pass = report.speedup.feasible && report.speedup.speedup >= report.speedup_floor;
  for (const obs::ExponentCheck& check : report.checks) {
    report.pass = report.pass && check.pass;
  }

  report.critpath = check_critpath(bench, &report.critpath_note);
  for (const CritpathCheck& check : report.critpath) {
    report.pass = report.pass && check.pass();
  }
  return report;
}

std::string audit_report_json(const AuditReport& report) {
  json::Writer w;
  w.begin_object();
  w.field("pass", report.pass);
  if (!report.error.empty()) w.field("error", report.error);
  w.key("checks").begin_array();
  for (const obs::ExponentCheck& check : report.checks) {
    w.begin_object();
    w.field("name", check.name);
    w.field("pass", check.pass);
    w.field("slope", check.fit.slope);
    w.field("ci_lo", check.fit.ci_lo);
    w.field("ci_hi", check.fit.ci_hi);
    w.field("r2", check.fit.r2);
    w.field("band_lo", check.band.lo);
    w.field("band_hi", check.band.hi);
    w.field("points", static_cast<std::uint64_t>(check.fit.points));
    w.end_object();
  }
  w.end_array();
  w.key("speedup").begin_object();
  w.field("feasible", report.speedup.feasible);
  w.field("C", report.speedup.C);
  w.field("f", report.speedup.f);
  w.field("c", report.speedup.c);
  w.field("c_prime", report.speedup.c_prime);
  w.field("k", report.speedup.k);
  w.field("e0", report.speedup.e0);
  w.field("cdn_per_member", report.speedup.cdn_per_member);
  w.field("baseline_per_gate", report.speedup.baseline_per_gate);
  w.field("ours_per_gate", report.speedup.ours_per_gate);
  w.field("speedup", report.speedup.speedup);
  w.field("floor", report.speedup_floor);
  w.end_object();
  w.key("critpath").begin_object();
  if (!report.critpath_note.empty()) w.field("note", report.critpath_note);
  w.key("points").begin_array();
  for (const CritpathCheck& check : report.critpath) {
    w.begin_object();
    w.field("point", check.point);
    w.field("pass", check.pass());
    w.field("monotone", check.monotone);
    w.field("bounded", check.bounded);
    w.field("parallelism", check.parallelism);
    w.field("max_speedup", check.max_speedup);
    if (!check.error.empty()) w.field("error", check.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.take();
}

}  // namespace yoso::perf
