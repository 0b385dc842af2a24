// The four benchmark workloads and everything measured on them (README.md).
//
// A run is the measured body — protocol instances in a closed loop and, for
// service-agg, whole MpcService runs — for the run's time budget, with the
// set-up calls behind setup_s spread over it.  A traced run replays the same body twice,
// first with obs muted and then recording, checks that both passes did the
// same work, and reads the per-layer metrics off the recording pass.
#include <array>
#include <chrono>
#include <functional>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "e2e.hpp"
#include "mpc/protocol.hpp"
#include "mpc/setup.hpp"
#include "net/net_bulletin.hpp"
#include "net/wire_faults.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/runtime.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "service/workloads.hpp"

namespace yoso::e2e {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Independent per-purpose streams of the run seed: protocol randomness and
// client inputs never share a stream, so the program sees only the inputs.
enum class Stream : std::uint64_t { Setup = 1, Protocol, Inputs, Service, Aggregation };

std::uint64_t derive(std::uint64_t seed, Stream s, std::uint64_t i) {
  return net::mix64(net::mix64(seed ^ (static_cast<std::uint64_t>(s) << 56)) + i);
}

struct Workload {
  const char* name;
  unsigned n;
  unsigned paillier_bits;
  Circuit circuit;
  bool wan;              // WAN link (50 ms / 50 Mb/s) instead of the service's LAN
  unsigned setup_calls;  // run_setup() calls behind setup_s ...
  unsigned setup_seeds;  // ... cycling over this many fixed seeds
  unsigned sessions;     // > 0: service workload, sessions per MpcService run
};

// service-agg's circuit: the secure-aggregation batch of 4 gateways.
service::AggregationConfig aggregation_config(unsigned sessions, std::uint64_t seed) {
  service::AggregationConfig cfg;
  cfg.batch_clients = 20'000;
  cfg.clients_total = sessions * cfg.batch_clients;
  cfg.gateways = 4;
  cfg.interarrival_s = 0.003;
  cfg.seed = seed;
  return cfg;
}

constexpr unsigned kServiceSessions = 40;
// service-agg times the pool's unit of work (one session circuit run
// directly) this many times for offline_s / online_s / online_net_s.
constexpr unsigned kServiceUnitInstances = 8;

Workload make_workload(const std::string& name) {
  if (name == "wide-192") return {"wide-192", 8, 192, wide_mul_circuit(24), true, 101, 101, 0};
  if (name == "deep-192") return {"deep-192", 8, 192, grid_mul_circuit(3, 6), true, 101, 101, 0};
  // Safe-prime key generation makes one |N| = 1024 set-up take 0.3-3 s
  // depending on the seed, so a few distinct seeds would each be their own
  // sample; repeating one seed times the same work every time.
  if (name == "wide-1024") return {"wide-1024", 5, 1024, wide_mul_circuit(2), true, 5, 1, 0};
  if (name == "service-agg") {
    const service::AggregationWorkload agg(aggregation_config(kServiceSessions, 0));
    return {"service-agg", 4, 192, agg.session_circuit(), false, 101, 101, kServiceSessions};
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// --- the benchmark's own spans (trace mode) --------------------------------

class SpanLog {
public:
  class Scope {
  public:
    Scope(SpanLog* log, const char* name, long instance) : log_(log) {
      if (log_ != nullptr) idx_ = log_->open(name, instance);
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanLog* log_;
    long idx_ = -1;
  };

  void write_chrome(const std::string& path) const {
    json::Writer w;
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      w.begin_object();
      w.field("name", r.name).field("cat", "e2e").field("ph", "X");
      w.field("ts", r.start_us).field("dur", r.end_us - r.start_us);
      w.field("pid", std::uint64_t{1}).field("tid", std::uint64_t{1});
      w.key("args").begin_object();
      w.field("id", static_cast<std::uint64_t>(i));
      w.field("parent", static_cast<std::int64_t>(r.parent));
      w.field("instance", static_cast<std::int64_t>(r.instance));
      w.end_object().end_object();
    }
    w.end_array().field("displayTimeUnit", "ms").end_object();
    std::ofstream out(path);
    out << w.take() << "\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

private:
  struct Rec {
    std::string name;
    long instance;
    long parent;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  long open(const char* name, long instance) {
    recs_.push_back({name, instance, open_, now_us(), 0});
    open_ = static_cast<long>(recs_.size()) - 1;
    return open_;
  }
  void close(long idx) {
    recs_[idx].end_us = now_us();
    open_ = recs_[idx].parent;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Rec> recs_;
  long open_ = -1;
};

// --- samples ----------------------------------------------------------------

constexpr std::size_t kPhases = 3;
constexpr Phase kPhaseOrder[kPhases] = {Phase::Setup, Phase::Offline, Phase::Online};

// Board-level facts shared by instances and service runs.
struct NetTally {
  std::array<std::size_t, kPhases> bytes{};  // ledger bytes by phase
  std::size_t online_rounds = 0;
  std::size_t messages = 0;
  std::size_t dropped = 0;
  std::size_t decode_failures = 0;
  bool conserved = true;

  void add_board(net::NetBulletin& board) {
    for (std::size_t p = 0; p < kPhases; ++p) {
      const net::PhasePosts& posts = board.phase_posts(kPhaseOrder[p]);
      messages += board.phase_traffic(kPhaseOrder[p]).messages;
      dropped += posts.dropped();
      conserved = conserved && posts.conserved();
    }
    online_rounds += board.phase_traffic(Phase::Online).rounds;
    decode_failures += board.decode_failures();
  }
  void set_bytes(const Ledger& ledger) {
    for (std::size_t p = 0; p < kPhases; ++p) bytes[p] = ledger.phase_total(kPhaseOrder[p]).bytes;
  }
  bool clean() const { return conserved && dropped == 0 && decode_failures == 0; }
};

struct InstanceSample {
  bool ok = false;
  double setup_s = 0;  // same-seed run_setup() replica
  double preprocess_s = 0;
  double online_s = 0;
  double wall_s = 0;  // ctor + preprocess + evaluate
  std::array<double, kPhases> net_s{};
  NetTally net;
  obs::InstrumentCell cell;
};

struct ServiceSample {
  bool ok = false;
  double wall_s = 0;  // MpcService::run()
  std::size_t verified = 0;
  std::vector<double> latency_s;     // submit -> finish, virtual
  service::PoolStats pool;
  NetTally net;
  obs::InstrumentCell cell;
};

struct Pass {
  std::vector<InstanceSample> instances;
  std::vector<ServiceSample> services;
};

// Peak resident set of this process image.  getrusage's ru_maxrss would also
// count the parent's resident set at fork, which survives exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void reset_obs() {
  obs::metrics().reset();
  obs::tracer().reset();
  obs::timeseries().reset();
  obs::profiler().reset();
}

std::vector<std::vector<mpz_class>> random_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1u << 16))));
    }
  }
  return inputs;
}

class Runner {
public:
  Runner(const RunOptions& opt, RunResult& result)
      : opt_(opt), w_(make_workload(opt.workload)),
        params_(ProtocolParams::for_gap(w_.n, 0.25, w_.paillier_bits)), result_(result) {
    net_.link = w_.wan ? net::LinkModel::wan() : net::LinkModel::lan();
    // What YosoMpc's constructor does to the params before preprocess()
    // runs Π_Setup; the replica and the set-up calls must match it.
    setup_params_ = params_;
    setup_params_.planned_epochs = w_.circuit.mul_depth() + 3;
    result_.paillier_bits = w_.paillier_bits;
  }

  void run() {
    obs::set_enabled(false);
    if (!opt_.trace) {
      const Pass pass = body(nullptr, nullptr);
      setup_calls(w_.setup_calls);
      result_.metrics["setup_s"] = median(result_.samples["setup_s"]);
      e2e_metrics(pass);
      return;
    }
    const Pass muted = body(nullptr, nullptr);
    obs::set_enabled(true);
    reset_obs();
    SpanLog spans;
    const Pass traced = body(&muted, &spans);
    obs::set_enabled(false);
    guard(muted, traced);
    layer_metrics(muted, traced);
    if (!opt_.spans_path.empty()) spans.write_chrome(opt_.spans_path);
  }

private:
  void fail(const std::string& what, std::uint64_t count = 1) {
    result_.failed += count;
    result_.notes += what + "\n";
  }

  // The calls behind setup_s, up to `count` more of them.  The body spreads
  // them over the run, a chunk before each instance or service run, so that
  // they see the same stretch of a shared machine's time as the other
  // metrics.  Untraced runs only.
  void setup_calls(unsigned count) {
    if (opt_.trace) return;
    auto& samples = result_.samples["setup_s"];
    for (unsigned k = 0; k < count && samples.size() < w_.setup_calls; ++k) {
      Ledger ledger;
      Bulletin board(ledger);
      // Fixed seeds: every run times the same dealer work (the prime search
      // dominates at |N| = 1024 and its length is pure seed luck).
      Rng rng(derive(0, Stream::Setup, samples.size() % w_.setup_seeds));
      const auto t0 = Clock::now();
      (void)run_setup(setup_params_, w_.circuit.mul_depth(), w_.circuit.num_clients(), board, rng);
      samples.push_back(seconds_since(t0));
    }
  }

  // Runs `count` iterations, or (count == 0) iterations while the next one,
  // estimated by the last, fits in `budget` seconds; always at least one.
  static void loop(std::size_t count, double budget,
                   const std::function<void(std::size_t)>& one) {
    const auto start = Clock::now();
    double last = 0;
    std::size_t i = 0;
    while (count > 0 ? i < count : (i == 0 || seconds_since(start) + last <= budget)) {
      const auto t = Clock::now();
      one(i++);
      last = seconds_since(t);
    }
  }

  // The measured body.  `replay` (trace mode) fixes the iteration counts to
  // those of an earlier pass.
  Pass body(const Pass* replay, SpanLog* spans) {
    Pass pass;
    const auto start = Clock::now();
    // Set-up chunks per run: about four instances fit a 20 s run at
    // |N| = 192; service-agg has its unit instances plus one service run.
    const unsigned slots = w_.sessions == 0 ? 4 : kServiceUnitInstances + 1;
    const unsigned chunk = (w_.setup_calls + slots - 1) / slots;
    auto one_instance = [&](std::size_t i) {
      setup_calls(chunk);
      pass.instances.push_back(instance(i, spans));
    };
    if (w_.sessions == 0) {
      loop(replay ? replay->instances.size() : 0, opt_.seconds, one_instance);
      return pass;
    }
    // The unit instances bracket the service runs, so that their medians do
    // not rest on one short stretch of a shared machine's time.
    for (std::size_t i = 0; i < kServiceUnitInstances / 2; ++i) one_instance(i);
    const double half = seconds_since(start);
    loop(replay ? replay->services.size() : 0, opt_.seconds - 2 * half, [&](std::size_t r) {
      setup_calls(chunk);
      pass.services.push_back(service_run(r, spans));
    });
    for (std::size_t i = kServiceUnitInstances / 2; i < kServiceUnitInstances; ++i) one_instance(i);
    return pass;
  }

  InstanceSample instance(std::size_t i, SpanLog* spans) {
    const long idx = static_cast<long>(i);
    SpanLog::Scope whole(spans, "instance", idx);
    ++result_.attempted;
    InstanceSample s;
    const std::uint64_t seed = derive(opt_.seed, Stream::Protocol, i);
    std::vector<std::vector<mpz_class>> inputs;
    if (w_.sessions > 0) {
      const service::AggregationWorkload agg(
          aggregation_config(kServiceUnitInstances, derive(opt_.seed, Stream::Inputs, 0)));
      inputs = agg.batch(i).request.inputs;
    } else {
      inputs = random_inputs(w_.circuit, derive(opt_.seed, Stream::Inputs, i));
    }
    const std::string tag = std::string(w_.name) + " instance " + std::to_string(i);
    try {
      // Π_Setup replica: the same seed drives the same key generation that
      // preprocess() starts with, so offline_s = preprocess - replica drops
      // the seed-luck of the prime search.
      mpz_class replica_modulus;
      {
        SpanLog::Scope sp(spans, "run_setup", idx);
        Ledger ledger;
        Bulletin board(ledger);
        Rng rng(seed);
        const auto t0 = Clock::now();
        const SetupArtifacts art = run_setup(setup_params_, w_.circuit.mul_depth(),
                                             w_.circuit.num_clients(), board, rng);
        s.setup_s = seconds_since(t0);
        replica_modulus = art.tkeys.tpk.pk.ns;
      }
      obs::profiler().reset();
      obs::tracer().reset();

      Ledger ledger;
      net::NetBulletin board(ledger, net_);
      const auto t0 = Clock::now();
      std::unique_ptr<YosoMpc> mpc;
      {
        SpanLog::Scope sp(spans, "YosoMpc", idx);
        mpc = std::make_unique<YosoMpc>(params_, w_.circuit, AdversaryPlan::honest(w_.n), seed,
                                        &board);
      }
      {
        SpanLog::Scope sp(spans, "preprocess", idx);
        mpc->preprocess();
      }
      const auto t1 = Clock::now();
      OnlineResult out;
      {
        SpanLog::Scope sp(spans, "evaluate", idx);
        out = mpc->evaluate(inputs);
      }
      const auto t2 = Clock::now();
      s.cell = obs::profiler().snapshot();
      s.preprocess_s = std::chrono::duration<double>(t1 - t0).count();
      s.online_s = std::chrono::duration<double>(t2 - t1).count();
      s.wall_s = std::chrono::duration<double>(t2 - t0).count();
      if (replica_modulus != mpc->plaintext_modulus()) ++result_.replica_mismatches;

      board.flush();
      for (std::size_t p = 0; p < kPhases; ++p) s.net_s[p] = board.phase_traffic(kPhaseOrder[p]).seconds;
      s.net.add_board(board);
      s.net.set_bytes(ledger);

      std::vector<mpz_class> expected;
      {
        SpanLog::Scope sp(spans, "Circuit::eval", idx);
        expected = w_.circuit.eval(inputs, mpc->plaintext_modulus());
      }
      if (out.outputs != expected) {
        fail(tag + ": outputs differ from Circuit::eval");
      } else if (!s.net.clean()) {
        fail(tag + ": posts not conserved, dropped or undecodable");
      } else {
        s.ok = true;
      }
    } catch (const std::exception& e) {
      fail(tag + ": " + e.what());
    }
    return s;
  }

  ServiceSample service_run(std::size_t r, SpanLog* spans) {
    const long idx = static_cast<long>(r);
    SpanLog::Scope whole(spans, "service", idx);
    ServiceSample s;
    const std::string tag = std::string(w_.name) + " service run " + std::to_string(r);
    result_.attempted += w_.sessions;
    try {
      const service::AggregationWorkload agg(
          aggregation_config(w_.sessions, derive(opt_.seed, Stream::Aggregation, r)));
      service::ServiceConfig cfg;
      cfg.n = w_.n;
      cfg.eps = 0.25;
      cfg.paillier_bits = w_.paillier_bits;
      cfg.seed = derive(opt_.seed, Stream::Service, r);
      cfg.max_concurrent = 4;
      cfg.pool.lanes = 2;
      cfg.pool.capacity = 8;
      cfg.pool_circuit = agg.session_circuit();
      cfg.net = net_;

      obs::profiler().reset();
      obs::tracer().reset();
      std::unique_ptr<service::MpcService> svc;
      std::vector<service::AggregationBatch> batches;
      {
        SpanLog::Scope sp(spans, "MpcService::submit_at", idx);
        svc = std::make_unique<service::MpcService>(cfg);
        for (std::uint64_t b = 0; b < w_.sessions; ++b) {
          batches.push_back(agg.batch(b));
          svc->submit_at(batches.back().submit_at, batches.back().request);
        }
      }
      const auto t0 = Clock::now();
      {
        SpanLog::Scope sp(spans, "MpcService::run", idx);
        svc->run();
      }
      s.wall_s = seconds_since(t0);
      s.cell = obs::profiler().snapshot();

      {
        SpanLog::Scope sp(spans, "AggregationWorkload::verify", idx);
        for (std::uint64_t b = 0; b < w_.sessions; ++b) {
          if (agg.verify(batches[b], svc->session(b + 1))) ++s.verified;
        }
      }
      for (std::uint64_t b = 0; b < w_.sessions; ++b) {
        const service::SessionRecord& rec = svc->session(b + 1);
        if (rec.board) s.net.add_board(*rec.board);
        if (rec.latency_s() >= 0) s.latency_s.push_back(rec.latency_s());
      }
      s.net.set_bytes(svc->aggregate_ledger());
      s.pool = svc->stats().pool;

      const std::size_t missed = w_.sessions - s.verified;
      if (missed > 0) {
        fail(tag + ": " + std::to_string(missed) + " sessions failed or did not verify", missed);
      } else if (!s.net.clean()) {
        fail(tag + ": posts not conserved, dropped or undecodable");
      } else {
        s.ok = true;
      }
    } catch (const std::exception& e) {
      fail(tag + ": " + e.what(), w_.sessions);
    }
    return s;
  }

  std::size_t mul_gates() const { return w_.circuit.num_mul_gates(); }

  void put(const std::string& name, double value, std::vector<double> samples = {}) {
    result_.metrics[name] = value;
    if (!samples.empty()) result_.samples[name] = std::move(samples);
  }

  void e2e_metrics(const Pass& pass) {
    std::vector<double> offline, online, rate, net_online, total_net, on_bpg, off_bpg;
    for (const InstanceSample& s : pass.instances) {
      if (!s.ok) continue;
      rate.push_back(1.0 / s.wall_s);
      offline.push_back(s.preprocess_s - s.setup_s);
      online.push_back(s.online_s);
      net_online.push_back(s.net_s[2]);
      total_net.push_back(s.net_s[0] + s.net_s[1] + s.net_s[2]);
      on_bpg.push_back(static_cast<double>(s.net.bytes[2]) / static_cast<double>(mul_gates()));
      off_bpg.push_back(static_cast<double>(s.net.bytes[1]) / static_cast<double>(mul_gates()));
    }
    if (offline.empty()) return;  // every instance failed; the result is incorrect anyway
    put("offline_s", median(offline), offline);
    put("online_s", median(online), online);
    put("online_net_s", median(net_online), net_online);

    if (w_.sessions == 0) {
      put("sessions_per_s", median(rate), rate);
      put("session_p90_net_s", percentile(total_net, 90), total_net);
      put("online_bytes_per_gate", median(on_bpg), on_bpg);
      put("offline_bytes_per_gate", median(off_bpg), off_bpg);
    } else {
      // Service level: the aggregate ledger (unclaimed pool units count).
      std::vector<double> svc_rate, latency, svc_on_bpg, svc_off_bpg;
      for (const ServiceSample& s : pass.services) {
        if (!s.ok) continue;
        const double gates = static_cast<double>(w_.sessions * mul_gates());
        svc_rate.push_back(static_cast<double>(s.verified) / s.wall_s);
        latency.insert(latency.end(), s.latency_s.begin(), s.latency_s.end());
        svc_on_bpg.push_back(static_cast<double>(s.net.bytes[2]) / gates);
        svc_off_bpg.push_back(static_cast<double>(s.net.bytes[1]) / gates);
      }
      if (svc_rate.empty()) return;
      put("sessions_per_s", median(svc_rate), svc_rate);
      put("session_p90_net_s", percentile(latency, 90), latency);
      put("online_bytes_per_gate", median(svc_on_bpg), svc_on_bpg);
      put("offline_bytes_per_gate", median(svc_off_bpg), svc_off_bpg);
    }
    put("peak_rss_mb", peak_rss_mb());
  }

  // The traced pass must do exactly the work of the muted one.
  void guard(const Pass& muted, const Pass& traced) {
    auto same_cell = [](const obs::InstrumentCell& a, const obs::InstrumentCell& b) {
      for (std::size_t c = 0; c < obs::kPhaseCtxCount; ++c) {
        for (std::size_t o = 0; o < obs::kOpCount; ++o) {
          const auto ctx = static_cast<obs::PhaseCtx>(c);
          const auto op = static_cast<obs::Op>(o);
          if (a.op_count(ctx, op) != b.op_count(ctx, op)) return false;
        }
      }
      return true;
    };
    auto same = [&](const auto& a, const auto& b) {
      return a.net.bytes == b.net.bytes && a.net.online_rounds == b.net.online_rounds &&
             same_cell(a.cell, b.cell);
    };
    bool ok = muted.instances.size() == traced.instances.size() &&
              muted.services.size() == traced.services.size();
    for (std::size_t i = 0; ok && i < muted.instances.size(); ++i) {
      ok = same(muted.instances[i], traced.instances[i]);
    }
    for (std::size_t r = 0; ok && r < muted.services.size(); ++r) {
      ok = same(muted.services[r], traced.services[r]);
    }
    if (!ok) {
      result_.guard_ok = false;
      result_.notes += "traced pass differs from the muted pass (op counts, ledger bytes or rounds)\n";
    }
  }

  void layer_metrics(const Pass& muted, const Pass& traced) {
    using obs::Op;
    using obs::PhaseCtx;
    const PhaseCtx phases[] = {PhaseCtx::Setup, PhaseCtx::Offline, PhaseCtx::Online};

    // Per-layer metrics explain the service's own numbers on service-agg and
    // the instances elsewhere; `units` is the divisor to a per-instance mean.
    obs::InstrumentCell cell;
    NetTally net;
    double units = 0;
    auto add_net = [&net](const NetTally& t) {
      net.online_rounds += t.online_rounds;
      net.messages += t.messages;
      net.dropped += t.dropped;
      net.decode_failures += t.decode_failures;
    };
    if (w_.sessions == 0) {
      for (const InstanceSample& s : traced.instances) {
        cell.merge(s.cell);
        add_net(s.net);
        units += 1;
      }
    } else {
      for (const ServiceSample& s : traced.services) {
        cell.merge(s.cell);
        add_net(s.net);
        units += static_cast<double>(w_.sessions);
      }
    }
    if (units == 0) return;

    auto count = [&](std::initializer_list<Op> ops) {
      double total = 0;
      for (Op op : ops) total += static_cast<double>(cell.op_total_count(op));
      return total / units;
    };
    auto self_s = [&](std::initializer_list<Op> ops) {
      double total = 0;
      for (Op op : ops) total += static_cast<double>(cell.op_total_self_ns(op));
      return total / 1e9 / units;
    };
    auto wall_s = [&](PhaseCtx p) { return static_cast<double>(cell.phase_wall_ns(p)) / 1e9 / units; };
    double phase_wall = 0;
    for (PhaseCtx p : phases) phase_wall += wall_s(p);
    double all_self = 0;
    for (std::size_t o = 0; o < obs::kOpCount; ++o) all_self += self_s({static_cast<Op>(o)});

    put("ct_math.powm_sec.count", count({Op::CtPowmSec}));
    put("ct_math.powm_sec.self_s", self_s({Op::CtPowmSec}));
    put("ct_math.powm_pub.count", count({Op::CtPowmPub}));
    put("ct_math.powm_pub.self_s", self_s({Op::CtPowmPub}));
    put("ct_math.share",
        phase_wall > 0 ? self_s({Op::CtPowmSec, Op::CtPowmPub, Op::CtModInverse}) / phase_wall : 0);
    put("paillier.tpdec.count", count({Op::PaillierTpdec}));
    put("paillier.self_s",
        self_s({Op::PaillierEnc, Op::PaillierEncSecret, Op::PaillierDec, Op::PaillierEval,
                Op::PaillierTpdec, Op::PaillierExtractRoot, Op::PaillierAdd, Op::PaillierScal,
                Op::PaillierScalSecret, Op::PaillierRerandomize}));
    put("nizk.prove.count", count({Op::NizkProve}));
    put("nizk.verify.count", count({Op::NizkVerify}));
    put("nizk.self_s", self_s({Op::NizkProve, Op::NizkVerify}));
    put("sharing.field_ops.count",
        count({Op::SharePack, Op::ShareUnpack, Op::FieldMul, Op::FieldInv}));
    put("wire.codec.count", count({Op::CodecEncode, Op::CodecDecode}));
    put("wire.codec.self_s", self_s({Op::CodecEncode, Op::CodecDecode}));
    put("net.online.rounds", static_cast<double>(net.online_rounds) / units);
    put("net.messages", static_cast<double>(net.messages) / units);
    put("net.posts.dropped", static_cast<double>(net.dropped) / units);
    put("net.decode_failures", static_cast<double>(net.decode_failures) / units);
    put("mpc.setup.wall_s", wall_s(PhaseCtx::Setup));
    put("mpc.offline.wall_s", wall_s(PhaseCtx::Offline));
    put("mpc.online.wall_s", wall_s(PhaseCtx::Online));
    put("mpc.residue_frac", phase_wall > 0 ? 1.0 - all_self / phase_wall : 0);

    // Service layer: zero where the workload has no service.
    double hit_rate = 0, useful = 0, misses = 0;
    for (const ServiceSample& s : traced.services) {
      hit_rate += s.pool.hit_rate();
      useful += s.pool.produced == 0 ? 0.0
                                     : static_cast<double>(s.pool.hits) /
                                           static_cast<double>(s.pool.produced);
      misses += static_cast<double>(s.pool.misses);
    }
    const double runs = static_cast<double>(traced.services.size());
    put("service.pool.hit_rate", runs > 0 ? hit_rate / runs : 0);
    put("service.pool.useful_frac", runs > 0 ? useful / runs : 0);
    put("service.pool.misses", runs > 0 ? misses / runs : 0);

    auto total_wall = [](const Pass& p) {
      double t = 0;
      for (const auto& s : p.instances) t += s.wall_s;
      for (const auto& s : p.services) t += s.wall_s;
      return t;
    };
    const double muted_wall = total_wall(muted);
    put("obs.overhead_frac", muted_wall > 0 ? total_wall(traced) / muted_wall - 1.0 : 0);
  }

  const RunOptions& opt_;
  Workload w_;
  ProtocolParams params_;
  ProtocolParams setup_params_;
  net::NetConfig net_;
  RunResult& result_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"wide-192", "deep-192", "wide-1024", "service-agg"};
}

RunResult run_workload(const RunOptions& opt) {
  RunResult result;
  Runner runner(opt, result);
  runner.run();
  return result;
}

}  // namespace yoso::e2e
