#include "yoso/ledger.hpp"

#include <sstream>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace yoso {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Setup: return "setup";
    case Phase::Offline: return "offline";
    case Phase::Online: return "online";
  }
  return "?";
}

Ledger::Ledger(const Ledger& other) {
  MutexLock lock(&other.mu_);
  setup_ = other.setup_;
  offline_ = other.offline_;
  online_ = other.online_;
}

Ledger& Ledger::operator=(const Ledger& other) {
  if (this == &other) return *this;
  // Snapshot under the source lock, then install under ours: two short
  // critical sections instead of a two-lock ordering protocol.
  std::map<std::string, LedgerEntry> s, off, on;
  {
    MutexLock lock(&other.mu_);
    s = other.setup_;
    off = other.offline_;
    on = other.online_;
  }
  MutexLock lock(&mu_);
  setup_ = std::move(s);
  offline_ = std::move(off);
  online_ = std::move(on);
  return *this;
}

std::map<std::string, LedgerEntry>& Ledger::bucket(Phase phase) {
  switch (phase) {
    case Phase::Setup: return setup_;
    case Phase::Offline: return offline_;
    case Phase::Online: return online_;
  }
  return setup_;
}

const std::map<std::string, LedgerEntry>& Ledger::bucket(Phase phase) const {
  switch (phase) {
    case Phase::Setup: return setup_;
    case Phase::Offline: return offline_;
    case Phase::Online: return online_;
  }
  return setup_;
}

void Ledger::record(Phase phase, const std::string& category, std::size_t bytes,
                    std::size_t elements) {
  {
    MutexLock lock(&mu_);
    auto& e = bucket(phase)[category];
    e.messages += 1;
    e.elements += elements;
    e.bytes += bytes;
  }
  static obs::Counter* by_phase[3] = {&obs::metrics().counter("bytes.posted.setup"),
                                      &obs::metrics().counter("bytes.posted.offline"),
                                      &obs::metrics().counter("bytes.posted.online")};
  by_phase[static_cast<int>(phase)]->add(bytes);
}

LedgerEntry Ledger::phase_total_locked(Phase phase) const {
  LedgerEntry total;
  for (const auto& [_, e] : bucket(phase)) {
    total.messages += e.messages;
    total.elements += e.elements;
    total.bytes += e.bytes;
  }
  return total;
}

LedgerEntry Ledger::phase_total(Phase phase) const {
  MutexLock lock(&mu_);
  return phase_total_locked(phase);
}

LedgerEntry Ledger::total_locked() const {
  LedgerEntry t;
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    auto e = phase_total_locked(p);
    t.messages += e.messages;
    t.elements += e.elements;
    t.bytes += e.bytes;
  }
  return t;
}

LedgerEntry Ledger::total() const {
  MutexLock lock(&mu_);
  return total_locked();
}

const std::map<std::string, LedgerEntry>& Ledger::categories(Phase phase) const {
  MutexLock lock(&mu_);
  return bucket(phase);
}

void Ledger::reset() {
  MutexLock lock(&mu_);
  setup_.clear();
  offline_.clear();
  online_.clear();
}

void Ledger::merge(const Ledger& other) {
  if (this == &other) return;  // self-merge would double every entry
  // Snapshot the source first so we never hold both locks at once.
  std::map<std::string, LedgerEntry> snap[3];
  {
    MutexLock lock(&other.mu_);
    snap[0] = other.setup_;
    snap[1] = other.offline_;
    snap[2] = other.online_;
  }
  MutexLock lock(&mu_);
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    for (const auto& [cat, e] : snap[static_cast<int>(p)]) {
      LedgerEntry& mine = bucket(p)[cat];
      mine.messages += e.messages;
      mine.elements += e.elements;
      mine.bytes += e.bytes;
    }
  }
}

namespace {

void entry_json(json::Writer& w, const LedgerEntry& e) {
  w.begin_object();
  w.field("messages", static_cast<std::uint64_t>(e.messages));
  w.field("elements", static_cast<std::uint64_t>(e.elements));
  w.field("bytes", static_cast<std::uint64_t>(e.bytes));
  w.end_object();
}

}  // namespace

std::string Ledger::report_json() const {
  MutexLock lock(&mu_);
  json::Writer w;
  w.begin_object();
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    w.key(phase_name(p)).begin_object();
    w.key("total");
    entry_json(w, phase_total_locked(p));
    w.key("categories").begin_object();
    for (const auto& [cat, e] : bucket(p)) {
      w.key(cat);
      entry_json(w, e);
    }
    w.end_object();
    w.end_object();
  }
  w.key("total");
  entry_json(w, total_locked());
  w.end_object();
  return w.take();
}

std::string Ledger::report() const {
  MutexLock lock(&mu_);
  std::ostringstream os;
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    auto t = phase_total_locked(p);
    os << phase_name(p) << ": " << t.messages << " msgs, " << t.elements << " elems, "
       << t.bytes << " bytes\n";
    for (const auto& [cat, e] : bucket(p)) {
      os << "  " << cat << ": " << e.messages << " msgs, " << e.elements << " elems, "
         << e.bytes << " bytes\n";
    }
  }
  return os.str();
}

}  // namespace yoso
