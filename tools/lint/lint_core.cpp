#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace yoso::lint {

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string to_rel(const std::filesystem::path& root, const std::filesystem::path& p) {
  return std::filesystem::relative(p, root).generic_string();
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Consensus-visible scope: these paths feed the replicated transcript, so
// iteration order and wall-clock reads must never influence them.
// src/service is included since PR 6: its report_json() is a bit-for-bit
// deterministic contract.
bool in_consensus_scope(const std::string& rel) {
  return starts_with(rel, "src/yoso/") || starts_with(rel, "src/wire/") ||
         starts_with(rel, "src/net/") || starts_with(rel, "src/crypto/transcript") ||
         starts_with(rel, "src/service/");
}

// Role-bearing scope for the YOSO one-shot/erasure rule: code that drives
// speaking roles or retains protocol state across activations.
bool in_role_scope(const std::string& rel) {
  return starts_with(rel, "src/mpc/") || starts_with(rel, "src/yoso/") ||
         starts_with(rel, "src/itmpc/") || starts_with(rel, "src/service/");
}

// Files allowed to construct sequential generators directly: the blessed
// derivation seam itself and the generator definitions.
bool prg_discipline_exempt(const std::string& rel) {
  return starts_with(rel, "src/common/prg_stream.") || starts_with(rel, "src/crypto/rand.") ||
         starts_with(rel, "src/crypto/prg.");
}

struct TokenRule {
  const char* rule;
  std::regex pattern;
  const char* message;
  bool consensus_scope_only;
};

const std::vector<TokenRule>& token_rules() {
  static const std::vector<TokenRule> rules = [] {
    std::vector<TokenRule> r;
    r.push_back({"raw-powm", std::regex(R"(\bmpz_powm(_sec|_ui)?\b)"),
                 "raw GMP exponentiation; use powm_sec/powm_pub from common/ct_math.hpp", false});
    r.push_back({"raw-invert", std::regex(R"(\bmpz_invert\b)"),
                 "raw GMP inversion; use mod_inverse from common/ct_math.hpp", false});
    r.push_back({"memcmp", std::regex(R"(\bmemcmp\b)"),
                 "early-exit comparison; use ct_equal from crypto/ct.hpp", false});
    r.push_back({"declassify", std::regex(R"(\.declassify\s*\()"),
                 "taint exit outside the whitelist; add a justified whitelist entry", false});
    r.push_back({"nondeterminism",
                 std::regex(R"(\bstd::unordered_(map|set)\b|\b(s?rand|time)\s*\(|)"
                            R"(\brandom_device\b|\bmt19937\b|\bsystem_clock\b)"),
                 "nondeterministic construct in consensus-visible code", true});
    r.push_back({"banned-include",
                 std::regex(R"(^\s*#\s*include\s*<(random|ctime|unordered_map|unordered_set)>)"),
                 "banned include in consensus-visible code", true});
    return r;
  }();
  return rules;
}

void split_lines(const std::string& s, std::vector<std::string>* out) {
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      out->push_back(s.substr(start));
      break;
    }
    out->push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
}

}  // namespace

Whitelist Whitelist::load(const std::filesystem::path& file) {
  std::string err;
  Whitelist wl = parse(read_file(file), &err);
  if (!err.empty()) throw std::runtime_error("lint whitelist " + file.string() + ": " + err);
  return wl;
}

Whitelist Whitelist::parse(const std::string& text, std::string* error) {
  Whitelist wl;
  std::vector<std::string> lines;
  split_lines(text, &lines);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    if (auto cr = line.find('\r'); cr != std::string::npos) line.erase(cr);
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ss(line);
    std::string rule, path, dashes;
    ss >> rule >> path >> dashes;
    std::string reason;
    std::getline(ss, reason);
    std::size_t rs = reason.find_first_not_of(" \t");
    if (rule.empty() || path.empty() || dashes != "--" || rs == std::string::npos) {
      if (error != nullptr) {
        *error = "line " + std::to_string(i + 1) +
                 ": expected '<rule> <path> -- <reason>', got: " + line;
      }
      return Whitelist();
    }
    wl.entries_.push_back(Entry{rule, path});
  }
  if (error != nullptr) error->clear();
  return wl;
}

bool Whitelist::allows(const std::string& rule, const std::string& rel_path) const {
  for (const auto& e : entries_) {
    if (e.rule == rule && e.path == rel_path) return true;
  }
  return false;
}

namespace {

std::string strip_impl(const std::string& src, bool blank_strings) {
  std::string out = src;
  enum class St { Code, Line, Block, Str, Chr };
  St st = St::Code;
  for (std::size_t i = 0; i < src.size(); ++i) {
    char c = src[i];
    char next = i + 1 < src.size() ? src[i + 1] : '\0';
    char prev = i > 0 ? src[i - 1] : '\0';
    switch (st) {
      case St::Code:
        if (c == '/' && next == '/') {
          st = St::Line;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::Block;
          out[i] = ' ';
        } else if (c == '"') {
          st = St::Str;
        } else if (c == '\'') {
          // A ' between a digit and an alphanumeric is a C++14 digit
          // separator (1'000'000, 0x3'F), not a char literal.  Treating it
          // as one would leave the stripper in Chr state until the next
          // stray apostrophe — often inside a later comment.
          if (!(std::isdigit(static_cast<unsigned char>(prev)) &&
                std::isalnum(static_cast<unsigned char>(next)))) {
            st = St::Chr;
          }
        }
        break;
      case St::Line:
        if (c == '\n') {
          st = St::Code;
        } else {
          out[i] = ' ';
        }
        break;
      case St::Block:
        if (c == '*' && next == '/') {
          st = St::Code;
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::Str:
      case St::Chr: {
        char quote = st == St::Str ? '"' : '\'';
        if (c == '\\' && next != '\0') {
          if (blank_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == quote) {
          st = St::Code;
        } else if (c != '\n' && blank_strings) {
          out[i] = ' ';
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace

std::string strip_comments_and_strings(const std::string& src) {
  return strip_impl(src, /*blank_strings=*/true);
}

std::string strip_comments(const std::string& src) {
  return strip_impl(src, /*blank_strings=*/false);
}

std::vector<Finding> lint_file(const std::string& rel_path, const std::string& content,
                               const Whitelist& wl) {
  std::vector<Finding> findings;
  const std::string stripped = strip_comments_and_strings(content);
  std::vector<std::string> lines;
  split_lines(stripped, &lines);
  const bool consensus = in_consensus_scope(rel_path);
  for (const auto& rule : token_rules()) {
    if (rule.consensus_scope_only && !consensus) continue;
    if (wl.allows(rule.rule, rel_path)) continue;
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (std::regex_search(lines[ln], rule.pattern)) {
        findings.push_back(Finding{rule.rule, rel_path, ln + 1, rule.message});
      }
    }
  }

  // raw-json runs on string literals (comments stripped, strings kept): an
  // escaped `\"key\":` inside a C++ string is a hand-built JSON object.  All
  // JSON must go through the json::Writer funnel in src/common/json.hpp.
  if (starts_with(rel_path, "src/") && !starts_with(rel_path, "src/common/json") &&
      !wl.allows("raw-json", rel_path)) {
    static const std::regex raw_json(R"re(\\"[A-Za-z_][A-Za-z0-9_.]*\\"\s*:)re");
    std::vector<std::string> raw_lines;
    split_lines(strip_comments(content), &raw_lines);
    for (std::size_t ln = 0; ln < raw_lines.size(); ++ln) {
      if (std::regex_search(raw_lines[ln], raw_json)) {
        findings.push_back(Finding{"raw-json", rel_path, ln + 1,
                                   "hand-built JSON literal; use json::Writer from "
                                   "common/json.hpp"});
      }
    }
  }

  // prg-discipline: constructing a sequential generator (Rng, Prg,
  // gmp_randclass) outside the blessed per-task derivation seam.  A line
  // that derives its seed via prg::subseed / prg::derive_prg is blessed —
  // that is the (seed, role, activation) keying the multi-core engine
  // depends on.  Whole-file exemptions go through the whitelist with a
  // recorded reason (pre-existing derivations keep the seeded transcripts
  // and the committed BENCH_comm.json record stable).
  if (starts_with(rel_path, "src/") && !prg_discipline_exempt(rel_path) &&
      !wl.allows("prg-discipline", rel_path)) {
    static const std::regex prg_ctor(
        R"(\b(?:Rng|Prg|gmp_randclass)\s+[A-Za-z_]\w*\s*[({;=]|\bgmp_randinit\w*\s*\()");
    static const std::regex blessed(
        R"(\bprg::(subseed|derive_prg|StreamKey|SequentialStreams)\b)");
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (!std::regex_search(lines[ln], prg_ctor)) continue;
      if (std::regex_search(lines[ln], blessed)) continue;
      findings.push_back(Finding{"prg-discipline", rel_path, ln + 1,
                                 "sequential PRG constructed outside the per-task stream seam; "
                                 "derive the seed via prg::subseed (common/prg_stream.hpp) or "
                                 "whitelist with a reason"});
    }
  }

  // mutable-global: non-const namespace-scope or function-local `static`
  // mutable state.  Hidden shared state is what the thread-safety
  // annotations cannot see; every surviving instance must be a reviewed
  // whitelist entry.  A '(' in the declaration head (before any '=' or ';')
  // marks a function declaration, which is fine.
  if (starts_with(rel_path, "src/") && !wl.allows("mutable-global", rel_path)) {
    static const std::regex static_decl(R"(^\s*(?:inline\s+|thread_local\s+)*static\s)");
    static const std::regex const_mark(R"(\bconst\b|\bconstexpr\b|\bconstinit\b)");
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      const std::string& line = lines[ln];
      if (!std::regex_search(line, static_decl)) continue;
      const std::size_t cut = line.find_first_of("=;");
      const std::string head = line.substr(0, cut == std::string::npos ? line.size() : cut);
      if (head.find('(') != std::string::npos) continue;  // function, not data
      if (std::regex_search(head, const_mark)) continue;
      findings.push_back(Finding{"mutable-global", rel_path, ln + 1,
                                 "mutable static state; thread-safety analysis cannot guard "
                                 "hidden globals — remove it or whitelist with a reason"});
    }
  }

  // obs-hot-loop: registry-backed OBS_* macros in the crypto hot loops.
  // Each expansion resolves a name->handle map lookup (a static, but the
  // first call per site takes the registry lock) — on the primitive funnels
  // that is the pattern PR 9 removed.  Hot-path recording goes through the
  // profiler's OBS_OP* macros (array-indexed task-local cells,
  // src/obs/profile.hpp) or a cached obs::Series handle
  // (docs/OBSERVABILITY.md); anything else needs a whitelist reason.
  if ((starts_with(rel_path, "src/crypto/") || starts_with(rel_path, "src/paillier/") ||
       starts_with(rel_path, "src/common/ct_math")) &&
      !wl.allows("obs-hot-loop", rel_path)) {
    static const std::regex obs_macro(R"(\bOBS_(COUNT|COUNT_N|HIST|GAUGE_SET)\s*\()");
    for (std::size_t ln = 0; ln < lines.size(); ++ln) {
      if (std::regex_search(lines[ln], obs_macro)) {
        findings.push_back(Finding{"obs-hot-loop", rel_path, ln + 1,
                                   "registry-backed OBS_* macro on a crypto hot path; record "
                                   "through OBS_OP* (obs/profile.hpp) or a cached series handle "
                                   "(docs/OBSERVABILITY.md), or whitelist with a reason"});
      }
    }
  }

  // one-shot: YOSO role hygiene in the role-bearing scope.
  if (in_role_scope(rel_path) && !wl.allows("one-shot", rel_path)) {
    // (a) Two posting calls in one file with the same (committee
    // expression, label literal): syntactically, a role identity that can
    // speak twice.  A posting call is a publish() or a post_round() — the
    // committee round skeleton of src/mpc/round.hpp, which owns the one
    // publish() of the protocol core; both take the committee first and
    // the label as the first string literal.  Label literals live in
    // strings, so this scan keeps them (comments stripped only).
    std::vector<std::string> code_lines;
    split_lines(strip_comments(content), &code_lines);
    static const std::regex publish_call(R"((\.|->)publish\s*\(|\bpost_round\s*\()");
    static const std::regex label_literal("\"([^\"]*)\"");
    std::map<std::string, std::size_t> seen;  // (committee|label) -> first line
    for (std::size_t ln = 0; ln < code_lines.size(); ++ln) {
      std::smatch m;
      if (!std::regex_search(code_lines[ln], m, publish_call)) continue;
      // Argument window: rest of this line plus the next two (posting calls
      // in this tree name their label within three lines).
      std::string window = code_lines[ln].substr(m.position(0) + m.length(0));
      for (std::size_t extra = 1; extra <= 2 && ln + extra < code_lines.size(); ++extra) {
        window += ' ';
        window += code_lines[ln + extra];
      }
      const std::size_t comma = window.find(',');
      if (comma == std::string::npos) continue;
      std::string committee = window.substr(0, comma);
      committee.erase(std::remove_if(committee.begin(), committee.end(),
                                     [](unsigned char c) { return std::isspace(c); }),
                      committee.end());
      std::smatch lm;
      if (!std::regex_search(window, lm, label_literal)) continue;  // dynamic label
      const std::string sig = committee + "|" + lm[1].str();
      auto [it, inserted] = seen.emplace(sig, ln + 1);
      if (!inserted) {
        findings.push_back(Finding{"one-shot", rel_path, ln + 1,
                                   "second post with committee " + committee + " and label \"" +
                                       lm[1].str() + "\" (first at line " +
                                       std::to_string(it->second) +
                                       "); a YOSO role speaks exactly once"});
      }
    }

    // (b) A Secret<…> member in a role-scope header is secret state a role
    // could retain past its speaking phase; whitelisting requires a
    // recorded erasure story.
    if (rel_path.size() > 4 && rel_path.compare(rel_path.size() - 4, 4, ".hpp") == 0) {
      static const std::regex secret_member(R"(\bSecret\s*<|\bSecretMpz\b)");
      for (std::size_t ln = 0; ln < lines.size(); ++ln) {
        const std::string& line = lines[ln];
        if (!std::regex_search(line, secret_member)) continue;
        if (line.find('(') != std::string::npos) continue;  // function signature
        const std::size_t last = line.find_last_not_of(" \t");
        if (last == std::string::npos || line[last] != ';') continue;  // not a declaration
        if (line.find("using") != std::string::npos) continue;        // type alias
        findings.push_back(Finding{"one-shot", rel_path, ln + 1,
                                   "Secret<…> member retained in a role-scope header; erase "
                                   "secret state after the speaking phase or whitelist with "
                                   "the erasure story"});
      }
    }
  }
  return findings;
}

namespace {

// Cross-file rule: each tag constant declared in codec.hpp must be handled
// in the decoder round-trip switch of codec.cpp and net_bulletin.cpp.
void check_codec_switch(const std::filesystem::path& root, std::vector<Finding>* findings) {
  const std::filesystem::path decl = root / "src" / "wire" / "codec.hpp";
  if (!std::filesystem::exists(decl)) return;  // tree without a codec: rule vacuous
  const std::string header = strip_comments_and_strings(read_file(decl));

  std::vector<std::string> tags;
  std::regex tag_decl(R"(constexpr\s+std::uint8_t\s+(kTag\w+)\s*=)");
  for (auto it = std::sregex_iterator(header.begin(), header.end(), tag_decl);
       it != std::sregex_iterator(); ++it) {
    tags.push_back((*it)[1].str());
  }

  const std::filesystem::path handlers[] = {root / "src" / "wire" / "codec.cpp",
                                            root / "src" / "net" / "net_bulletin.cpp"};
  for (const auto& h : handlers) {
    if (!std::filesystem::exists(h)) continue;
    const std::string body = strip_comments_and_strings(read_file(h));
    for (const auto& tag : tags) {
      std::regex has_case("case\\s+" + tag + "\\s*:");
      if (!std::regex_search(body, has_case)) {
        findings->push_back(Finding{"codec-switch", to_rel(root, h), 1,
                                    "missing `case " + tag + ":` for tag declared in " +
                                        to_rel(root, decl)});
      }
    }
  }
}

// Cross-file rule: every entry in the TSan suppressions funnel must be
// immediately preceded by a '#' comment recording why the suppression is
// sound — the same reason-mandatory policy as the lint whitelist.  An
// unexplained suppression is how a real race hides forever.
void check_tsan_suppressions(const std::filesystem::path& root, std::vector<Finding>* findings) {
  const std::filesystem::path supp = root / "tools" / "tsan" / "suppressions.txt";
  if (!std::filesystem::exists(supp)) return;  // tree without TSan wiring: rule vacuous
  std::vector<std::string> lines;
  split_lines(read_file(supp), &lines);
  bool prev_was_reason = false;
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    std::string line = lines[ln];
    if (auto cr = line.find('\r'); cr != std::string::npos) line.erase(cr);
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) {
      prev_was_reason = false;  // a blank line breaks the comment/entry pairing
      continue;
    }
    if (line[first] == '#') {
      prev_was_reason = true;
      continue;
    }
    if (!prev_was_reason) {
      findings->push_back(Finding{"tsan-suppression", to_rel(root, supp), ln + 1,
                                  "suppression entry without a preceding '# reason' comment; "
                                  "every TSan suppression must record why it is sound"});
    }
    prev_was_reason = false;  // each entry needs its own reason line
  }
}

}  // namespace

std::vector<Finding> lint_tree(const std::filesystem::path& root, const Whitelist& wl) {
  std::vector<Finding> findings;
  const std::filesystem::path src = root / "src";
  if (std::filesystem::exists(src)) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp") continue;
      const std::string rel = to_rel(root, entry.path());
      auto file_findings = lint_file(rel, read_file(entry.path()), wl);
      findings.insert(findings.end(), file_findings.begin(), file_findings.end());
    }
  }
  check_codec_switch(root, &findings);
  check_tsan_suppressions(root, &findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

std::string format_findings(const std::vector<Finding>& findings) {
  std::ostringstream ss;
  for (const auto& f : findings) {
    ss << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  return ss.str();
}

std::string findings_jsonl(const std::vector<Finding>& findings) {
  std::ostringstream ss;
  for (const auto& f : findings) {
    json::Writer w;
    w.begin_object();
    w.field("rule", f.rule);
    w.field("file", f.file);
    w.field("line", static_cast<std::uint64_t>(f.line));
    w.field("message", f.message);
    w.end_object();
    ss << w.take() << "\n";
  }
  return ss.str();
}

}  // namespace yoso::lint
