#include "ladder.h"

#include <algorithm>
#include <utility>

#include "logic/analysis.h"
#include "logic/grounder.h"

namespace kbt::perfbench {
namespace {

/// Requests replayed per workload: enough for steady medians, few enough to
/// keep the pass to a few seconds.
size_t ReadSamples(const Workload& w) {
  return w.kind == Kind::kWorldsetRead ? 96 : 256;
}
constexpr size_t kApplySamples = 64;
constexpr int kCheckpoints = 5;
constexpr size_t kAppliesPerCheckpoint = 4;

/// Records spans and collects each rung's durations.
class Recorder {
 public:
  explicit Recorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Opens a request's root span.
  void Begin(const char* name) {
    ++request_;
    root_ = Open(name, 0);
  }
  void End() { Close(root_); }

  /// Times `fn` as a child span of the current request; its duration in
  /// microseconds is appended to `durations`.
  template <typename Fn>
  auto Time(const char* name, std::vector<double>* durations, Fn&& fn) {
    uint64_t id = Open(name, root_);
    auto result = fn();
    Close(id);
    durations->push_back(spans_[id - 1].end_us - spans_[id - 1].start_us);
    return result;
  }

  std::vector<Span> TakeSpans() { return std::move(spans_); }

 private:
  uint64_t Open(const char* name, uint64_t parent) {
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request_;
    s.name = name;
    s.start_us = MicrosSince(epoch_, Clock::now());
    spans_.push_back(s);
    return s.id;
  }
  void Close(uint64_t id) {
    spans_[id - 1].end_us = MicrosSince(epoch_, Clock::now());
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  uint64_t request_ = 0;
  uint64_t root_ = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

StatusOr<LadderResult> RunLadder(const Workload& w,
                                 const std::vector<char>& expected,
                                 const std::string& dir,
                                 Clock::time_point epoch) {
  LadderResult out;
  Recorder rec(epoch);
  net::ClientOptions client_options;
  client_options.max_attempts = 1;

  // --- Reads ---------------------------------------------------------------
  // Every read rung starts from the same state: per-call caches and a solver
  // kept across reads. The core rungs build their caches per call and borrow
  // the ladder's solver and scratch, as a session pins its own. The serve and
  // net rungs run on a server over the workload's kb with the cache
  // bank off, so they build per-call caches too; the serve rung is an
  // in-process session of that server, the net rung reaches it over TCP.
  const Knowledgebase& kb = w.kb;
  StackConfig cold_config;
  cold_config.cache_bank = false;
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<Stack> cold,
                       Stack::Start(kb, cold_config));
  std::unique_ptr<serve::Session> session = cold->server().StartSession();
  net::Client client =
      net::Client::Dial("127.0.0.1", cold->port(), client_options);
  sat::Solver solver;
  exec::WorldScratch scratch;
  TauOptions tau_options;
  tau_options.solver = &solver;
  tau_options.scratch = &scratch;
  const Database world0 = kb.World(0);
  const std::vector<Value> world0_domain = world0.ActiveDomain();

  std::vector<double> parse_us, ground_us, mu_us, tau_us, query_us, read_us;
  uint64_t solve_calls = 0, conflicts = 0, decisions = 0;
  uint64_t ground_hits = 0, ground_lookups = 0, cnf_hits = 0, cnf_lookups = 0;
  const size_t read_samples = ReadSamples(w);
  for (size_t s = 0; s < read_samples; ++s) {
    const size_t index = Mix(Mix(w.seed) ^ (0x5EED0000ull + s)) % w.pool.size();
    const ReadSpec& r = w.pool[index];
    rec.Begin("ladder.read");
    ++out.attempted;

    std::vector<Formula> antecedents;
    Formula consequent = nullptr;
    Status parsed = rec.Time("logic.parse", &parse_us, [&]() -> Status {
      for (const std::string& text : r.antecedents) {
        KBT_ASSIGN_OR_RETURN(Formula f, ParseSentence(text));
        antecedents.push_back(std::move(f));
      }
      KBT_ASSIGN_OR_RETURN(consequent, ParseSentence(r.consequent));
      return Status::OK();
    });
    KBT_RETURN_IF_ERROR(parsed);

    if (!antecedents.empty()) {
      std::vector<Value> domain = world0_domain;
      for (Value c : ConstantsOf(antecedents[0])) domain.push_back(c);
      std::sort(domain.begin(), domain.end());
      domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
      KBT_RETURN_IF_ERROR(rec.Time("logic.ground", &ground_us, [&] {
                               return GroundSentence(antecedents[0], domain);
                             }).status());
      KBT_RETURN_IF_ERROR(rec.Time("core.mu", &mu_us, [&] {
                               return Mu(antecedents[0], world0);
                             }).status());
    }

    std::vector<ChainStep> steps(antecedents.size());
    for (size_t a = 0; a < antecedents.size(); ++a) {
      steps[a].antecedent = &antecedents[a];
    }
    const Modality modality =
        r.necessarily ? Modality::kNecessarily : Modality::kPossibly;
    TauStats stats;
    StatusOr<bool> tau = rec.Time("core.tau", &tau_us, [&] {
      return NestedCounterfactualExec(kb, steps, consequent, modality,
                                      tau_options, &stats);
    });
    solve_calls += stats.mu.sat_solve_calls;
    conflicts += stats.mu.sat_conflicts;
    decisions += stats.mu.sat_decisions;
    ground_hits += stats.ground_cache_hits;
    ground_lookups += stats.ground_cache_hits + stats.ground_cache_misses;
    cnf_hits += stats.cnf_cache_hits;
    cnf_lookups += stats.cnf_cache_hits + stats.cnf_cache_misses;

    StatusOr<serve::ReadResult> query = rec.Time(
        "serve.query", &query_us, [&] { return session->Query(ToRequest(r)); });
    StatusOr<net::ClientReadResult> read = rec.Time("net.read", &read_us, [&] {
      return client.Read(r.antecedents, r.consequent, r.necessarily);
    });
    rec.End();

    const bool agree = tau.ok() && query.ok() && read.ok() &&
                       *tau == query->holds && *tau == read->holds &&
                       *tau == (expected[index] != 0);
    if (!agree) ++out.failed;
  }

  // --- Applies -------------------------------------------------------------
  // Four fresh servers from the workload's kb take the same seeded applies
  // in lockstep: in memory, durable, durable over TCP, and semi-sync
  // replicated over TCP.
  serve::Server memory(w.kb);
  StackConfig durable_config;
  durable_config.dir = dir + "/ladder-durable";
  StackConfig net_config;
  net_config.dir = dir + "/ladder-net";
  StackConfig repl_config;
  repl_config.dir = dir + "/ladder-repl";
  repl_config.replicated = true;
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<Stack> durable,
                       Stack::Start(w.kb, durable_config));
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<Stack> net_stack,
                       Stack::Start(w.kb, net_config));
  KBT_ASSIGN_OR_RETURN(std::unique_ptr<Stack> repl_stack,
                       Stack::Start(w.kb, repl_config));
  net::Client net_client =
      net::Client::Dial("127.0.0.1", net_stack->port(), client_options);
  net::Client repl_client =
      net::Client::Dial("127.0.0.1", repl_stack->port(), client_options);

  std::vector<double> apply_us, durable_us, net_apply_us, semisync_us;
  const uint64_t bytes_before = DirBytes(durable_config.dir);
  const uint64_t fetches_before = repl_stack->primary()->stats().fetches;
  const size_t apply_samples = kApplySamples;
  for (size_t i = 0; i < apply_samples; ++i) {
    const std::string expression = ApplyExpr(w, i);
    rec.Begin("ladder.apply");
    ++out.attempted;
    StatusOr<uint64_t> v1 = rec.Time("serve.apply", &apply_us,
                                     [&] { return memory.Apply(expression); });
    StatusOr<uint64_t> v2 = rec.Time("serve.durable_apply", &durable_us, [&] {
      return durable->server().Apply(expression);
    });
    StatusOr<uint64_t> v3 = rec.Time("net.apply", &net_apply_us,
                                     [&] { return net_client.Apply(expression); });
    StatusOr<uint64_t> v4 = rec.Time("repl.semisync_apply", &semisync_us,
                                     [&] { return repl_client.Apply(expression); });
    rec.End();
    for (const StatusOr<uint64_t>* v : {&v1, &v2, &v3, &v4}) {
      if (!v->ok() || **v != i + 1) {
        ++out.failed;
        break;
      }
    }
  }
  const double wal_bytes_per_commit =
      static_cast<double>(DirBytes(durable_config.dir) - bytes_before) /
      apply_samples;
  const double fetches_per_commit =
      static_cast<double>(repl_stack->primary()->stats().fetches -
                          fetches_before) /
      apply_samples;

  std::vector<double> checkpoint_us;
  for (int c = 0; c < kCheckpoints; ++c) {
    for (size_t i = 0; i < kAppliesPerCheckpoint; ++i) {
      KBT_RETURN_IF_ERROR(durable->server()
                              .Apply(ApplyExpr(w, apply_samples + c * kAppliesPerCheckpoint + i))
                              .status());
    }
    rec.Begin("ladder.checkpoint");
    Status checkpoint = rec.Time("store.checkpoint", &checkpoint_us,
                                 [&] { return durable->server().Checkpoint(); });
    rec.End();
    KBT_RETURN_IF_ERROR(checkpoint);
  }
  ++out.attempted;
  if (!CheckFollowerMatches(*repl_stack).ok()) ++out.failed;

  out.metrics = {
      {"logic.parse_us", Median(parse_us), "us"},
      {"logic.ground_us", Median(ground_us), "us"},
      {"core.mu_us", Median(mu_us), "us"},
      {"core.tau_us", Median(tau_us), "us"},
      {"sat.solve_calls", Ratio(solve_calls, read_samples), "count"},
      {"sat.conflicts", Ratio(conflicts, read_samples), "count"},
      {"sat.decisions", Ratio(decisions, read_samples), "count"},
      {"exec.ground_hit_frac", Ratio(ground_hits, ground_lookups), "ratio"},
      {"exec.cnf_prefix_hit_frac", Ratio(cnf_hits, cnf_lookups), "ratio"},
      {"serve.query_us", Median(query_us), "us"},
      {"net.read_us", Median(read_us), "us"},
      {"serve.apply_us", Median(apply_us), "us"},
      {"serve.durable_apply_us", Median(durable_us), "us"},
      {"net.apply_us", Median(net_apply_us), "us"},
      {"repl.semisync_apply_us", Median(semisync_us), "us"},
      {"repl.fetches_per_commit", fetches_per_commit, "count"},
      {"store.wal_bytes_per_commit", wal_bytes_per_commit, "B"},
      {"store.checkpoint_ms", Median(checkpoint_us) / 1000.0, "ms"},
  };
  out.spans = rec.TakeSpans();
  return out;
}

}  // namespace kbt::perfbench
