#include "workload.h"

#include <algorithm>
#include <set>

namespace kbt::perfbench {
namespace {

constexpr int kDomain = 6;
constexpr size_t kBankCapacity = 64;  // serve::ServerOptions default.

/// The sentence that forces μ onto the SAT strategy (its head is a
/// conjunction, so no fast path applies); S/2 is new to the kb.
constexpr const char* kOrient =
    "forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x))";

std::string Const(int i) { return "n" + std::to_string(i); }

/// A small seeded stream: each call mixes a counter into the seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_ += 0x9E3779B97F4A7C15ull); }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

using Rel = std::pair<std::string, int>;

std::string Atom(const Rel& rel, Rng& rng) {
  std::string atom = rel.first + "(";
  for (int a = 0; a < rel.second; ++a) {
    if (a > 0) atom += ", ";
    atom += Const(rng.Below(kDomain));
  }
  return atom + ")";
}

/// `count` literals over distinct atoms of `rels`, sorted so one set of
/// literals has one spelling, joined by `op`.
std::string Literals(const std::vector<Rel>& rels, int count, Rng& rng,
                     const char* op) {
  std::set<std::string> atoms;
  std::vector<std::string> literals;
  while (static_cast<int>(literals.size()) < count) {
    std::string atom = Atom(rels[rng.Below(static_cast<int>(rels.size()))], rng);
    if (!atoms.insert(atom).second) continue;
    literals.push_back(rng.Below(2) == 0 ? atom : "!" + atom);
  }
  std::sort(literals.begin(), literals.end());
  std::string out;
  for (const std::string& l : literals) {
    if (!out.empty()) out += op;
    out += l;
  }
  return out;
}

Relation DomRelation() {
  Relation::Builder dom(1);
  for (int i = 0; i < kDomain; ++i) dom.Append({Name(Const(i))});
  return dom.Build();
}

/// The serving shape: 3 worlds over {Dom, R, P, Q}, told apart by P alone;
/// R is a chain and Q starts empty.
Knowledgebase ServingKb() {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}, {"Q", 1}});
  Relation::Builder chain(2);
  for (int i = 0; i + 1 < kDomain; ++i) {
    chain.Append({Name(Const(i)), Name(Const(i + 1))});
  }
  Relation dom = DomRelation();
  Relation edges = chain.Build();
  std::vector<Database> worlds;
  for (int w = 0; w < 3; ++w) {
    Relation::Builder p(1);
    p.Append({Name(Const(w))});
    worlds.push_back(
        *Database::Create(schema, {dom, edges, p.Build(), Relation(1)}));
  }
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// The many-world shape: `worlds` worlds over {Dom, R, P}, each flipping a
/// distinct pair of R cells of one base; P is a set shared by all worlds.
/// The kb is the same for every seed (the seed picks the reads): the SAT
/// solver's cost depends on symbol order, so even a renamed kb would cost
/// a different amount per seed.
Knowledgebase DeltaKb(int worlds) {
  auto constant = [](int i) { return Name(Const(i)); };
  Rng shape(20260808);
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}});
  const int cells = kDomain * kDomain;
  std::vector<bool> base(cells);
  for (int c = 0; c < cells; ++c) base[c] = shape.Below(100) < 35;
  Relation::Builder p(1);
  for (int i = 0; i < kDomain; ++i) {
    if (shape.Below(2) == 0) p.Append({constant(i)});
  }
  Relation dom = DomRelation();
  Relation p_rel = p.Build();
  std::set<std::pair<int, int>> flips;
  std::vector<Database> dbs;
  while (static_cast<int>(dbs.size()) < worlds) {
    int a = shape.Below(cells);
    int b = shape.Below(cells);
    if (a == b || !flips.insert({std::min(a, b), std::max(a, b)}).second) {
      continue;
    }
    std::vector<bool> cell = base;
    cell[a] = !cell[a];
    cell[b] = !cell[b];
    Relation::Builder r(2);
    for (int c = 0; c < cells; ++c) {
      if (cell[c]) r.Append({constant(c / kDomain), constant(c % kDomain)});
    }
    dbs.push_back(*Database::Create(schema, {dom, r.Build(), p_rel}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// 16 distinct reads over P/Q/R. The shape of request i is fixed so that
/// seeds change only which atoms are asked about: i % 3 antecedents of one
/// or two ground literals, a literal or a two-literal disjunction as
/// consequent, and alternating modalities.
std::vector<ReadSpec> HotPool(Rng& rng) {
  const std::vector<Rel> rels = {{"P", 1}, {"Q", 1}, {"R", 2}};
  std::set<std::string> seen;
  std::vector<ReadSpec> pool;
  while (pool.size() < 16) {
    const size_t i = pool.size();
    ReadSpec r;
    for (size_t a = 0; a < i % 3; ++a) {
      r.antecedents.push_back(
          Literals(rels, 1 + static_cast<int>((i + a) % 2), rng, " & "));
    }
    r.consequent = Literals(rels, 1 + static_cast<int>(i / 3 % 2), rng, " | ");
    r.necessarily = i % 2 == 0;
    std::string key = r.consequent;
    for (const std::string& a : r.antecedents) key += "#" + a;
    if (seen.insert(key).second) pool.push_back(std::move(r));
  }
  return pool;
}

/// 4096 reads whose antecedents are pairwise distinct: the orient sentence
/// conjoined with ground literals over P/R/S — one for every 32nd request
/// (there are only 156 single literals), two for the rest — a ground literal
/// as consequent, and alternating modalities.
std::vector<ReadSpec> WorldsetPool(Rng& rng) {
  const std::vector<Rel> rels = {{"P", 1}, {"R", 2}, {"S", 2}};
  std::set<std::string> seen;
  std::vector<ReadSpec> pool;
  while (pool.size() < 4096) {
    const size_t i = pool.size();
    ReadSpec r;
    r.antecedents.push_back(
        std::string("(") + kOrient + ") & " +
        Literals(rels, i % 32 == 0 ? 1 : 2, rng, " & "));
    if (!seen.insert(r.antecedents[0]).second) continue;
    r.consequent = Literals(rels, 1, rng, "");
    r.necessarily = i / 2 % 2 == 0;
    pool.push_back(std::move(r));
  }
  return pool;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

serve::ReadRequest ToRequest(const ReadSpec& r) {
  serve::ReadRequest request;
  request.antecedents = r.antecedents;
  request.consequent = r.consequent;
  request.modality =
      r.necessarily ? Modality::kNecessarily : Modality::kPossibly;
  return request;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                unsigned nproc) {
  Workload w;
  w.name = name;
  w.seed = seed;
  Rng rng(seed);
  const int max_connections = std::max(1, static_cast<int>(nproc / 2));
  if (name == "hot_read") {
    w.kind = Kind::kHotRead;
    w.kb = ServingKb();
    w.pool = HotPool(rng);
    w.read_connections = std::min(2, max_connections);
    w.warmup_reads = w.pool.size();
    w.setups_per_round = 200;
  } else if (name == "worldset_read") {
    w.kind = Kind::kWorldsetRead;
    w.kb = DeltaKb(64);
    w.pool = WorldsetPool(rng);
    w.read_connections = std::min(2, max_connections);
    w.warmup_reads = kBankCapacity / w.read_connections;
    w.setups_per_round = 10;
    w.apply_relations = {{"P", 1}};
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (w.apply_relations.empty()) w.apply_relations = {{"Q", 1}, {"R", 2}};

  w.params = {
      {"worlds", std::to_string(w.kb.size())},
      {"domain", std::to_string(kDomain)},
      {"pool", std::to_string(w.pool.size())},
      {"bank_capacity", std::to_string(kBankCapacity)},
      {"read_connections", std::to_string(w.read_connections)},
      {"warmup_reads_per_connection", std::to_string(w.warmup_reads)},
      {"setups_per_round", std::to_string(w.setups_per_round)},
      {"ladder_sync_mode", "every_commit"},
      {"ladder_semi_sync", "on"},
  };
  return w;
}

std::string ApplyExpr(const Workload& w, uint64_t i) {
  Rng rng(Mix(w.seed) ^ (i * 0xD1B54A32D192ED03ull));
  return "tau{" + Literals(w.apply_relations, 1 + rng.Below(3), rng, " & ") +
         "}";
}

}  // namespace kbt::perfbench
