/// \file
/// Concurrency stress for the serving layer, written to run under TSan (the
/// CI tsan job includes this suite): N reader threads issue hypothetical
/// queries through pinned sessions while one writer publishes updates and
/// rotates durable checkpoints. Verified afterwards:
///
///   * every recorded (version, request, answer) triple is bit-identical to a
///     serial recompute on the retained snapshot of that version — reads are
///     consistent with exactly one published state, never a torn mix;
///   * readers made progress while the writer was parked mid-"transformation"
///     holding the write lock — the MVCC non-blocking claim, observed rather
///     than asserted from the design;
///   * sessions reading one bank entry through their private memo views get
///     the plain evaluation's answers while the entry is replaced, its memos
///     are cleared and a commit lands (ServeStressSharedReadsTest).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/hypothetical.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/parser.h"
#include "sat/solver.h"
#include "serve/cache_bank.h"
#include "serve/server.h"
#include "store/file.h"
#include "testutil.h"

namespace kbt::serve {
namespace {

Knowledgebase StressKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

/// The fixed read pool. Recurring sentences make the cache bank's sharing the
/// hot path, which is exactly what TSan should be staring at.
std::vector<ReadRequest> StressReadPool() {
  std::vector<ReadRequest> pool;
  auto add = [&pool](std::vector<std::string> ants, std::string cons,
                     Modality m) {
    ReadRequest r;
    r.antecedents = std::move(ants);
    r.consequent = std::move(cons);
    r.modality = m;
    pool.push_back(std::move(r));
  };
  add({}, "P(a)", Modality::kNecessarily);
  add({}, "P(w1)", Modality::kPossibly);
  add({"P(c)"}, "P(c)", Modality::kNecessarily);
  add({"Q(c, c)"}, "P(a) & Q(c, c)", Modality::kPossibly);
  add({"P(b)", "Q(b, b)"}, "Q(b, b)", Modality::kNecessarily);
  return pool;
}

struct RecordedRead {
  uint64_t version = 0;
  size_t request = 0;  ///< Index into the pool.
  bool holds = false;
};

TEST(ServeStressTest, ConcurrentReadersStayConsistentAcrossPublishes) {
  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 40;
  constexpr int kWrites = 12;

  Server server(StressKb());
  const std::vector<ReadRequest> pool = StressReadPool();

  // The writer retains every snapshot it publishes (plus v0) so the serial
  // recompute below can rerun any recorded read on its exact state.
  std::mutex snapshots_mu;
  std::map<uint64_t, std::shared_ptr<const Snapshot>> snapshots;
  snapshots[0] = server.CurrentSnapshot();

  std::vector<std::vector<RecordedRead>> recorded(kReaders);

  auto reader = [&](int t) {
    std::unique_ptr<Session> session = server.StartSession();
    std::vector<RecordedRead>& out = recorded[t];
    out.reserve(kReadsPerReader);
    for (int i = 0; i < kReadsPerReader; ++i) {
      size_t which = (t * 7 + i) % pool.size();
      auto result = session->Query(pool[which]);
      ASSERT_TRUE(result.ok()) << result.status().message();
      out.push_back({result->snapshot_version, which, result->holds});
    }
  };

  auto writer = [&] {
    for (int i = 0; i < kWrites; ++i) {
      auto version = server.Apply("tau{P(w" + std::to_string(i % 3) + ")}");
      ASSERT_TRUE(version.ok()) << version.status().message();
      std::lock_guard<std::mutex> lock(snapshots_mu);
      snapshots[*version] = server.CurrentSnapshot();
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (int t = 0; t < kReaders; ++t) threads.emplace_back(reader, t);
  for (std::thread& th : threads) th.join();

  // Serial recompute: every recorded read must match the plain core evaluation
  // on the snapshot of the version it reported.
  size_t total = 0;
  for (const std::vector<RecordedRead>& per_thread : recorded) {
    for (const RecordedRead& r : per_thread) {
      ++total;
      auto it = snapshots.find(r.version);
      ASSERT_NE(it, snapshots.end()) << "read saw unpublished version "
                                     << r.version;
      const ReadRequest& request = pool[r.request];
      std::vector<Formula> antecedents;
      for (const std::string& text : request.antecedents) {
        auto parsed = ParseSentence(text);
        ASSERT_TRUE(parsed.ok());
        antecedents.push_back(*parsed);
      }
      auto consequent = ParseSentence(request.consequent);
      ASSERT_TRUE(consequent.ok());
      auto expected = NestedCounterfactual(it->second->kb, antecedents,
                                           *consequent, request.modality);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(r.holds, *expected)
          << "version " << r.version << " request " << r.request;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kReaders) * kReadsPerReader);
}

/// Readers demonstrably progress while the write lock is held: two writer
/// threads keep the server's serialized Apply section continuously occupied
/// (one of them holds writer_mu_ at essentially every instant, since the τ +
/// publish inside dwarfs the loop gap), and all reads complete while that
/// storm is still running. A read path that took the write lock would
/// serialize behind it and this test would hang rather than finish.
TEST(ServeStressTest, ReadersNeverBlockOnTheWriter) {
  Server server(StressKb());
  const std::vector<ReadRequest> pool = StressReadPool();

  std::atomic<bool> writers_running{true};
  std::atomic<uint64_t> reads_done{0};

  // Two writer threads keep writer_mu_ continuously contended — at any moment
  // one of them holds it (Apply cost dwarfs the gap between calls).
  auto writer = [&](int seed) {
    int i = 0;
    while (writers_running.load()) {
      auto version =
          server.Apply("tau{P(w" + std::to_string((seed + i++) % 3) + ")}");
      ASSERT_TRUE(version.ok());
    }
  };
  std::thread w1(writer, 0), w2(writer, 1);

  // Readers: a fixed number of queries each. If reads took the write lock,
  // they would serialize behind the writer storm and this loop would crawl;
  // with MVCC they only ever load a snapshot pointer.
  constexpr int kReaders = 3;
  constexpr int kReads = 25;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.StartSession();
      for (int i = 0; i < kReads; ++i) {
        auto result = session->Query(pool[(t + i) % pool.size()]);
        ASSERT_TRUE(result.ok());
        reads_done.fetch_add(1);
      }
    });
  }
  for (std::thread& r : readers) r.join();

  // All reads finished while the writers were still running (they stop only
  // after this line) — no reader waited for the write side to go idle.
  EXPECT_TRUE(writers_running.load());
  EXPECT_EQ(reads_done.load(), static_cast<uint64_t>(kReaders) * kReads);
  writers_running.store(false);
  w1.join();
  w2.join();
}

/// Durable mode under the same pressure: the writer also rotates checkpoints,
/// which swaps WAL files while readers run. Readers never touch the store, so
/// this exercises snapshot lifetime against store GC.
TEST(ServeStressTest, DurableWriterWithCheckpointRotation) {
  std::string dir = ::testing::TempDir() + "kbt_serve_stress_store";
  if (store::Env::Default()->FileExists(dir)) {
    auto names = store::Env::Default()->ListDir(dir);
    if (names.ok()) {
      for (const std::string& n : *names) {
        Status ignored = store::Env::Default()->RemoveFile(dir + "/" + n);
        (void)ignored;
      }
    }
  }
  ServerOptions options;
  options.checkpoint_every = 3;  // Rotate continuously under load.
  auto opened =
      Server::OpenDurable(dir, StressKb(), store::StoreOptions(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Server& server = **opened;
  const std::vector<ReadRequest> pool = StressReadPool();

  std::thread writer([&] {
    for (int i = 0; i < 10; ++i) {
      auto version = server.Apply("tau{P(w" + std::to_string(i % 3) + ")}");
      ASSERT_TRUE(version.ok()) << version.status().message();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.StartSession();
      for (int i = 0; i < 20; ++i) {
        auto result = session->Query(pool[(t + 2 * i) % pool.size()]);
        ASSERT_TRUE(result.ok()) << result.status().message();
      }
    });
  }
  for (std::thread& r : readers) r.join();
  writer.join();

  // The served state equals the store's committed state, post-rotation.
  EXPECT_EQ(server.CurrentSnapshot()->kb, server.store()->kb());
  EXPECT_GE(server.store()->lsn(), 10u);
}

// ---------------------------------------------------------------------------
// Shared reads: several sessions on one bank entry, each serving its memo hits
// from its own scratch's view of the entry (exec/model_memo.h). Written for
// TSan as much as for the answers.

/// The first 16 worlds of testutil's delta kb (64 worlds, each two R cells
/// off one base).
Knowledgebase SharedReadKb() {
  std::mt19937_64 rng(20261019);
  Knowledgebase delta = testutil::DeltaKb(&rng);
  std::vector<Database> worlds;
  for (size_t i = 0; i < 16; ++i) worlds.push_back(delta.World(i));
  return *Knowledgebase::FromDatabases(std::move(worlds));
}

/// A second SAT core (a disjunction is neither a Datalog head nor a
/// definition) with orient's components, atoms and memo keys but other
/// minimal models: a view that answered for the wrong entry would hand one
/// core's models to the other.
constexpr const char* kEitherWay =
    "(forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) | S(y, x)))";

/// Core-plus-two-literals reads with a literal consequent, alternating the
/// cores (`cores` of them) and the modalities.
std::vector<ReadRequest> SharedReadPool(size_t n, int cores) {
  std::mt19937_64 rng(7);
  const char* core_texts[2] = {testutil::kOrient, kEitherWay};
  std::vector<ReadRequest> pool;
  for (size_t i = 0; i < n; ++i) {
    ReadRequest r;
    r.antecedents = {std::string(core_texts[i % static_cast<size_t>(cores)]) +
                     " & " + testutil::DeltaLiteral(&rng) + " & " +
                     testutil::DeltaLiteral(&rng)};
    r.consequent = testutil::DeltaLiteral(&rng);
    r.modality = i / 2 % 2 == 0 ? Modality::kNecessarily : Modality::kPossibly;
    pool.push_back(std::move(r));
  }
  return pool;
}

/// The plain evaluation of `request` over `kb`: no bank, no executor state.
bool PlainAnswer(const Knowledgebase& kb, const ReadRequest& request) {
  std::vector<Formula> antecedents;
  for (const std::string& text : request.antecedents) {
    antecedents.push_back(*ParseSentence(text));
  }
  StatusOr<bool> holds = NestedCounterfactual(
      kb, antecedents, *ParseSentence(request.consequent), request.modality);
  EXPECT_TRUE(holds.ok()) << holds.status().message();
  return holds.ok() && *holds;
}

/// Parameter: the server's read_threads (1: each session's pinned scratch
/// keeps its view across reads; 4: views live for one read's τ call).
class ServeStressSharedReadsTest : public ::testing::TestWithParam<size_t> {};

/// Three sessions alternate two cores on a one-entry bank, so each read
/// replaces the entry the session's view is pinned to, and a commit lands
/// while they read. Every answer equals the plain evaluation on the snapshot
/// it reports.
TEST_P(ServeStressSharedReadsTest, ReplacedEntriesAndACommitMidRun) {
  constexpr int kSessions = 3;
  constexpr int kReads = 16;
  ServerOptions options;
  options.cache_bank_capacity = 1;
  options.read_threads = GetParam();
  Server server(SharedReadKb(), options);
  const std::vector<ReadRequest> pool = SharedReadPool(24, 2);
  std::map<uint64_t, std::shared_ptr<const Snapshot>> snapshots;
  snapshots[0] = server.CurrentSnapshot();

  std::atomic<int> reads_done{0};
  std::atomic<bool> applied{false};
  std::vector<std::vector<RecordedRead>> recorded(kSessions);
  auto reader = [&](int t) {
    std::unique_ptr<Session> session = server.StartSession();
    for (int i = 0; i < kReads; ++i) {
      // Half of each session's reads come after the commit.
      while (i == kReads / 2 && !applied.load()) std::this_thread::yield();
      size_t which = static_cast<size_t>(t * 5 + i) % pool.size();
      auto result = session->Query(pool[which]);
      ASSERT_TRUE(result.ok()) << result.status().message();
      recorded[t].push_back({result->snapshot_version, which, result->holds});
      reads_done.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) threads.emplace_back(reader, t);
  while (reads_done.load() < kSessions) std::this_thread::yield();
  auto version = server.Apply("tau{P(n1) & !P(n2)}");
  ASSERT_TRUE(version.ok()) << version.status().message();
  snapshots[*version] = server.CurrentSnapshot();
  applied.store(true);
  for (std::thread& th : threads) th.join();

  std::map<std::pair<uint64_t, size_t>, bool> expected;
  size_t after_commit = 0;
  for (const std::vector<RecordedRead>& per_session : recorded) {
    ASSERT_EQ(per_session.size(), static_cast<size_t>(kReads));
    for (const RecordedRead& r : per_session) {
      ASSERT_EQ(snapshots.count(r.version), 1u);
      after_commit += r.version != 0;
      auto key = std::make_pair(r.version, r.request);
      if (expected.count(key) == 0) {
        expected[key] = PlainAnswer(snapshots[r.version]->kb, pool[r.request]);
      }
      EXPECT_EQ(r.holds, expected[key])
          << "version " << r.version << " request " << r.request;
    }
  }
  EXPECT_GE(after_commit, static_cast<size_t>(kSessions * kReads / 2));
  // Each session alternates cores, so the one-entry bank switches entries at
  // least once between any two of one session's reads.
  EXPECT_GE(server.stats().bank_misses, static_cast<uint64_t>(kReads - 1));
}

/// Three sessions on one bank entry while another thread keeps clearing the
/// entry's shared memos: views keep serving what they hold, misses refill
/// the shared memo, and every answer equals the plain evaluation. The read
/// path is the server's (Server::ExecuteRead): the bank entry's caches, a
/// pinned solver and scratch per session, the read pool at 4 threads.
TEST_P(ServeStressSharedReadsTest, MemoClearsMidRun) {
  constexpr int kSessions = 3;
  constexpr int kReads = 16;
  const Knowledgebase kb = SharedReadKb();
  const std::vector<ReadRequest> pool = SharedReadPool(24, 1);
  std::vector<bool> expected;
  for (const ReadRequest& r : pool) expected.push_back(PlainAnswer(kb, r));

  QueryCacheBank bank;
  std::unique_ptr<exec::ThreadPool> read_pool;
  if (GetParam() > 1) read_pool = std::make_unique<exec::ThreadPool>(GetParam());
  std::atomic<bool> done{false};
  std::atomic<int> clears{0};
  std::thread clearer([&] {
    while (!done.load()) {
      auto entry = bank.Get(pool[0].antecedents[0]);
      ASSERT_TRUE(entry.ok()) << entry.status().message();
      entry->caches->cnf.ClearMemos();
      clears.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  auto reader = [&](int t) {
    sat::Solver solver;
    exec::WorldScratch scratch;
    for (int i = 0; i < kReads; ++i) {
      // Half of each session's reads come after a clear.
      while (i == kReads / 2 && clears.load() < 2) std::this_thread::yield();
      size_t which = static_cast<size_t>(t * 5 + i) % pool.size();
      const ReadRequest& request = pool[which];
      auto entry = bank.Get(request.antecedents[0]);
      ASSERT_TRUE(entry.ok()) << entry.status().message();
      ChainStep step;
      step.antecedent = &entry->sentence;
      step.ground_cache = &entry->caches->ground;
      step.cnf_cache = &entry->caches->cnf;
      step.split = entry->split ? &*entry->split : nullptr;
      TauOptions options;
      options.threads = GetParam();
      options.pool = read_pool.get();
      options.solver = &solver;
      options.scratch = &scratch;
      auto holds = NestedCounterfactualExec(
          kb, {step}, *ParseSentence(request.consequent), request.modality,
          options);
      ASSERT_TRUE(holds.ok()) << holds.status().message();
      EXPECT_EQ(*holds, expected[which]) << "request " << which;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) threads.emplace_back(reader, t);
  for (std::thread& th : threads) th.join();
  done.store(true);
  clearer.join();
  EXPECT_GE(clears.load(), 2);
  EXPECT_EQ(bank.entries(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeStressSharedReadsTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace kbt::serve
