/// \file
/// kbt_perfbench: the benchmark of record. One run measures one workload
/// against the real stack (serve::Server behind net::NetServer on localhost
/// TCP), checks every answer, and prints as its last line one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end ones, measured with tracing
/// off. With --trace 1 the same untimed set-up and timed window run first,
/// then a shorter traced window and the call ladder (ladder.h, which also
/// drives a durable semi-sync repl::Primary and its repl::Follower); the
/// metrics are the per-layer ones and the spans go to
/// <out-dir>/spans-<workload>.jsonl.
///
/// Usage: kbt_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                      [--out-dir DIR] [--rev REV] [--flip-expected]
///
/// --flip-expected inverts one expected answer; the run must then report a
/// failure and exit nonzero (the benchmark's self-test).
/// Exit codes: 0 = all answers correct, 1 = some answer wrong (the result
/// line is still printed), 2 = usage or set-up error (no result line).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "ladder.h"
#include "loop.h"
#include "stack.h"
#include "workload.h"

namespace kbt::perfbench {
namespace {

/// Rounds of set-ups and window shares per run (see Main); five shares of
/// LatencyLog::kBins bins give the window 200 latency bins.
constexpr int kRounds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string rev = "unknown";
  bool flip_expected = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--flip-expected") {
      args->flip_expected = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--rev") {
      args->rev = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// The reference answers for the read workloads: every pool request
/// evaluated by in-process sessions of a separate server with the cache
/// bank off, on `threads` threads.
StatusOr<std::vector<char>> ExpectedAnswers(const Workload& w,
                                            unsigned threads) {
  serve::ServerOptions options;
  options.use_cache_bank = false;
  serve::Server server(w.kb, options);
  std::vector<char> answers(w.pool.size());
  std::atomic<size_t> next{0};
  std::vector<Status> errors(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<serve::Session> session = server.StartSession();
      for (size_t i = next++; i < w.pool.size(); i = next++) {
        StatusOr<serve::ReadResult> r = session->Query(ToRequest(w.pool[i]));
        if (!r.ok()) {
          errors[t] = r.status();
          return;
        }
        answers[i] = r->holds ? 1 : 0;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const Status& s : errors) KBT_RETURN_IF_ERROR(s);
  return answers;
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: it survives exec, so it would report the launching
/// process's footprint (a Python launcher's, say) whenever that was larger.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintProvenance(const Args& args, const Workload& w, unsigned nproc) {
  std::string params;
  for (const auto& [name, value] : w.params) {
    if (!params.empty()) params += ", ";
    params += JsonString(name) + ": " + JsonString(value);
  }
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"rev\": %s, \"params\": {%s}}\n",
      JsonString(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace, nproc,
      JsonString(KBT_PERFBENCH_COMPILER).c_str(),
      JsonString(KBT_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.rev).c_str(), params.c_str());
}

/// Appends `spans` to `into`, renumbering ids and request ids past the ones
/// already there.
void AppendSpans(std::vector<Span>* into, const std::vector<Span>& spans) {
  uint64_t id_base = 0, request_base = 0;
  for (const Span& s : *into) {
    id_base = std::max(id_base, s.id);
    request_base = std::max(request_base, s.request);
  }
  for (Span s : spans) {
    s.id += id_base;
    if (s.parent != 0) s.parent += id_base;
    s.request += request_base;
    into->push_back(s);
  }
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : spans) {
    ok = std::fprintf(f,
                      "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                      "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": "
                      "%.3f}\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request), s.name,
                      s.start_us, s.end_us) >= 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "kbt_perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kbt_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--rev REV] [--flip-expected]\n");
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  StatusOr<Workload> reference = MakeWorkload(args.workload, args.seed, nproc);
  if (!reference.ok()) return Fail("workload", reference.status());
  PrintProvenance(args, *reference, nproc);
  std::fflush(stdout);

  const Clock::time_point epoch = Clock::now();
  const std::string run_dir =
      args.out_dir + "/run-" + args.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);

  // Reference answers, computed before any server starts and off the clock.
  StatusOr<std::vector<char>> answers = ExpectedAnswers(*reference, nproc);
  if (!answers.ok()) return Fail("reference answers", answers.status());
  std::vector<char> expected = std::move(*answers);
  if (args.flip_expected) expected[ReadIndex(*reference, 0, 0)] ^= 1;

  // Set-up (build the kb, start the server, connect and run the warm-up
  // pass) and the timed window, tracing off, interleaved in kRounds rounds:
  // each round sets up w.setups_per_round times, then runs its share of the
  // window on the stack its last set-up started. A shared host's load drifts
  // over tens of seconds; interleaving makes set-up and window sample the
  // same stretch of it rather than set-up only its first seconds.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Traffic> traffic;
  WindowResult window;
  uint64_t bank_hits = 0, bank_lookups = 0;
  uint64_t requests_failed = 0, requests_rejected = 0;
  double names_growth = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < reference->setups_per_round; ++i) {
      traffic.reset();
      stack.reset();
      const Clock::time_point t0 = Clock::now();
      StatusOr<Workload> built = MakeWorkload(args.workload, args.seed, nproc);
      if (!built.ok()) return Fail("workload", built.status());
      w = std::make_unique<Workload>(std::move(*built));
      StatusOr<std::unique_ptr<Stack>> started =
          Stack::Start(w->kb, StackConfig());
      if (!started.ok()) return Fail("start", started.status());
      stack = std::move(*started);
      traffic = std::make_unique<Traffic>(*w, stack->port(), expected);
      Status warm = traffic->Warmup();
      if (!warm.ok()) return Fail("warm-up", warm);
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }

    const serve::Server::ServerStats serve_before = stack->server().stats();
    const net::NetServer::NetStats net_before = stack->net().net_stats();
    const size_t names_before = Names().size();
    WindowResult part =
        traffic->Run(args.seconds / kRounds, /*traced=*/false, epoch);
    names_growth += static_cast<double>(Names().size()) -
                    static_cast<double>(names_before);
    const serve::Server::ServerStats serve_after = stack->server().stats();
    const net::NetServer::NetStats net_after = stack->net().net_stats();
    bank_hits += serve_after.bank_hits - serve_before.bank_hits;
    bank_lookups += serve_after.bank_hits - serve_before.bank_hits +
                    serve_after.bank_misses - serve_before.bank_misses;
    requests_failed += net_after.requests_failed - net_before.requests_failed;
    requests_rejected +=
        net_after.requests_rejected - net_before.requests_rejected;
    Append(&window, std::move(part));
  }

  uint64_t attempted = window.reads.attempted;
  uint64_t failed = window.reads.failed;

  // Traced pass: the same traffic with a span per operation (a quarter of
  // the window: it only has to show the tracing overhead), then the ladder.
  std::vector<Metric> layers;
  double read_p50_overhead_ms = 0.0;
  if (args.trace == 1) {
    WindowResult traced =
        traffic->Run(std::max(1.0, args.seconds / 4), /*traced=*/true, epoch);
    attempted += traced.reads.attempted;
    failed += traced.reads.failed;
    read_p50_overhead_ms =
        Summarize(traced.reads).p50_ms - Summarize(window.reads).p50_ms;

    StatusOr<LadderResult> ladder =
        RunLadder(*w, expected, run_dir + "/ladder", epoch);
    if (!ladder.ok()) return Fail("call ladder", ladder.status());
    attempted += ladder->attempted;
    failed += ladder->failed;
    layers = std::move(ladder->metrics);

    std::vector<Span> spans = std::move(traced.spans);
    AppendSpans(&spans, ladder->spans);
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string spans_path =
        args.out_dir + "/spans-" + args.workload + ".jsonl";
    if (!WriteSpans(spans_path, spans)) {
      return Fail("spans", Status::IOError("cannot write " + spans_path));
    }
    std::printf("spans %zu written to %s\n", spans.size(), spans_path.c_str());
  }

  const size_t kb_bytes = stack->server().CurrentSnapshot()->kb.ApproxHeapBytes();
  traffic.reset();
  stack.reset();
  std::filesystem::remove_all(run_dir, ec);

  // End-to-end metrics: client-observed reads.
  const Summary reads = Summarize(window.reads);
  const double failed_frac = static_cast<double>(failed) / attempted;
  const double setup_median_s = Median(setup_s);
  const double peak_rss_mb = PeakRssMb();

  std::printf(
      "workload %s: %zu reads in %.3f s; percentiles and rates are medians "
      "over %zu slices; setup_s is the median of %zu set-ups\n",
      w->name.c_str(), reads.samples, window.seconds, reads.slices,
      setup_s.size());
  auto report = [](const char* name, double value, const char* unit) {
    std::printf("  %-28s %14.6f %s\n", name, value, unit);
  };
  report("read_p50_ms", reads.p50_ms, "ms");
  report("read_p99_ms", reads.p99_ms, "ms");
  report("read_per_s", reads.per_s, "1/s");
  report("failed_frac", failed_frac, "ratio");
  report("setup_s", setup_median_s, "s");
  report("peak_rss_mb", peak_rss_mb, "MB");

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"read_p50_ms", reads.p50_ms, "ms"},
        {"setup_s", setup_median_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    metrics = std::move(layers);
    metrics.push_back({"serve.bank_hit_frac",
                       bank_lookups > 0
                           ? static_cast<double>(bank_hits) / bank_lookups
                           : 0.0,
                       "ratio"});
    metrics.push_back({"net.requests_failed",
                       static_cast<double>(requests_failed), "count"});
    metrics.push_back({"net.requests_rejected",
                       static_cast<double>(requests_rejected), "count"});
    metrics.push_back({"base.interned_names_growth", names_growth, "count"});
    metrics.push_back({"rel.kb_bytes", static_cast<double>(kb_bytes), "B"});
    metrics.push_back(
        {"trace.read_p50_overhead_ms", read_p50_overhead_ms, "ms"});
    for (const Metric& m : metrics) report(m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kbt::perfbench

int main(int argc, char** argv) { return kbt::perfbench::Main(argc, argv); }
