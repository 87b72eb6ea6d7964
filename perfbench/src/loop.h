#ifndef KBT_PERFBENCH_LOOP_H_
#define KBT_PERFBENCH_LOOP_H_

/// \file
/// Closed-loop client traffic over localhost TCP: every client sends its next
/// request only after the reply to the previous one, as kbt_client, the shell
/// and followers do. Also the benchmark's span record, shared with the call
/// ladder.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client.h"
#include "workload.h"

namespace kbt::perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call: spans of one request share `request`; `parent` is the
/// span that caused this one (0 = none). Times are microseconds since the
/// run's epoch.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

double MicrosSince(Clock::time_point epoch, Clock::time_point t);

/// One client thread's latencies over a window, in memory fixed up front so
/// that the benchmark's own footprint does not grow with the program's
/// speed (peak_rss_mb measures the program). The window is cut into kBins
/// equal time bins; each keeps an exact count of the operations that ended
/// in it and a uniform sample (reservoir) of at most kSample latencies.
/// A run's five window shares (main.cc) append to 200 bins.
class LatencyLog {
 public:
  static constexpr size_t kBins = 40;
  static constexpr size_t kSample = 256;

  explicit LatencyLog(double seconds);

  /// Adds `later`'s bins after this log's, as if it had run on without a
  /// gap. Add may not be called afterwards.
  void Append(LatencyLog&& later);

  /// Records an operation that ended `end_s` seconds into the window; ones
  /// ending after the window are not counted.
  void Add(double end_s, double latency_ms);

  struct Bin {
    uint64_t count = 0;
    size_t kept = 0;  ///< Valid entries of `sample`.
    std::vector<double> sample;
  };
  const std::vector<Bin>& bins() const { return bins_; }
  double seconds() const { return seconds_; }

 private:
  double seconds_;
  std::vector<Bin> bins_;
  uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

/// Completed operations of one kind in a window.
struct OpStats {
  std::vector<LatencyLog> logs;  ///< One per client thread.
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Errors and wrong answers.
};

/// Latency and throughput of one kind of operation over a window. The bins
/// are grouped into equal slices of at least 2000 operations each (at most
/// 20), so each slice's p99 has at least twenty operations beyond it; every
/// figure is the median over the slices, which keeps a passing stall on a
/// shared host from moving it.
struct Summary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double per_s = 0.0;
  uint64_t samples = 0;  ///< Operations that ended inside the window.
  size_t slices = 0;
};
Summary Summarize(const OpStats& ops);

struct WindowResult {
  double seconds = 0.0;
  OpStats reads;
  std::vector<Span> spans;  ///< One per operation when traced.
};

/// Appends `later`, a window run after `into` with the same connections
/// count, as if it had followed without a gap: each thread's log gains its
/// bins. Spans are not kept.
void Append(WindowResult* into, WindowResult&& later);

/// Pool index of connection `conn`'s `i`-th read in a timed window.
size_t ReadIndex(const Workload& w, int conn, uint64_t i);

/// The workload's clients, connected once and kept across the warm-up and
/// the timed windows.
class Traffic {
 public:
  /// `expected` (borrowed) holds the answer per pool index; reads are
  /// checked against it as they return.
  Traffic(const Workload& w, uint16_t port, const std::vector<char>& expected);

  /// The untimed pass: every connection sends its warm-up reads at once,
  /// which fills the cache bank.
  Status Warmup();

  /// Runs every client for `seconds`. `traced` records one span per
  /// operation, timed against `epoch`.
  WindowResult Run(double seconds, bool traced, Clock::time_point epoch);

 private:
  const Workload& w_;
  const std::vector<char>& expected_;
  std::vector<std::unique_ptr<net::Client>> readers_;
};

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

}  // namespace kbt::perfbench

#endif  // KBT_PERFBENCH_LOOP_H_
