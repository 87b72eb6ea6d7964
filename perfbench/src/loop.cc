#include "loop.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace kbt::perfbench {
namespace {

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What one client thread collects in a window.
struct ClientLog {
  explicit ClientLog(double seconds) : latencies(seconds) {}
  LatencyLog latencies;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Span> spans;
};

void Merge(OpStats& into, ClientLog&& from) {
  into.logs.push_back(std::move(from.latencies));
  into.attempted += from.attempted;
  into.failed += from.failed;
}

/// Nearest-rank percentile of weighted values; sorts them.
double WeightedPercentile(std::vector<std::pair<double, double>>& values,
                          double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double total = 0.0;
  for (const auto& v : values) total += v.second;
  double seen = 0.0;
  for (const auto& v : values) {
    seen += v.second;
    if (seen >= p * total) return v.first;
  }
  return values.back().first;
}

}  // namespace

double MicrosSince(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

LatencyLog::LatencyLog(double seconds) : seconds_(seconds), bins_(kBins) {
  for (Bin& bin : bins_) bin.sample.assign(kSample, 0.0);
}

void LatencyLog::Add(double end_s, double latency_ms) {
  if (end_s > seconds_) return;
  Bin& bin = bins_[std::min(kBins - 1,
                            static_cast<size_t>(end_s / seconds_ * kBins))];
  ++bin.count;
  if (bin.kept < kSample) {
    bin.sample[bin.kept++] = latency_ms;
    return;
  }
  rng_ = Mix(rng_);
  const uint64_t slot = rng_ % bin.count;
  if (slot < kSample) bin.sample[slot] = latency_ms;
}

void LatencyLog::Append(LatencyLog&& later) {
  seconds_ += later.seconds_;
  for (Bin& bin : later.bins_) bins_.push_back(std::move(bin));
}

void Append(WindowResult* into, WindowResult&& later) {
  if (into->reads.logs.empty()) {
    *into = std::move(later);
    into->spans.clear();
    return;
  }
  into->seconds += later.seconds;
  for (size_t i = 0; i < into->reads.logs.size(); ++i) {
    into->reads.logs[i].Append(std::move(later.reads.logs[i]));
  }
  into->reads.attempted += later.reads.attempted;
  into->reads.failed += later.reads.failed;
}

size_t ReadIndex(const Workload& w, int conn, uint64_t i) {
  uint64_t stream = Mix(w.seed ^ (0xA24BAED4963EE407ull * (conn + 1)));
  return static_cast<size_t>(Mix(stream + i) % w.pool.size());
}

Traffic::Traffic(const Workload& w, uint16_t port,
                 const std::vector<char>& expected)
    : w_(w), expected_(expected) {
  net::ClientOptions options;
  // A benchmark client never retries: a refused or failed request counts.
  options.max_attempts = 1;
  for (int c = 0; c < w.read_connections; ++c) {
    readers_.push_back(std::make_unique<net::Client>(
        net::Client::Dial("127.0.0.1", port, options)));
  }
}

Status Traffic::Warmup() {
  std::vector<Status> errors(readers_.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < readers_.size(); ++c) {
    threads.emplace_back([this, c, &errors] {
      for (size_t i = 0; i < w_.warmup_reads && errors[c].ok(); ++i) {
        const ReadSpec& r =
            w_.pool[(c * w_.warmup_reads + i) % w_.pool.size()];
        errors[c] = readers_[c]
                        ->Read(r.antecedents, r.consequent, r.necessarily)
                        .status();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : errors) KBT_RETURN_IF_ERROR(s);
  return Status::OK();
}

WindowResult Traffic::Run(double seconds, bool traced,
                          Clock::time_point epoch) {
  std::vector<ClientLog> read_logs(readers_.size(), ClientLog(seconds));

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto reader = [&](int conn, ClientLog* log) {
    net::Client& client = *readers_[conn];
    for (uint64_t i = 0; Clock::now() < deadline; ++i) {
      const size_t index = ReadIndex(w_, conn, i);
      const ReadSpec& r = w_.pool[index];
      const Clock::time_point t0 = Clock::now();
      StatusOr<net::ClientReadResult> result =
          client.Read(r.antecedents, r.consequent, r.necessarily);
      const Clock::time_point t1 = Clock::now();
      ++log->attempted;
      if (!result.ok() || result->holds != (expected_[index] != 0)) {
        ++log->failed;
        continue;
      }
      log->latencies.Add(MillisBetween(start, t1) / 1000.0,
                         MillisBetween(t0, t1));
      if (traced) {
        log->spans.push_back({0, 0, 0, "client.read", MicrosSince(epoch, t0),
                              MicrosSince(epoch, t1)});
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < readers_.size(); ++c) {
    threads.emplace_back(reader, static_cast<int>(c), &read_logs[c]);
  }
  for (std::thread& t : threads) t.join();

  WindowResult result;
  result.seconds = seconds;
  auto take_spans = [&result](std::vector<Span>& spans) {
    for (Span& s : spans) {
      s.id = result.spans.size() + 1;
      s.request = s.id;
      result.spans.push_back(s);
    }
  };
  for (ClientLog& log : read_logs) {
    take_spans(log.spans);
    Merge(result.reads, std::move(log));
  }
  return result;
}

Summary Summarize(const OpStats& ops) {
  Summary summary;
  if (ops.logs.empty()) return summary;
  const size_t bins = ops.logs[0].bins().size();
  for (const LatencyLog& log : ops.logs) {
    for (const LatencyLog::Bin& bin : log.bins()) summary.samples += bin.count;
  }
  summary.slices = std::clamp<size_t>(summary.samples / 2000, 1, 20);
  const double slice_s = ops.logs[0].seconds() / summary.slices;
  std::vector<double> p50, p99, rate;
  for (size_t s = 0; s < summary.slices; ++s) {
    // The slice's latencies, each weighted by the operations it stands for.
    std::vector<std::pair<double, double>> values;
    uint64_t count = 0;
    for (size_t b = s * bins / summary.slices;
         b < (s + 1) * bins / summary.slices; ++b) {
      for (const LatencyLog& log : ops.logs) {
        const LatencyLog::Bin& bin = log.bins()[b];
        count += bin.count;
        for (size_t i = 0; i < bin.kept; ++i) {
          values.push_back(
              {bin.sample[i], static_cast<double>(bin.count) / bin.kept});
        }
      }
    }
    rate.push_back(count / slice_s);
    p50.push_back(WeightedPercentile(values, 0.5));
    p99.push_back(WeightedPercentile(values, 0.99));
  }
  summary.p50_ms = Median(p50);
  summary.p99_ms = Median(p99);
  summary.per_s = Median(rate);
  return summary;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  auto mid = values.begin() + values.size() / 2;
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  return (*mid + *std::max_element(values.begin(), mid)) / 2.0;
}

}  // namespace kbt::perfbench
