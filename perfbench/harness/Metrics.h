//===--- Metrics.h - Percentiles, spans and the result line -----*- C++ -*-===//
//
// The benchmark's measurement vocabulary:
//
//  * percentile() over latency samples;
//  * a Trace of spans (job, name, parent, start, end) recorded from the
//    benchmark's own calls into each layer, kept in memory, with a layer's
//    self time defined as its duration minus the part its child spans
//    cover;
//  * Metric / Result, rendered as the one-line JSON object that ends the
//    benchmark's standard output.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// The \p P-th percentile (0..100) of \p Samples by linear interpolation
/// between closest ranks (rank = P/100 * (n-1)). 0 for no samples.
double percentile(std::vector<double> Samples, double P);

/// Median of \p Samples (percentile 50).
double median(std::vector<double> Samples);

/// Throughput and latency of a timed region, each the median over equal
/// slices of the region, so that load from outside the benchmark that
/// slows a few slices of a run moves none of them.
struct SliceMedians {
  double JobsPerS = 0; ///< jobs that ended in the slice / slice length
  double P50Ms = 0;    ///< the slice's median job time
  double P99Ms = 0;    ///< the slice's 99th-percentile job time
  std::vector<double> Rates; ///< jobs/s of each slice, in order (reports)
};

/// Cuts [0, \p Seconds) into \p Slices equal slices. Job I ended
/// \p EndSeconds[I] into the region and took \p Ms[I] milliseconds; a job
/// that ends after the region counts in the last slice. Slices in which
/// no job ended (one job spans them) are left out.
SliceMedians sliceMedians(const std::vector<double> &EndSeconds,
                          const std::vector<double> &Ms, double Seconds,
                          int Slices);

/// One timed call into a layer. Parent is an index into the owning
/// Trace's span vector, or -1 for a job's root span.
struct Span {
  std::uint32_t Job = 0;
  std::string Name;
  int Parent = -1;
  double Start = 0; ///< seconds since the trace's epoch
  double End = 0;
};

/// In-memory span recorder. Spans of one job share its Job id; nesting is
/// explicit through the parent index returned by begin().
class Trace {
public:
  Trace() : Epoch(Clock::now()) {}

  /// Opens a span and returns its index.
  int begin(std::uint32_t Job, std::string Name, int Parent);
  /// Closes span \p Id now.
  void end(int Id);
  /// Records an already-measured span (tests; spans are closed).
  int add(Span S);

  [[nodiscard]] const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span, indexed like spans(): its duration minus
  /// the durations of its direct children.
  [[nodiscard]] std::vector<double> selfTimes() const;

  struct LayerTotal {
    double Self = 0;       ///< seconds, summed over all spans of the name
    std::uint64_t Jobs = 0; ///< distinct jobs with a span of the name
  };
  /// Self time per span name. Spans of one job are recorded together, so
  /// a job is counted once per name.
  [[nodiscard]] std::map<std::string, LayerTotal> selfTimeByName() const;

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
public:
  ScopedSpan(Trace *T, std::uint32_t Job, std::string Name, int Parent)
      : T(T), Id(T ? T->begin(Job, std::move(Name), Parent) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  [[nodiscard]] int id() const { return Id; }

private:
  Trace *T;
  int Id;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one benchmark invocation prints as its last line.
struct Result {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
  [[nodiscard]] std::string toJSON() const;
};

/// Shortest round-trip decimal form of \p V (all its digits, no rounding).
std::string formatNumber(double V);

/// Restarts peak-RSS tracking from the current resident set size, so
/// that peakRSSMiB() describes only what runs after the call.
void resetPeakRSS();

/// Peak resident set size of this process (since the last
/// resetPeakRSS()), in MiB.
double peakRSSMiB();

} // namespace perfbench

#endif // PERFBENCH_METRICS_H
