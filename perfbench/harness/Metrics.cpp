#include "Metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>

#include <malloc.h>
#include <sys/resource.h>

namespace perfbench {

double percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::clamp(P, 0.0, 100.0) / 100.0 *
                static_cast<double>(Samples.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(std::floor(Rank));
  std::size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Samples[Lo] + (Samples[Hi] - Samples[Lo]) * Frac;
}

double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 50);
}

SliceMedians sliceMedians(const std::vector<double> &EndSeconds,
                          const std::vector<double> &Ms, double Seconds,
                          int Slices) {
  SliceMedians Out;
  if (Ms.empty() || Seconds <= 0 || Slices < 1)
    return Out;
  std::vector<std::vector<double>> BySlice(static_cast<std::size_t>(Slices));
  for (std::size_t I = 0; I < Ms.size(); ++I) {
    const double At = EndSeconds[I] / Seconds * Slices;
    const int K = At >= Slices ? Slices - 1 : std::max(0, static_cast<int>(At));
    BySlice[static_cast<std::size_t>(K)].push_back(Ms[I]);
  }
  std::vector<double> P50, P99;
  for (const std::vector<double> &S : BySlice) {
    if (S.empty())
      continue;
    Out.Rates.push_back(static_cast<double>(S.size()) * Slices / Seconds);
    P50.push_back(percentile(S, 50));
    P99.push_back(percentile(S, 99));
  }
  Out.JobsPerS = median(Out.Rates);
  Out.P50Ms = median(P50);
  Out.P99Ms = median(P99);
  return Out;
}

int Trace::begin(std::uint32_t Job, std::string Name, int Parent) {
  Span S;
  S.Job = Job;
  S.Name = std::move(Name);
  S.Parent = Parent;
  S.Start = secondsBetween(Epoch, Clock::now());
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

void Trace::end(int Id) {
  Spans[static_cast<std::size_t>(Id)].End = secondsBetween(Epoch, Clock::now());
}

int Trace::add(Span S) {
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size() - 1);
}

std::vector<double> Trace::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<std::size_t>(S.Parent)] -= S.End - S.Start;
  return Self;
}

std::map<std::string, Trace::LayerTotal> Trace::selfTimeByName() const {
  std::map<std::string, LayerTotal> Out;
  std::map<std::string, std::uint32_t> LastJob;
  std::vector<double> Self = selfTimes();
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    LayerTotal &L = Out[Spans[I].Name];
    L.Self += Self[I];
    auto [It, New] = LastJob.try_emplace(Spans[I].Name, Spans[I].Job);
    if (New || It->second != Spans[I].Job) {
      ++L.Jobs;
      It->second = Spans[I].Job;
    }
  }
  return Out;
}

std::string formatNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  if (Ec != std::errc())
    return "0";
  return std::string(Buf, End);
}

std::string Result::toJSON() const {
  // Numbers are spliced in by hand so each keeps its shortest exact form.
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (std::size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (I)
      Out += ", ";
    Out += "\"" + M.Name + "\": {\"value\": " + formatNumber(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

void resetPeakRSS() {
  // Memory freed by set-up (earlier set-up repetitions, a previous
  // stream) would otherwise stay resident in the allocator's arenas and
  // set the baseline. Then, on Linux, writing 5 to clear_refs resets
  // VmHWM to the current RSS.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRSSMiB() {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  struct rusage RU {};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB
}

} // namespace perfbench
