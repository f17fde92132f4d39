// Observation-only instruments the benchmark places around the simulator's
// public seams: host-time spans, an AccessStream decorator, a
// PrefetchPolicy decorator (injected through MachineConfig::policy_override)
// and readers for the simulator's own histograms and process resources.
// None of them changes what the simulator does; the benchmark checks that
// by comparing the simulated fingerprint of traced and untraced runs.
#ifndef LEAP_BENCHMARK_PROBES_H_
#define LEAP_BENCHMARK_PROBES_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "src/prefetch/prefetcher.h"
#include "src/stats/histogram.h"
#include "src/workload/access_stream.h"

namespace leapbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// CPU time of the whole process (every thread), in seconds.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Peak resident memory of this program image, from VmHWM. getrusage's
// ru_maxrss is not used: it keeps the high-water mark of the process
// image that exec'd us (the Python launcher), which can be larger.
inline double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// Host time accumulated over the calls of one kind.
struct Span {
  uint64_t calls = 0;
  uint64_t ns = 0;

  void AddSince(uint64_t start_ns) {
    ++calls;
    ns += NowNs() - start_ns;
  }
  void Merge(const Span& other) {
    calls += other.calls;
    ns += other.ns;
  }
  double MeanNs() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

// Times every Next() of the wrapped stream: the input-generation cost that
// host_ns_per_access must not be dominated by.
class TimedStream : public leap::AccessStream {
 public:
  explicit TimedStream(leap::AccessStream& inner) : inner_(inner) {}

  leap::MemOp Next(leap::Rng& rng) override {
    const uint64_t start = NowNs();
    const leap::MemOp op = inner_.Next(rng);
    next_.AddSince(start);
    return op;
  }
  size_t footprint_pages() const override { return inner_.footprint_pages(); }
  std::string name() const override { return inner_.name(); }

  const Span& next() const { return next_; }

 private:
  leap::AccessStream& inner_;
  Span next_;
};

// Eight independent xorshift chains of kProbeSteps steps each: a fixed
// piece of scalar ALU work whose host time tracks how fast the core runs
// at that moment. On a shared host that speed swings by half or more over
// seconds to minutes with what other guests run on the same physical
// core, and the simulator's speed swings with it.
constexpr int kProbeSteps = 400;

[[gnu::noinline]] inline uint64_t AluProbe(uint64_t seed) {
  uint64_t x[8];
  for (int j = 0; j < 8; ++j) {
    x[j] = seed + static_cast<uint64_t>(j) + 1;
  }
  for (int i = 0; i < kProbeSteps; ++i) {
    for (uint64_t& v : x) {
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
    }
  }
  return x[0] ^ x[1] ^ x[2] ^ x[3] ^ x[4] ^ x[5] ^ x[6] ^ x[7];
}

// Host time of one AluProbe on the reference core: 0.5 ns per xorshift
// step, about the fastest a 4-vCPU Xeon KVM guest ran it. Host times are
// reported as they would read on that core (see README.md, Noise).
constexpr double kReferenceProbeNs = 0.5 * 8 * kProbeSteps;

// Runs AluProbe at every `every`-th Next() of the wrapped stream, so the
// core's speed is sampled all through a run, alongside the work it
// scales. The probes add about 0.03% to a run's host time.
class ProbedStream : public leap::AccessStream {
 public:
  ProbedStream(leap::AccessStream& inner, uint64_t every)
      : inner_(inner), every_(std::max<uint64_t>(every, 1)) {}

  leap::MemOp Next(leap::Rng& rng) override {
    if (++calls_ % every_ == 0) {
      const uint64_t start = NowNs();
      sink_ ^= AluProbe(calls_);
      probes_.AddSince(start);
    }
    return inner_.Next(rng);
  }
  size_t footprint_pages() const override { return inner_.footprint_pages(); }
  std::string name() const override { return inner_.name(); }

  const Span& probes() const { return probes_; }

 private:
  leap::AccessStream& inner_;
  uint64_t every_;
  uint64_t calls_ = 0;
  uint64_t sink_ = 0;
  Span probes_;
};

// Owns a real policy and forwards every call to it, timing OnFault apart
// from the feedback callbacks and tallying the feedback stream.
class TimedPolicy : public leap::PrefetchPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<leap::PrefetchPolicy> inner)
      : inner_(std::move(inner)) {}

  leap::CandidateVec OnFault(const leap::FaultContext& ctx) override {
    const uint64_t start = NowNs();
    leap::CandidateVec out = inner_->OnFault(ctx);
    on_fault_.AddSince(start);
    candidates_ += out.size();
    return out;
  }
  void OnCacheAccess(leap::Pid pid, leap::SwapSlot slot) override {
    const uint64_t start = NowNs();
    inner_->OnCacheAccess(pid, slot);
    feedback_.AddSince(start);
  }
  void OnPrefetchIssued(leap::Pid pid, leap::SwapSlot slot,
                        leap::SimTimeNs now) override {
    const uint64_t start = NowNs();
    inner_->OnPrefetchIssued(pid, slot, now);
    feedback_.AddSince(start);
    ++issued_;
  }
  void OnPrefetchComplete(leap::Pid pid, leap::SwapSlot slot,
                          leap::SimTimeNs latency) override {
    const uint64_t start = NowNs();
    inner_->OnPrefetchComplete(pid, slot, latency);
    feedback_.AddSince(start);
  }
  void OnPrefetchHit(leap::Pid pid, leap::SwapSlot slot,
                     leap::SimTimeNs timeliness) override {
    const uint64_t start = NowNs();
    inner_->OnPrefetchHit(pid, slot, timeliness);
    feedback_.AddSince(start);
    ++hits_;
  }
  void OnPrefetchDropped(leap::Pid pid, leap::SwapSlot slot) override {
    const uint64_t start = NowNs();
    inner_->OnPrefetchDropped(pid, slot);
    feedback_.AddSince(start);
  }
  std::string_view name() const override { return inner_->name(); }

  const Span& on_fault() const { return on_fault_; }
  const Span& feedback() const { return feedback_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t issued() const { return issued_; }
  uint64_t hits() const { return hits_; }

 private:
  std::unique_ptr<leap::PrefetchPolicy> inner_;
  Span on_fault_;
  Span feedback_;
  uint64_t candidates_ = 0;
  uint64_t issued_ = 0;
  uint64_t hits_ = 0;
};

// Quantile q of `hist`, interpolated linearly inside the bucket that holds
// the target rank. Histogram::Percentile returns bucket midpoints, so two
// distributions that differ by less than a bucket (about 1.6%) read the
// same; interpolating keeps the estimate continuous in the data. Assumes
// the default geometry (6 sub-bucket bits): values below 64 have their own
// bucket, and above that each power of two splits into 64 equal buckets.
inline double InterpolatedPercentile(const leap::Histogram& hist, double q) {
  const uint64_t count = hist.count();
  if (count == 0) {
    return 0.0;
  }
  // Samples recorded at or below v's bucket (inclusive of the whole bucket).
  auto cumulative = [&](uint64_t v) {
    return static_cast<double>(std::llround(hist.FractionAtOrBelow(v) *
                                            static_cast<double>(count)));
  };
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  // Smallest recorded-range value whose bucket reaches the target rank.
  uint64_t lo = hist.Min();
  uint64_t hi = hist.Max();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cumulative(mid) >= rank) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  uint64_t bucket_lo = lo;
  uint64_t width = 1;
  if (lo >= 64) {
    const int shift = (63 - std::countl_zero(lo)) - 6;
    bucket_lo = (lo >> shift) << shift;
    width = uint64_t{1} << shift;
  }
  const double below = bucket_lo == 0 ? 0.0 : cumulative(bucket_lo - 1);
  const double in_bucket = cumulative(bucket_lo) - below;
  const double fraction =
      in_bucket <= 0.0 ? 0.0 : std::clamp((rank - below) / in_bucket, 0.0, 1.0);
  const double value =
      static_cast<double>(bucket_lo) + fraction * static_cast<double>(width);
  return std::clamp(value, static_cast<double>(hist.Min()),
                    static_cast<double>(hist.Max()));
}

}  // namespace leapbench

#endif  // LEAP_BENCHMARK_PROBES_H_
