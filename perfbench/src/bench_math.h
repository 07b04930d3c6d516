// The benchmark's own arithmetic, kept free of any StreamWorks type so the
// rules it applies (which percentile a sample supports, when a backlog is
// growing, which ladder rung is sustainable, how much of a span its
// children cover) can be tested on synthetic timings.
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is one or two outliers, not a rank.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank index of percentile `p` (0 < p < 1) in `n` sorted samples.
inline size_t RankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
}

/// Samples needed before percentile `p` has kMinSamplesBeyond beyond it.
inline size_t MinSamplesFor(double p) {
  size_t n = kMinSamplesBeyond + 1;
  while (n - RankIndex(n, p) - 1 < kMinSamplesBeyond) ++n;
  return n;
}

/// Nearest-rank percentile of `samples` (any order), or nullopt when the
/// sample is too small to have kMinSamplesBeyond values beyond the rank.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t idx = RankIndex(n, p);
  if (n - idx - 1 < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The ladder's tail statistic: percentile `p` when the sample supports
/// it, else the highest percentile that still has kMinSamplesBeyond
/// samples beyond it; nullopt when not even that exists.
inline std::optional<double> TailPercentile(std::vector<double> samples,
                                            double p) {
  if (auto v = Percentile(samples, p)) return v;
  if (samples.size() <= kMinSamplesBeyond) return std::nullopt;
  const size_t idx = samples.size() - kMinSamplesBeyond - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

/// Percentile `p` as the median over consecutive windows of a time-ordered
/// sample: the sample is cut into as many equal windows (at most
/// `max_windows`) as still each support `p`, and the windows' percentiles'
/// median is returned. One burst of outside interference then moves one
/// window, not the result. With too few samples for even one window,
/// nullopt.
inline std::optional<double> WindowedPercentile(
    const std::vector<double>& time_ordered, double p, size_t max_windows) {
  const size_t need = MinSamplesFor(p);
  const size_t k = std::min(max_windows, time_ordered.size() / need);
  if (k == 0) return std::nullopt;
  std::vector<double> per_window;
  const size_t n = time_ordered.size();
  for (size_t w = 0; w < k; ++w) {
    const std::vector<double> window(
        time_ordered.begin() + static_cast<ptrdiff_t>(n * w / k),
        time_ordered.begin() + static_cast<ptrdiff_t>(n * (w + 1) / k));
    per_window.push_back(*Percentile(window, p));
  }
  return Median(per_window);
}

/// Open-loop schedule: edge `i` of a rung started at `t0_ns` at `rate`
/// edges/s is due at t0 + i / rate, whether or not the system kept up.
inline int64_t DueNs(int64_t t0_ns, double rate, size_t i) {
  return t0_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
}

/// How many edges of the rung are due at `now_ns` (the edge due exactly
/// at now counts).
inline size_t DueCount(int64_t t0_ns, double rate, int64_t now_ns,
                       size_t total) {
  if (now_ns < t0_ns) return 0;
  const double due =
      std::floor(static_cast<double>(now_ns - t0_ns) * rate / 1e9) + 1;
  return due >= static_cast<double>(total) ? total
                                           : static_cast<size_t>(due);
}

/// Latency of one delivered result, measured from when its newest input
/// was due — not from when the generator got round to sending it, which
/// would hide every stall the system imposed on later inputs.
inline double LatencyMs(int64_t due_ns, int64_t received_ns) {
  return static_cast<double>(received_ns - due_ns) / 1e6;
}

struct BacklogSample {
  double t_s = 0;       ///< Seconds since the rung started.
  double backlog = 0;   ///< Edges due but not yet processed.
};

/// A backlog grows when, after the first fifth of the rung (the pipeline
/// filling up), its low point over the last third exceeds its low point
/// over the first third by more than 10% of the input offered in between,
/// and by more than 50 ms worth of input. Comparing low points, not end
/// points or means, keeps a system that processes in coarse steps (a
/// sawtooth backlog, as an epoch barrier makes) from counting as falling
/// behind whatever phase of the sawtooth a third happens to cover, and
/// ignores a transient spike; a deep but constant queue does not count
/// either.
inline bool BacklogGrows(const std::vector<BacklogSample>& samples,
                         double rate) {
  if (samples.empty()) return false;
  const double warm = 0.2 * samples.back().t_s;
  std::vector<BacklogSample> steady;
  for (const BacklogSample& s : samples) {
    if (s.t_s >= warm) steady.push_back(s);
  }
  const size_t n = steady.size();
  const size_t third = n / 3;
  if (third == 0) return false;
  double first = steady[0].backlog, last = steady[n - 1].backlog;
  double t_first = 0, t_last = 0;
  for (size_t i = 0; i < third; ++i) {
    first = std::min(first, steady[i].backlog);
    t_first += steady[i].t_s;
    last = std::min(last, steady[n - 1 - i].backlog);
    t_last += steady[n - 1 - i].t_s;
  }
  const double growth = last - first;
  const double span_s = (t_last - t_first) / static_cast<double>(third);
  return growth > 0.10 * rate * span_s && growth > 0.05 * rate;
}

/// What the ladder judges of one open-loop piece of a rung.
struct PieceOutcome {
  double offered_eps = 0;
  /// Edges over the time the sender took, from the piece's start to the
  /// return of its last send.
  double achieved_eps = 0;
  /// TailPercentile(latencies, 0.99); nullopt: too few samples.
  std::optional<double> tail_ms;
  bool backlog_grew = false;
  bool failed_ops = false;  ///< Any refused, dropped or missing operation.
};

/// A sender that cannot keep to the schedule is itself a backlog: a piece
/// whose edges went out at less than this share of the offered rate fell
/// behind, whatever the backlog samples showed. It matters when sending
/// blocks until the system has processed the edges, as a synchronous
/// feeder does, and when the system slows in the last third of a piece,
/// where the low-point test cannot see it. The 10% allowance absorbs one
/// processing stall of a few tens of ms near a piece's end.
inline constexpr double kMinAchievedShare = 0.90;

/// A piece passes when its tail latency is known and under the limit, its
/// backlog did not grow, the sender kept to the schedule, and nothing
/// failed. A failed request counts as missing the limit.
inline bool PiecePasses(const PieceOutcome& p, double limit_ms) {
  return p.tail_ms.has_value() && *p.tail_ms < limit_ms && !p.backlog_grew &&
         p.achieved_eps >= kMinAchievedShare * p.offered_eps && !p.failed_ops;
}

/// A rung is cut into pieces spread over the run; it is sustained when
/// any of them passes. Load from outside the program (on a shared host,
/// other tenants can halve the CPU for a minute) only ever makes a piece
/// fail, so the best piece estimates what the program sustains when it
/// has the machine, as the fastest of several timings does. A rate the
/// program cannot keep up with fails every piece: its sender falls
/// behind.
inline bool RungPasses(const std::vector<PieceOutcome>& pieces,
                       double limit_ms) {
  for (const PieceOutcome& p : pieces) {
    if (PiecePasses(p, limit_ms)) return true;
  }
  return false;
}

/// The rate a passing rung reports: the achieved rate of its best passing
/// piece, the piece its verdict rests on.
inline double PassingEps(const std::vector<PieceOutcome>& pieces,
                         double limit_ms) {
  double best = 0;
  for (const PieceOutcome& p : pieces) {
    if (PiecePasses(p, limit_ms)) best = std::max(best, p.achieved_eps);
  }
  return best;
}

/// Index of the sustained rung: the highest rung of the ascending ladder
/// such that it and every rung below it passed. nullopt when the lowest
/// rung already fails.
inline std::optional<size_t> SustainedRung(
    const std::vector<std::vector<PieceOutcome>>& rungs, double limit_ms) {
  std::optional<size_t> best;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (!RungPasses(rungs[i], limit_ms)) break;
    best = i;
  }
  return best;
}

using Interval = std::pair<int64_t, int64_t>;  ///< [start, end) in ns.

/// Total length covered by `intervals` clipped to [lo, hi), overlaps
/// counted once.
inline int64_t CoveredNs(std::vector<Interval> intervals, int64_t lo,
                         int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    const int64_t s = std::max(iv.first, lo);
    const int64_t e = std::min(iv.second, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_start;
  return covered;
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover.
inline int64_t SelfNs(const Interval& span,
                      const std::vector<Interval>& children) {
  return (span.second - span.first) -
         CoveredNs(children, span.first, span.second);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
