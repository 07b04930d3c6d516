// Tests of the benchmark's own arithmetic on synthetic timings. Plain
// checks that stay on in every build type; exits non-zero on a failure.
//
//   python3 perfbench/run.py --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void PercentileNeedsTenSamplesBeyond() {
  // p99 over 1000 samples has exactly ten beyond the rank; 999 do not.
  std::vector<double> s(1000);
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i + 1);
  auto p99 = Percentile(s, 0.99);
  CHECK(p99.has_value());
  CHECK(p99.has_value() && *p99 == 990.0);
  s.pop_back();
  CHECK(!Percentile(s, 0.99).has_value());
  CHECK(MinSamplesFor(0.99) == 1000);
  CHECK(MinSamplesFor(0.50) == 20);
  // The median of 21 ordered values is the 11th; 19 leave nine beyond.
  std::vector<double> m(21);
  for (size_t i = 0; i < m.size(); ++i) m[i] = static_cast<double>(i);
  CHECK(Percentile(m, 0.50) == 10.0);
  m.resize(19);
  CHECK(!Percentile(m, 0.50).has_value());
  // Below 1000 samples the ladder falls back to the highest percentile
  // with ten samples beyond it; below 11 samples there is none.
  std::vector<double> t(500);
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<double>(i + 1);
  CHECK(TailPercentile(t, 0.99) == 490.0);
  CHECK(TailPercentile(s, 0.99) == Percentile(s, 0.99) ||
        !Percentile(s, 0.99).has_value());
  t.resize(11);
  CHECK(TailPercentile(t, 0.99) == 1.0);
  t.resize(10);
  CHECK(!TailPercentile(t, 0.99).has_value());
  // Order of the input does not matter.
  std::vector<double> r(s.rbegin(), s.rend());
  r.push_back(1000);
  CHECK(Percentile(r, 0.99) == 990.0);
}

void WindowedPercentileIgnoresOneBurst() {
  // 5000 samples of 1 ms with one burst of 100 samples at 50 ms inside
  // the third window: the plain p99 lands in the burst, the median of the
  // five windows' p99s does not.
  std::vector<double> s(5000, 1.0);
  for (size_t i = 2100; i < 2200; ++i) s[i] = 50.0;
  CHECK(Percentile(s, 0.99) == 50.0);
  CHECK(WindowedPercentile(s, 0.99, 5) == 1.0);
  // Windows never drop below the size p99 needs: 2500 samples make two.
  std::vector<double> two(2500, 1.0);
  for (size_t i = 0; i < 100; ++i) two[i] = 9.0;
  CHECK(WindowedPercentile(two, 0.99, 5) == 5.0);  // median of 9 and 1
  CHECK(!WindowedPercentile(std::vector<double>(999, 1.0), 0.99, 5));
  CHECK(WindowedPercentile(std::vector<double>(1000, 2.0), 0.99, 5) == 2.0);
}

/// An open loop at 1000 edges/s where the system stalls for 200 ms: the
/// generator cannot send while stalled, so edges due in the stall go out
/// late. Latency from the due time shows the stall on every edge it
/// delayed; latency from the send time hides it (coordinated omission).
void DueTimeLatencyCountsAStall() {
  const double rate = 1000;
  const int64_t t0 = 0;
  const int64_t stall_from = 500'000'000, stall_to = 700'000'000;
  const int64_t service_ns = 100'000;  // 0.1 ms per edge
  std::vector<double> from_due, from_send;
  int64_t free_at = 0;  // when the system can take the next edge
  for (size_t i = 0; i < 2000; ++i) {
    const int64_t due = DueNs(t0, rate, i);
    int64_t send = std::max(due, free_at);
    if (send >= stall_from && send < stall_to) send = stall_to;
    const int64_t done = send + service_ns;
    free_at = done;
    from_due.push_back(LatencyMs(due, done));
    from_send.push_back(LatencyMs(send, done));
  }
  const auto p99_due = Percentile(from_due, 0.99);
  const auto p99_send = Percentile(from_send, 0.99);
  CHECK(p99_due.has_value() && p99_send.has_value());
  // ~200 edges were due in the stall: 10% of the sample waits up to 200 ms.
  CHECK(*p99_due > 150.0);
  CHECK(std::fabs(*p99_send - 0.1) < 1e-9);
  // The due schedule itself never moves with the system.
  CHECK(DueNs(t0, rate, 1500) == 1'500'000'000);
  CHECK(DueCount(t0, rate, 1'500'000'000, 2000) == 1501);
  CHECK(DueCount(t0, rate, -1, 2000) == 0);
  CHECK(DueCount(t0, rate, 10'000'000'000, 2000) == 2000);
}

void BacklogGrowthDetection() {
  const double rate = 10000;
  // Keeping up: backlog jitters around a constant 20 edges.
  std::vector<BacklogSample> flat;
  for (int i = 0; i < 100; ++i) {
    flat.push_back({i * 0.02, 20.0 + (i % 3)});
  }
  CHECK(!BacklogGrows(flat, rate));
  // A deep but constant pipeline is not growth either.
  std::vector<BacklogSample> deep;
  for (int i = 0; i < 100; ++i) deep.push_back({i * 0.02, 3000.0});
  CHECK(!BacklogGrows(deep, rate));
  // Falling behind by 20% of the offered rate: grows.
  std::vector<BacklogSample> behind;
  for (int i = 0; i < 100; ++i) behind.push_back({i * 0.02, 2000.0 * i * 0.02});
  CHECK(BacklogGrows(behind, rate));
  // An epoch-stepped system keeping up: a 100 ms sawtooth of 100 edges.
  std::vector<BacklogSample> saw;
  for (int i = 0; i < 200; ++i) saw.push_back({i * 0.01, 10.0 * (i % 10)});
  CHECK(!BacklogGrows(saw, 1000));
  // A 400 ms sawtooth of 1000 edges over a 1 s rung: its first third
  // happens to cover mostly low phases and its last third high ones, so
  // their means differ by more than the threshold; their low points do
  // not.
  std::vector<BacklogSample> slow_saw;
  for (int i = 0; i < 100; ++i) {
    slow_saw.push_back({i * 0.01, 25.0 * ((i + 21) % 40)});
  }
  CHECK(!BacklogGrows(slow_saw, 4000));
  // Filling the pipeline at the start of the rung is not growth.
  std::vector<BacklogSample> fill;
  for (int i = 0; i < 200; ++i) {
    fill.push_back({i * 0.01, std::min(150.0, 1000.0 * i * 0.01)});
  }
  CHECK(!BacklogGrows(fill, 1000));
  // The sawtooth drifting up by 200 edges/s (20% of 1000/s): grows.
  std::vector<BacklogSample> drift;
  for (int i = 0; i < 200; ++i) {
    drift.push_back({i * 0.01, 10.0 * (i % 10) + 200.0 * i * 0.01});
  }
  CHECK(BacklogGrows(drift, 1000));
  // A spike that drains again ends low: not growth.
  std::vector<BacklogSample> spike;
  for (int i = 0; i < 100; ++i) {
    spike.push_back({i * 0.02, (i > 40 && i < 60) ? 4000.0 : 10.0});
  }
  CHECK(!BacklogGrows(spike, rate));
}

void SustainedLadderSearch() {
  const double limit = 50;
  auto piece = [](double eps, std::optional<double> p99, bool grew = false,
                  bool failed = false) {
    PieceOutcome p;
    p.offered_eps = eps;
    p.achieved_eps = eps * 0.999;
    p.tail_ms = p99;
    p.backlog_grew = grew;
    p.failed_ops = failed;
    return p;
  };
  // One piece per rung.
  auto ladder = [](std::vector<PieceOutcome> rungs) {
    std::vector<std::vector<PieceOutcome>> out;
    for (const PieceOutcome& p : rungs) out.push_back({p});
    return out;
  };
  CHECK(SustainedRung(ladder({piece(1000, 5), piece(2000, 8), piece(4000, 30),
                              piece(8000, 400)}),
                      limit) == 2u);
  // A rung above a failed one never counts, even if it passes.
  CHECK(SustainedRung(ladder({piece(1000, 5), piece(2000, 80),
                              piece(4000, 10)}),
                      limit) == 0u);
  // Backlog growth, failed operations or no tail at all fail a rung.
  CHECK(SustainedRung(ladder({piece(1000, 5), piece(2000, 5, true)}), limit) ==
        0u);
  CHECK(SustainedRung(ladder({piece(1000, 5), piece(2000, 5, false, true)}),
                      limit) == 0u);
  CHECK(SustainedRung(ladder({piece(1000, 5), piece(2000, std::nullopt)}),
                      limit) == 0u);
  // A sender that fell 15% behind the schedule fails the rung, even with
  // a flat backlog and a tail under the limit; 5% behind is a stall.
  PieceOutcome behind = piece(2000, 5);
  behind.achieved_eps = 1700;
  CHECK(SustainedRung(ladder({piece(1000, 5), behind}), limit) == 0u);
  behind.achieved_eps = 1900;
  CHECK(SustainedRung(ladder({piece(1000, 5), behind}), limit) == 1u);
  CHECK(!SustainedRung(ladder({piece(1000, 60)}), limit).has_value());
  CHECK(!SustainedRung({}, limit).has_value());
  // A rung of three pieces passes when any does: pieces hit by outside
  // load do not fail it; it fails when every piece does.
  const std::vector<PieceOutcome> two_bad = {piece(2000, 90), piece(2000, 5),
                                             piece(2000, 5, true)};
  const std::vector<PieceOutcome> all_bad = {piece(2000, 90), piece(2000, 60),
                                             piece(2000, 5, true)};
  CHECK(SustainedRung({{piece(1000, 5)}, two_bad}, limit) == 1u);
  CHECK(SustainedRung({{piece(1000, 5)}, all_bad}, limit) == 0u);
  // The rung reports the rate of the piece that passed, not the mean over
  // pieces that fell behind.
  std::vector<PieceOutcome> mixed = {piece(2000, 5), piece(2000, 5),
                                     piece(2000, 5)};
  mixed[0].achieved_eps = 1200;
  mixed[2].achieved_eps = 1500;
  CHECK(std::fabs(PassingEps(mixed, limit) - 1998) < 1e-9);
  CHECK(PassingEps(all_bad, limit) == 0);
}

void SelfTimeSubtractsCoveredChildren() {
  // Span [0, 100) with children [10, 30), [20, 40) and [90, 120): the
  // overlap counts once and the overhang is clipped.
  CHECK(CoveredNs({{10, 30}, {20, 40}, {90, 120}}, 0, 100) == 40);
  CHECK(SelfNs({0, 100}, {{10, 30}, {20, 40}, {90, 120}}) == 60);
  CHECK(SelfNs({0, 100}, {}) == 100);
  CHECK(CoveredNs({{0, 10}, {10, 20}}, 0, 100) == 20);
}

}  // namespace

int main() {
  PercentileNeedsTenSamplesBeyond();
  WindowedPercentileIgnoresOneBurst();
  DueTimeLatencyCountsAStall();
  BacklogGrowthDetection();
  SustainedLadderSearch();
  SelfTimeSubtractsCoveredChildren();
  if (failures > 0) {
    std::fprintf(stderr, "bench_math_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_math_test: all checks passed\n");
  return 0;
}
