// Tests of the benchmark's own code: the order statistics, the percentile
// rule, every correctness check on hand-made failing points, span self
// times, the serve stream's repeat structure and the server log's summary.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>

#include "checks.h"
#include "serve_client.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

using spmwcet::api::CorpusResult;

std::vector<double> iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Stats, MedianAndNearestRank) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(nearest_rank(iota(20), 0.1), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank(iota(20), 0.9), 18.0);
  EXPECT_DOUBLE_EQ(nearest_rank(iota(7), 0.1), 1.0);
}

TEST(Stats, NoP99WithFewerThanTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(iota(999), 0.99).has_value());
  const auto p = tail_percentile(iota(1000), 0.99);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 990.0); // ten samples (991..1000) lie beyond it
  EXPECT_FALSE(tail_percentile(iota(5), 0.5).has_value());
}

TEST(Stats, TailFallsBackToTheHighestPercentileWithTenBeyond) {
  EXPECT_DOUBLE_EQ(tail_or_median(iota(100), 0.99), 90.0);
  // Below forty samples there is no tail: the median stands in.
  EXPECT_DOUBLE_EQ(tail_or_median(iota(39), 0.99), 20.0);
  EXPECT_DOUBLE_EQ(tail_or_median(iota(2000), 0.99), 1980.0);
}

PointRecord rec(const std::string& wl, MemSetup setup, uint32_t size,
                uint64_t sim, uint64_t wcet, uint64_t hits = 0,
                uint64_t misses = 0, uint32_t used = 0) {
  PointRecord r;
  r.workload = wl;
  r.setup = setup;
  r.size = size;
  r.point.size_bytes = size;
  r.point.sim_cycles = sim;
  r.point.wcet_cycles = wcet;
  r.point.ratio = static_cast<double>(wcet) / static_cast<double>(sim);
  r.point.cache_hits = hits;
  r.point.cache_misses = misses;
  r.point.spm_used_bytes = used;
  return r;
}

std::vector<PointRecord> healthy() {
  return {rec("a", MemSetup::Scratchpad, 64, 1000, 1100, 0, 0, 60),
          rec("a", MemSetup::Scratchpad, 128, 900, 950, 0, 0, 128),
          rec("a", MemSetup::Cache, 64, 1200, 2000, 80, 20),
          rec("a", MemSetup::Cache, 128, 1100, 1900, 90, 10)};
}

std::size_t failures(const std::vector<PointRecord>& recs) {
  Verdicts v(recs.size());
  check_points(recs, v);
  check_paper_claim(recs, v);
  return v.failed_count();
}

TEST(Checks, HealthyPointsPass) { EXPECT_EQ(failures(healthy()), 0u); }

TEST(Checks, WcetBelowSimulatedCyclesFails) {
  auto recs = healthy();
  recs[1].point.wcet_cycles = 899;
  EXPECT_EQ(failures(recs), 1u);
}

TEST(Checks, SpmUsageBeyondItsSizeFails) {
  auto recs = healthy();
  recs[0].point.spm_used_bytes = 65;
  EXPECT_EQ(failures(recs), 1u);
}

TEST(Checks, FailedRequestFails) {
  auto recs = healthy();
  recs[2].ok = false;
  recs[2].error = "execution_error";
  Verdicts v(recs.size());
  check_points(recs, v);
  EXPECT_TRUE(v.failed(2));
  EXPECT_EQ(v.failed_count(), 1u);
}

TEST(Checks, RisingMissCountFails) {
  auto recs = healthy();
  recs[3].point.cache_hits = 70;
  recs[3].point.cache_misses = 30; // same accesses, more misses when doubled
  Verdicts v(recs.size());
  check_points(recs, v);
  EXPECT_TRUE(v.failed(3));
  EXPECT_EQ(v.failed_count(), 1u);
}

TEST(Checks, CacheAccessCountMustNotDependOnSize) {
  auto recs = healthy();
  recs[3].point.cache_hits = 91;
  Verdicts v(recs.size());
  check_points(recs, v);
  EXPECT_TRUE(v.failed(3));
}

TEST(Checks, PaperClaimFailsWhenTheCacheRatioIsNotAbove) {
  auto recs = healthy();
  recs[3].point.ratio = recs[1].point.ratio; // equal is not above
  Verdicts v(recs.size());
  check_paper_claim(recs, v);
  EXPECT_TRUE(v.failed(3));
  EXPECT_EQ(v.failed_count(), 1u);
}

TEST(Checks, SamePointComparesEveryField) {
  const auto a = healthy()[2].point;
  auto b = a;
  EXPECT_TRUE(same_point(a, b));
  b.cache_misses += 1;
  EXPECT_FALSE(same_point(a, b));
  b = a;
  b.energy_nj += 1.0;
  EXPECT_FALSE(same_point(a, b));
}

/// A two-member, two-size corpus whose aggregates are computed by hand.
struct Corpus {
  CorpusResult result;
  std::vector<std::vector<SweepPoint>> members;
  Corpus() {
    members = {{healthy()[0].point, healthy()[1].point},
               {healthy()[0].point, healthy()[1].point}};
    members[1][0].wcet_cycles = 1300;
    members[1][0].ratio = 1.3;
    members[1][0].energy_nj = 10.0;
    result.count = 2;
    result.sizes = {64, 128};
    for (std::size_t s = 0; s < 2; ++s) {
      CorpusResult::SizeStats st;
      st.size_bytes = result.sizes[s];
      const SweepPoint& p = members[0][s];
      const SweepPoint& q = members[1][s];
      st.wcet_min = std::min(p.wcet_cycles, q.wcet_cycles);
      st.wcet_max = std::max(p.wcet_cycles, q.wcet_cycles);
      st.wcet_mean = (static_cast<double>(p.wcet_cycles) + q.wcet_cycles) / 2;
      st.ratio_min = std::min(p.ratio, q.ratio);
      st.ratio_max = std::max(p.ratio, q.ratio);
      st.ratio_mean = (p.ratio + q.ratio) / 2;
      st.energy_min_nj = std::min(p.energy_nj, q.energy_nj);
      st.energy_max_nj = std::max(p.energy_nj, q.energy_nj);
      st.energy_mean_nj = (p.energy_nj + q.energy_nj) / 2;
      result.stats.push_back(st);
      result.total_sim_cycles += p.sim_cycles + q.sim_cycles;
      result.total_wcet_cycles += p.wcet_cycles + q.wcet_cycles;
    }
  }
};

TEST(Checks, CorpusAggregatesAgreeWithTheirPoints) {
  const Corpus c;
  EXPECT_EQ(corpus_agrees(c.result, c.members), std::vector<bool>({true, true}));
}

TEST(Checks, WrongCorpusMeanFailsItsSize) {
  Corpus c;
  c.result.stats[0].wcet_mean += 0.5;
  EXPECT_EQ(corpus_agrees(c.result, c.members), std::vector<bool>({false, true}));
}

TEST(Checks, WrongCorpusTotalFailsEverySize) {
  Corpus c;
  c.result.total_sim_cycles += 1;
  std::vector<std::string> why;
  EXPECT_EQ(corpus_agrees(c.result, c.members, &why),
            std::vector<bool>({false, false}));
  EXPECT_FALSE(why.empty());
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildIntervals) {
  std::vector<Span> spans(4);
  spans[0] = {"p", 1, -1, 0, 100};
  spans[1] = {"a", 1, 0, 10, 30};
  spans[2] = {"b", 1, 0, 20, 50}; // overlaps a: union 10..50
  spans[3] = {"c", 1, 0, 90, 120}; // clipped to 90..100
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 30);
}

TEST(Trace, ScopesNestAndShareThePointId) {
  Tracer t;
  t.begin_point();
  {
    const Tracer::Scope outer(t, "outer");
    const Tracer::Scope inner(t, "inner");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[0].point, t.spans()[1].point);
  Tracer off(false);
  { const Tracer::Scope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(ServeStream, FreshRequestsCycleThePoolAndRepeatsAreRecent) {
  ServeStream s(7);
  EXPECT_GT(s.pool().size(), 1024u); // beyond the server's response cache
  EXPECT_EQ(s.pool().size(),
            (3 + 2 * ServeStream::kPoolMembers) * 2 * 8);
  std::vector<std::size_t> fresh;
  std::size_t repeats = 0;
  const std::size_t n = 4 * s.pool().size();
  for (std::size_t i = 0; i < n; ++i) {
    bool repeat = false;
    const std::size_t k = s.next(&repeat);
    if (repeat) {
      ++repeats;
      const std::size_t lo =
          fresh.size() > ServeStream::kRepeatWindow
              ? fresh.size() - ServeStream::kRepeatWindow
              : 0;
      const std::set<std::size_t> window(fresh.begin() + static_cast<long>(lo),
                                         fresh.end());
      EXPECT_TRUE(window.count(k)) << "request " << i;
    } else {
      EXPECT_EQ(k, fresh.size() % s.pool().size());
      fresh.push_back(k);
    }
  }
  EXPECT_EQ(repeats * 4, n);
  // Same seed, same stream.
  ServeStream a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.pool().front().workload, b.pool().front().workload);
}

TEST(ServeSummary, ReadsRequestsAndResponseCacheHits) {
  std::istringstream log(
      "serve: listening on unix socket x.sock\n"
      "serve: 2920 requests (2920 ok, 0 errors), 730 response-cache hits, "
      "1018/1101 profile-artifact hits\n");
  const auto s = read_serve_summary(log);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->requests, 2920);
  EXPECT_EQ(s->response_hits, 730);
  std::istringstream none("serve: listening on unix socket x.sock\n");
  EXPECT_FALSE(read_serve_summary(none).has_value());
}

} // namespace
} // namespace perfbench
