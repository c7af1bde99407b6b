// The placed-result memo: a scratchpad point's ACET, WCET and energy are
// computed once per (workload, SpmAssignment) and reused by every other size
// whose allocation picks the same objects. The memo rests on one property —
// the placed image is a function of the module and the assignment alone —
// which the first test checks over a generated population. The second pins
// the memoized Engine to the seed reference pipeline, which computes every
// point end to end, and counts its computations against the population's
// distinct placements.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/allocator.h"
#include "api/engine.h"
#include "api/request.h"
#include "harness/sweep_runner.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

constexpr uint32_t kMembers = 100;
const std::vector<uint32_t> kPaperSizes = {64,   128,  256,  512,
                                           1024, 2048, 4096, 8192};

std::string member(uint32_t seed) {
  return "gen:mixed:" + std::to_string(seed);
}

/// The energy allocator's assignment at every paper size, from the
/// member's no-assignment profile (the production flow).
std::vector<link::SpmAssignment>
assignments_for(const workloads::WorkloadInfo& wl) {
  const link::Image base = link::link_program(wl.module, {}, {});
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(base, pcfg);
  const sim::AccessProfile profile = profiler.run().profile;
  std::vector<link::SpmAssignment> out;
  for (const uint32_t size : kPaperSizes)
    out.push_back(
        alloc::allocate_energy_optimal(wl.module, profile, size).assignment);
  return out;
}

link::Image link_at(const workloads::WorkloadInfo& wl, uint32_t size,
                    const link::SpmAssignment& a) {
  link::LinkOptions opts;
  opts.spm_size = size;
  return link::link_program(wl.module, opts, a);
}

void expect_same_image(const link::Image& a, const link::Image& b,
                       const std::string& what) {
  EXPECT_EQ(a.entry, b.entry) << what;
  EXPECT_EQ(a.initial_sp, b.initial_sp) << what;
  ASSERT_EQ(a.segments.size(), b.segments.size()) << what;
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].base, b.segments[i].base) << what;
    EXPECT_EQ(a.segments[i].bytes, b.segments[i].bytes) << what;
  }
  const auto sym = [](const link::Symbol& s) {
    return std::tie(s.name, s.addr, s.size, s.is_function, s.elem_bytes,
                    s.read_only, s.count);
  };
  ASSERT_EQ(a.symbols.size(), b.symbols.size()) << what;
  for (std::size_t i = 0; i < a.symbols.size(); ++i)
    EXPECT_EQ(sym(a.symbols[i]), sym(b.symbols[i])) << what;
  const auto region = [](const link::Region& r) {
    return std::tie(r.lo, r.hi, r.kind, r.symbol, r.elem_bytes);
  };
  const auto& ra = a.regions.regions();
  const auto& rb = b.regions.regions();
  ASSERT_EQ(ra.size(), rb.size()) << what;
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(region(ra[i]), region(rb[i])) << what;
  EXPECT_EQ(a.loop_bounds, b.loop_bounds) << what;
  EXPECT_EQ(a.loop_totals, b.loop_totals) << what;
  EXPECT_EQ(a.access_hints, b.access_hints) << what;
}

TEST(PlacedMemo, EqualAssignmentsLinkIdenticalImages) {
  auto& reg = workloads::WorkloadRegistry::instance();
  std::size_t shared = 0;
  for (uint32_t seed = 1; seed <= kMembers; ++seed) {
    const auto wl = reg.benchmark(member(seed));
    const auto as = assignments_for(*wl);
    for (std::size_t i = 0; i < as.size(); ++i)
      for (std::size_t j = i + 1; j < as.size(); ++j) {
        if (as[i] != as[j]) continue;
        ++shared;
        expect_same_image(link_at(*wl, kPaperSizes[i], as[i]),
                          link_at(*wl, kPaperSizes[j], as[j]),
                          wl->name + " at " + std::to_string(kPaperSizes[i]) +
                              " vs " + std::to_string(kPaperSizes[j]));
      }
  }
  // Saturating allocations are the common case, so the property is
  // exercised, not vacuous.
  EXPECT_GT(shared, kMembers);
}

api::CorpusRequest corpus_request() {
  return api::CorpusRequest::make("mixed", 1, kMembers,
                                  api::MemSetup::Scratchpad)
      .value();
}

/// The production corpus through the Engine, with its placed-memo counters.
api::CorpusResult corpus(unsigned jobs, support::MemoStats& placed) {
  api::Engine engine(api::EngineOptions{jobs});
  auto r = engine.corpus(corpus_request());
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  placed = engine.stats().placed_artifacts;
  return r.value();
}

/// The same corpus on the seed reference pipeline.
api::CorpusResult reference_corpus() {
  const api::CorpusRequest req = corpus_request();
  harness::SweepConfig cfg;
  cfg.reference = true;
  std::vector<harness::MatrixRequest> requests;
  for (const std::string& name : req.workload_names())
    requests.push_back(
        {workloads::WorkloadRegistry::instance().benchmark(name).get(), cfg});
  return api::summarize_corpus(req, harness::run_matrix(requests, 4));
}

void expect_same_corpus(const api::CorpusResult& a,
                        const api::CorpusResult& b, const std::string& what) {
  EXPECT_EQ(a.total_sim_cycles, b.total_sim_cycles) << what;
  EXPECT_EQ(a.total_wcet_cycles, b.total_wcet_cycles) << what;
  ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const auto& x = a.stats[i];
    const auto& y = b.stats[i];
    EXPECT_EQ(std::tie(x.size_bytes, x.wcet_min, x.wcet_max, x.wcet_mean,
                       x.ratio_min, x.ratio_mean, x.ratio_max,
                       x.energy_min_nj, x.energy_mean_nj, x.energy_max_nj),
              std::tie(y.size_bytes, y.wcet_min, y.wcet_max, y.wcet_mean,
                       y.ratio_min, y.ratio_mean, y.ratio_max,
                       y.energy_min_nj, y.energy_mean_nj, y.energy_max_nj))
        << what << " size " << x.size_bytes;
  }
}

TEST(PlacedMemo, CorpusMatchesReferencePipelineAndComputesEachPlacementOnce) {
  auto& reg = workloads::WorkloadRegistry::instance();
  uint64_t distinct = 0;
  for (uint32_t seed = 1; seed <= kMembers; ++seed) {
    const auto as = assignments_for(*reg.benchmark(member(seed)));
    distinct += std::set<link::SpmAssignment>(as.begin(), as.end()).size();
  }
  ASSERT_LT(distinct, kMembers * kPaperSizes.size());

  const api::CorpusResult oracle = reference_corpus();
  for (const unsigned jobs : {1u, 2u}) {
    support::MemoStats placed;
    const api::CorpusResult memo = corpus(jobs, placed);
    const std::string what = "jobs " + std::to_string(jobs);
    expect_same_corpus(memo, oracle, what);
    EXPECT_EQ(placed.misses, distinct) << what;
    EXPECT_EQ(placed.hits + placed.misses, kMembers * kPaperSizes.size())
        << what;
  }
}

} // namespace
} // namespace spmwcet
