// Scratchpad-allocation tests: knapsack ILP vs DP equivalence (property
// over random instances), energy-benefit accounting, capacity respect, and
// the end-to-end monotonicity the paper's Figure 3a shows.
#include <gtest/gtest.h>

#include <random>

#include "alloc/allocator.h"
#include "link/layout.h"
#include "sim/simulator.h"
#include "wcet/analyzer.h"
#include "workloads/workload.h"

namespace spmwcet::alloc {
namespace {

std::vector<MemoryObject> random_objects(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> size_d(4, 600);
  std::uniform_real_distribution<double> benefit_d(0.0, 5000.0);
  std::vector<MemoryObject> objs;
  for (int i = 0; i < n; ++i) {
    MemoryObject o;
    o.name = "obj" + std::to_string(i);
    o.size_bytes = size_d(rng) & ~3u;
    if (o.size_bytes == 0) o.size_bytes = 4;
    o.benefit_nj = benefit_d(rng);
    objs.push_back(o);
  }
  return objs;
}

class KnapsackEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(KnapsackEquivalence, IlpMatchesDp) {
  const auto objs = random_objects(GetParam(), 4 + GetParam() % 10);
  for (const uint32_t cap : {64u, 512u, 2048u}) {
    const KnapsackResult ilp = solve_knapsack_ilp(objs, cap);
    const KnapsackResult dp = solve_knapsack_dp(objs, cap);
    EXPECT_NEAR(ilp.benefit_nj, dp.benefit_nj, 1e-6)
        << "capacity " << cap;
    EXPECT_LE(ilp.used_bytes, cap);
    EXPECT_LE(dp.used_bytes, cap);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, KnapsackEquivalence, ::testing::Range(1u, 21u));

TEST(Knapsack, ZeroCapacityChoosesNothing) {
  const auto objs = random_objects(5, 6);
  const KnapsackResult r = solve_knapsack_ilp(objs, 0);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_EQ(r.used_bytes, 0u);
}

TEST(Knapsack, BenefitIsMonotoneInCapacity) {
  const auto objs = random_objects(7, 12);
  double prev = -1.0;
  for (const uint32_t cap : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
    const KnapsackResult r = solve_knapsack_dp(objs, cap);
    EXPECT_GE(r.benefit_nj, prev);
    prev = r.benefit_nj;
  }
}

TEST(Knapsack, IlpReturnsWhereRoundingMadeABasicColumnReenter) {
  // gen:loopy:772's candidates at 64 bytes. The simplex used to price a
  // basic column above the tolerance here (rounding in its reduced cost),
  // re-enter it and pivot its own row onto itself forever.
  const std::vector<MemoryObject> objects = {
      {"h0", true, 60, 73, 1800.0999999999999},
      {"main", true, 992, 24604, 644622.80000000005},
      {"g0", false, 64, 23, 1106.3},
      {"g1", false, 32, 346, 8061.8000000000002},
      {"g2", false, 16, 72, 1029.6000000000001},
      {"gs", false, 4, 1635, 78643.499999999985}};
  for (const uint32_t cap : {64u, 128u}) {
    const KnapsackResult ilp = solve_knapsack_ilp(objects, cap);
    EXPECT_DOUBLE_EQ(ilp.benefit_nj, solve_knapsack_dp(objects, cap).benefit_nj)
        << cap;
    EXPECT_LE(ilp.used_bytes, cap);
  }
}

TEST(Allocator, LoopyMemberAllocatesAtEveryPaperSize) {
  // The end-to-end form of the case above: every paper size of the
  // program allocates, with the ILP's benefit equal to the DP's.
  const auto wl = workloads::WorkloadRegistry::instance().benchmark(
      "gen:loopy:772");
  const link::Image img = link::link_program(wl->module, {}, {});
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(img, pcfg);
  const sim::AccessProfile profile = profiler.run().profile;
  const auto objects = collect_objects(wl->module, profile, {});
  for (const uint32_t size : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u,
                              8192u}) {
    const AllocationResult a = allocate_energy_optimal(wl->module, profile,
                                                       size);
    EXPECT_DOUBLE_EQ(a.benefit_nj,
                     solve_knapsack_dp(objects, size).benefit_nj)
        << size;
    EXPECT_LE(a.used_bytes, size);
  }
}

TEST(EnergyModel, BenefitsArePositiveAndWidthOrdered) {
  const energy::EnergyModel em;
  EXPECT_GT(em.spm_benefit_nj(1), 0.0);
  EXPECT_GT(em.spm_benefit_nj(2), 0.0);
  EXPECT_GT(em.spm_benefit_nj(4), em.spm_benefit_nj(2))
      << "32-bit main-memory accesses must be the most expensive";
}

TEST(CollectObjects, CoversAllFunctionsAndGlobals) {
  const auto wl = workloads::make_adpcm(64);
  const link::Image img = link::link_program(wl.module, {}, {});
  sim::SimConfig cfg;
  cfg.collect_profile = true;
  sim::Simulator s(img, cfg);
  const auto run = s.run();
  const auto objs = collect_objects(wl.module, run.profile, {});
  EXPECT_EQ(objs.size(),
            wl.module.functions.size() + wl.module.globals.size());
  // Hot objects must have nonzero profiled benefit.
  for (const auto& o : objs) {
    if (o.name == "adpcm_coder" || o.name == "step_table") {
      EXPECT_GT(o.benefit_nj, 0.0) << o.name;
    }
    EXPECT_EQ(o.size_bytes % 4, 0u) << o.name << " size must be padded";
  }
}

TEST(Allocator, RespectsCapacityEndToEnd) {
  const auto wl = workloads::make_adpcm(64);
  const link::Image img = link::link_program(wl.module, {}, {});
  sim::SimConfig cfg;
  cfg.collect_profile = true;
  sim::Simulator s(img, cfg);
  const auto run = s.run();
  for (const uint32_t cap : {64u, 256u, 1024u, 4096u}) {
    const auto alloc = allocate_energy_optimal(wl.module, run.profile, cap);
    EXPECT_LE(alloc.used_bytes, cap);
    // Relink must succeed with the chosen assignment.
    link::LinkOptions opts;
    opts.spm_size = cap;
    EXPECT_NO_THROW(link::link_program(wl.module, opts, alloc.assignment));
  }
}

TEST(Allocator, LargerSpmNeverHurtsSimulatedTime) {
  const auto wl = workloads::make_adpcm(64);
  uint64_t prev = UINT64_MAX;
  for (const uint32_t cap : {64u, 256u, 1024u, 4096u, 16384u}) {
    const link::Image base = link::link_program(
        wl.module, link::LinkOptions{.spm_size = cap}, {});
    sim::SimConfig pcfg;
    pcfg.collect_profile = true;
    sim::Simulator profiler(base, pcfg);
    const auto profile_run = profiler.run();
    const auto alloc =
        allocate_energy_optimal(wl.module, profile_run.profile, cap);
    const link::Image img = link::link_program(
        wl.module, link::LinkOptions{.spm_size = cap}, alloc.assignment);
    const auto run = sim::simulate(img, {});
    EXPECT_LE(run.cycles, prev) << "capacity " << cap;
    prev = run.cycles;
  }
}

TEST(Allocator, WcetDrivenBeatsOrMatchesEnergyDrivenOnWcet) {
  const auto wl = workloads::make_bubble_sort(16, workloads::SortInput::Random);
  const uint32_t cap = 512;

  // Energy-driven.
  const link::Image base = link::link_program(
      wl.module, link::LinkOptions{.spm_size = cap}, {});
  sim::SimConfig pcfg;
  pcfg.collect_profile = true;
  sim::Simulator profiler(base, pcfg);
  const auto profile_run = profiler.run();
  const auto ealloc =
      allocate_energy_optimal(wl.module, profile_run.profile, cap);
  const link::Image eimg = link::link_program(
      wl.module, link::LinkOptions{.spm_size = cap}, ealloc.assignment);
  const uint64_t ewcet = wcet::analyze_wcet(eimg, {}).wcet;

  // WCET-driven greedy.
  const auto walloc = allocate_wcet_driven(wl.module, cap);
  const link::Image wimg = link::link_program(
      wl.module, link::LinkOptions{.spm_size = cap}, walloc.assignment);
  const uint64_t wwcet = wcet::analyze_wcet(wimg, {}).wcet;

  EXPECT_LE(wwcet, ewcet);
}

TEST(Allocator, WcetDrivenStopsWithinCapacity) {
  const auto wl = workloads::make_bubble_sort(12, workloads::SortInput::Random);
  const auto alloc = allocate_wcet_driven(wl.module, 256);
  EXPECT_LE(alloc.used_bytes, 256u);
}

} // namespace
} // namespace spmwcet::alloc
