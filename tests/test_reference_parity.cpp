// Production pipeline against the seed reference pipeline, end to end.
//
// Every request runs one production pipeline: artifacts shared across the
// points of a batch and across requests, each scratchpad placement computed
// once, the simulator's block tier and the IR analyzer with incremental
// IPET. harness::SweepConfig::reference selects the seed path at every
// layer instead: each point links and profiles its own image, interprets
// with the seed simulator and analyzes with the seed analyzer, caching
// nothing. This suite pins the two to identical bytes on what users run:
// the full paper evaluation (text and CSV, at two pool widths), a
// 100-program generated corpus point by point and in aggregate, and the
// experiment options one point at a time.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/render.h"
#include "api/request.h"
#include "harness/sweep_runner.h"
#include "workloads/workload.h"

namespace spmwcet {
namespace {

using api::ExperimentOptions;
using harness::MemSetup;

void expect_same_point(const harness::SweepPoint& a,
                       const harness::SweepPoint& b, const std::string& what) {
  EXPECT_EQ(a.size_bytes, b.size_bytes) << what;
  EXPECT_EQ(a.sim_cycles, b.sim_cycles) << what;
  EXPECT_EQ(a.wcet_cycles, b.wcet_cycles) << what;
  EXPECT_EQ(a.ratio, b.ratio) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
  EXPECT_EQ(a.spm_used_bytes, b.spm_used_bytes) << what;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << what;
}

/// The reference pipeline under the same experiment options a request
/// carries.
harness::SweepConfig reference_config(MemSetup setup,
                                      const ExperimentOptions& o = {}) {
  harness::SweepConfig cfg;
  cfg.setup = setup;
  cfg.cache_assoc = o.cache_assoc;
  cfg.cache_unified = o.cache_unified;
  cfg.with_persistence = o.with_persistence;
  cfg.wcet_driven_alloc = o.wcet_driven_alloc;
  cfg.reference = true;
  return cfg;
}

std::shared_ptr<const workloads::WorkloadInfo>
workload(const std::string& name) {
  return workloads::WorkloadRegistry::instance().benchmark(name);
}

std::string render(const api::EvalResult& r, bool csv) {
  std::ostringstream os;
  api::render_eval(r, os, csv);
  return os.str();
}

TEST(ReferenceParity, FullEvaluationRendersIdentically) {
  std::vector<std::shared_ptr<const workloads::WorkloadInfo>> wls;
  for (const std::string& name : workloads::paper_benchmark_names())
    wls.push_back(workload(name));
  for (const unsigned jobs : {1u, 4u}) {
    api::Engine engine(api::EngineOptions{jobs});
    const auto production = engine.eval(api::EvalRequest::make().value());
    ASSERT_TRUE(production.ok()) << production.error().message;
    const api::EvalResult reference{
        engine.run_evaluation(wls, reference_config(MemSetup::Scratchpad))};
    for (const bool csv : {false, true})
      EXPECT_EQ(render(production.value(), csv), render(reference, csv))
          << "jobs " << jobs << (csv ? " csv" : " text");
  }
}

struct CorpusCase {
  const char* name;
  MemSetup setup;
  bool persistence;
};

void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name; }

class ReferenceParityCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(ReferenceParityCorpus, EveryPointAndAggregateOf100Programs) {
  const MemSetup setup = GetParam().setup;
  ExperimentOptions opts;
  opts.with_persistence = GetParam().persistence;
  const auto req =
      api::CorpusRequest::make("mixed", 1, 100, setup, {}, opts).value();
  const std::vector<std::string> names = req.workload_names();

  // Production: the Engine's sweep for the points, its corpus op for the
  // aggregates (which a session serves from the same artifact cache).
  api::Engine engine(api::EngineOptions{4});
  const auto sweep = engine.sweep(
      api::SweepRequest::make(names, setup, req.sizes(), opts).value());
  ASSERT_TRUE(sweep.ok()) << sweep.error().message;
  const auto corpus = engine.corpus(req);
  ASSERT_TRUE(corpus.ok()) << corpus.error().message;

  std::vector<harness::MatrixRequest> requests;
  for (const std::string& name : names)
    requests.push_back({workload(name).get(), reference_config(setup, opts)});
  const std::vector<std::vector<harness::SweepPoint>> reference =
      harness::run_matrix(requests, 4);

  ASSERT_EQ(sweep.value().series.size(), reference.size());
  std::size_t points = 0;
  for (std::size_t m = 0; m < reference.size(); ++m) {
    const auto& production = sweep.value().series[m].points;
    ASSERT_EQ(production.size(), reference[m].size());
    for (std::size_t i = 0; i < production.size(); ++i, ++points)
      expect_same_point(production[i], reference[m][i],
                        names[m] + " at " +
                            std::to_string(reference[m][i].size_bytes));
  }
  EXPECT_EQ(points, 800u);

  std::ostringstream got, want;
  api::render_corpus_json(corpus.value(), got);
  api::render_corpus_json(api::summarize_corpus(req, reference), want);
  EXPECT_EQ(got.str(), want.str());
}

// Persistence changes the bound of many generated members at most sizes, but
// the paper's three programs only at 8 KiB, which neither the evaluation
// (MUST-only) nor the point-by-point case (1 KiB) runs with persistence.
INSTANTIATE_TEST_SUITE_P(
    Setups, ReferenceParityCorpus,
    ::testing::Values(CorpusCase{"spm", MemSetup::Scratchpad, false},
                      CorpusCase{"cache", MemSetup::Cache, false},
                      CorpusCase{"cache_persistence", MemSetup::Cache, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ReferenceParity, ExperimentOptionsPointByPoint) {
  ExperimentOptions pers;
  pers.with_persistence = true;
  ExperimentOptions assoc2;
  assoc2.cache_assoc = 2;
  ExperimentOptions icache;
  icache.cache_unified = false;
  ExperimentOptions wcet_alloc;
  wcet_alloc.wcet_driven_alloc = true;
  const std::pair<const char*, ExperimentOptions> variants[] = {
      {"default", {}},
      {"persistence", pers},
      {"assoc 2", assoc2},
      {"icache", icache},
      {"wcet_alloc", wcet_alloc}};

  const auto wl = workload("multisort");
  api::Engine engine;
  for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache})
    for (const auto& [what, opts] : variants) {
      const auto production = engine.point(
          api::PointRequest::make("multisort", setup, 1024, opts).value());
      ASSERT_TRUE(production.ok()) << production.error().message;
      const harness::SweepPoint reference = harness::run_point(
          *wl, setup, 1024, reference_config(setup, opts));
      expect_same_point(production.value().point, reference,
                        std::string(harness::to_string(setup)) + " " + what);
    }
}

} // namespace
} // namespace spmwcet
