#include "replay.h"

#include <optional>

#include "alloc/allocator.h"
#include "link/layout.h"
#include "program/decoded_image.h"
#include "sim/simulator.h"
#include "support/diag.h"
#include "wcet/analyzer.h"
#include "wcet/frontend.h"

namespace perfbench {

namespace sw = spmwcet;
using sw::harness::MemSetup;
using sw::harness::SweepPoint;
using sw::workloads::WorkloadInfo;

namespace {

void fnv(uint64_t& h, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

/// The harness's output validation: every expected global must match.
void validate(const WorkloadInfo& wl, const sw::sim::Simulator& s,
              const std::string& what) {
  for (const auto& exp : wl.expected)
    for (std::size_t i = 0; i < exp.values.size(); ++i) {
      const int64_t got = s.read_global(exp.name, static_cast<uint32_t>(i));
      if (got != exp.values[i])
        throw sw::Error("replay: " + wl.name + " produced wrong output in " +
                        what + ": " + exp.name + "[" + std::to_string(i) +
                        "] = " + std::to_string(got));
    }
}

} // namespace

uint64_t image_hash(const sw::link::Image& img) {
  uint64_t h = 0xcbf29ce484222325ull;
  fnv(h, img.entry, 4);
  for (const auto& seg : img.segments) {
    fnv(h, seg.base, 4);
    fnv(h, seg.bytes.size(), 4);
    for (const uint8_t b : seg.bytes) fnv(h, b, 1);
  }
  return h;
}

std::shared_ptr<const WorkloadInfo> Replay::lower(const std::string& name) {
  const Tracer::Scope s(t_, "workloads.lower");
  auto& reg = sw::workloads::WorkloadRegistry::instance();
  const std::size_t before = reg.size();
  auto wl = reg.benchmark(name);
  counters.lowered += reg.size() - before;
  return wl;
}

std::shared_ptr<const sw::link::Image>
Replay::canonical_image(const WorkloadInfo& wl) {
  return cache_.image(wl, [&] {
    const Tracer::Scope s(t_, "link.link");
    ++counters.link_calls;
    return sw::link::link_program(wl.module, {}, {});
  });
}

std::shared_ptr<const sw::program::DecodedImage>
Replay::canonical_decoded(const WorkloadInfo& wl, const sw::link::Image& img) {
  return cache_.decoded(wl, [&] {
    const Tracer::Scope s(t_, "program.decode");
    return sw::program::DecodedImage(img);
  });
}

std::shared_ptr<const sw::wcet::ProgramShape>
Replay::shape(const WorkloadInfo& wl, const sw::link::Image& img,
              const sw::program::DecodedImage& dec) {
  return cache_.shape(wl, [&] {
    const Tracer::Scope s(t_, "wcet.shape");
    return sw::wcet::build_shape(img, dec);
  });
}

SweepPoint Replay::point(const WorkloadInfo& wl, MemSetup setup,
                         uint32_t size) {
  t_.begin_point();
  seen_.insert(&wl);
  const Tracer::Scope s(t_, "harness.point");
  return setup == MemSetup::Scratchpad ? spm_point(wl, size)
                                       : cache_point(wl, size);
}

SweepPoint Replay::spm_point(const WorkloadInfo& wl, uint32_t size) {
  // 1. The size-independent allocation profile: one no-assignment
  //    profiling simulation per workload per session.
  const auto profile = cache_.profile(wl, [&] {
    const auto img = canonical_image(wl);
    const auto dec = canonical_decoded(wl, *img);
    const auto blocks = cache_.blocks(wl, [&] {
      const Tracer::Scope b(t_, "sim.block_compile");
      const sw::sim::SymbolIndex syms(*img);
      return sw::sim::BlockTable(*dec, syms, *img);
    });
    sw::sim::SimConfig pcfg;
    pcfg.collect_profile = true;
    pcfg.predecoded = dec.get();
    pcfg.compiled_blocks = blocks.get();
    std::optional<sw::sim::Simulator> profiler;
    {
      const Tracer::Scope b(t_, "sim.setup");
      profiler.emplace(*img, pcfg);
    }
    const Tracer::Scope r(t_, "sim.run");
    sw::sim::SimResult run = profiler->run();
    counters.sim_instr += run.instructions;
    return std::move(run.profile);
  });

  sw::alloc::AllocationResult alloc;
  {
    const Tracer::Scope a(t_, "alloc.allocate");
    ++counters.alloc_calls;
    alloc = sw::alloc::allocate_energy_optimal(wl.module, *profile, size);
  }

  // 2. The placed image: link, decode, compile, simulate, analyze.
  sw::link::LinkOptions opts;
  opts.spm_size = size;
  std::optional<sw::link::Image> img;
  {
    const Tracer::Scope l(t_, "link.link");
    ++counters.link_calls;
    img.emplace(sw::link::link_program(wl.module, opts, alloc.assignment));
  }
  ++counters.spm_points;
  counters.spm_images.insert(image_hash(*img));
  std::optional<sw::program::DecodedImage> dec;
  {
    const Tracer::Scope d(t_, "program.decode");
    dec.emplace(*img);
  }
  std::optional<sw::sim::BlockTable> blocks;
  {
    const Tracer::Scope b(t_, "sim.block_compile");
    const sw::sim::SymbolIndex syms(*img);
    blocks.emplace(*dec, syms, *img);
  }
  sw::sim::SimConfig scfg;
  scfg.collect_profile = true;
  scfg.predecoded = &*dec;
  scfg.compiled_blocks = &*blocks;
  std::optional<sw::sim::Simulator> sim;
  {
    const Tracer::Scope b(t_, "sim.setup");
    sim.emplace(*img, scfg);
  }
  sw::sim::SimResult run;
  {
    const Tracer::Scope r(t_, "sim.run");
    run = sim->run();
  }
  counters.sim_instr += run.instructions;
  validate(wl, *sim, "spm/" + std::to_string(size));

  const auto shp = shape(wl, *img, *dec);
  std::optional<sw::wcet::ProgramView> view;
  {
    const Tracer::Scope b(t_, "wcet.bind");
    ++counters.binds;
    view.emplace(sw::wcet::bind_view(shp, *img, *dec));
  }
  const auto ipet = cache_.ipet(wl);
  sw::wcet::AnalyzerConfig acfg;
  acfg.ipet_cache = ipet.get();
  sw::wcet::WcetReport report;
  {
    const Tracer::Scope a(t_, "wcet.analyze");
    report = sw::wcet::analyze_wcet(*view, acfg);
  }

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = run.cycles;
  pt.wcet_cycles = report.wcet;
  pt.ratio = static_cast<double>(report.wcet) / static_cast<double>(run.cycles);
  pt.spm_used_bytes = alloc.used_bytes;
  return pt;
}

SweepPoint Replay::cache_point(const WorkloadInfo& wl, uint32_t size) {
  const auto img = canonical_image(wl);
  const auto dec = canonical_decoded(wl, *img);

  sw::cache::CacheConfig ccfg;
  ccfg.size_bytes = size;
  ccfg.line_bytes = 16;
  // A functional cache turns the block tier off, so no table is compiled.
  sw::sim::SimConfig scfg;
  scfg.cache = ccfg;
  scfg.collect_profile = true;
  scfg.predecoded = dec.get();
  std::optional<sw::sim::Simulator> sim;
  {
    const Tracer::Scope b(t_, "sim.setup");
    sim.emplace(*img, scfg);
  }
  sw::sim::SimResult run;
  {
    const Tracer::Scope r(t_, "sim.run");
    run = sim->run();
  }
  counters.sim_instr += run.instructions;
  validate(wl, *sim, "cache/" + std::to_string(size));

  const auto view = cache_.view(wl, [&] {
    const auto shp = shape(wl, *img, *dec);
    const Tracer::Scope b(t_, "wcet.bind");
    ++counters.binds;
    sw::wcet::ProgramView v = sw::wcet::bind_view(shp, *img, *dec);
    v.pinned_image = img;
    return v;
  });
  const auto ipet = cache_.ipet(wl);
  sw::wcet::AnalyzerConfig acfg;
  acfg.cache = ccfg;
  acfg.ipet_cache = ipet.get();
  sw::wcet::WcetReport report;
  {
    const Tracer::Scope a(t_, "wcet.analyze");
    report = sw::wcet::analyze_wcet(*view, acfg);
  }

  SweepPoint pt;
  pt.size_bytes = size;
  pt.sim_cycles = run.cycles;
  pt.wcet_cycles = report.wcet;
  pt.ratio = static_cast<double>(report.wcet) / static_cast<double>(run.cycles);
  pt.cache_hits = run.cache_hits;
  pt.cache_misses = run.cache_misses;
  return pt;
}

sw::wcet::IpetCacheStats Replay::ipet_stats() {
  sw::wcet::IpetCacheStats sum;
  for (const WorkloadInfo* wl : seen_) {
    const auto st = cache_.ipet(*wl)->stats();
    sum.builds += st.builds;
    sum.hits += st.hits;
    sum.fallbacks += st.fallbacks;
  }
  return sum;
}

} // namespace perfbench
