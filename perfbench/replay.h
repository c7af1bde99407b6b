// The traced layer replay.
//
// Replays one (workload, setup, size) point by calling each layer's public
// functions in pipeline order, recording a span around every call:
// WorkloadRegistry lowering, link::link_program, program::DecodedImage,
// sim::BlockTable, the sim::Simulator constructor and run(),
// alloc::allocate_energy_optimal, wcet::build_shape, wcet::bind_view and
// wcet::analyze_wcet(view, cfg) with the workload's IpetCache.
//
// It mirrors harness::detail::execute_point with the artifact cache on,
// the IR analyzer, incremental IPET and the block tier (the defaults every
// request uses): size-independent artifacts come from one
// harness::ArtifactCache per replay session, as they come from one per
// Engine. A pipeline restructured later shows in the end-to-end numbers
// but not in this replay's layer split until the replay follows it.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/artifact_cache.h"
#include "harness/experiment.h"
#include "trace.h"
#include "wcet/ipet.h"
#include "workloads/workload.h"

namespace perfbench {

struct ReplayCounters {
  uint64_t lowered = 0;     ///< programs lowered through the registry
  uint64_t sim_instr = 0;   ///< instructions retired, profiling runs included
  uint64_t alloc_calls = 0;
  uint64_t link_calls = 0;
  uint64_t binds = 0;       ///< wcet::bind_view calls
  uint64_t spm_points = 0;
  std::set<uint64_t> spm_images; ///< hashes of distinct placed images
};

class Replay {
public:
  explicit Replay(Tracer& tracer) : t_(tracer) {}

  /// Lowers (or fetches) a workload through the process-wide registry.
  std::shared_ptr<const spmwcet::workloads::WorkloadInfo>
  lower(const std::string& name);

  /// Replays one point; throws spmwcet::Error when a simulated output
  /// differs from the workload's reference, as the harness does.
  spmwcet::harness::SweepPoint point(const spmwcet::workloads::WorkloadInfo& wl,
                                     spmwcet::harness::MemSetup setup,
                                     uint32_t size);

  const spmwcet::harness::ArtifactCache& cache() const { return cache_; }
  /// IPET skeleton statistics summed over every workload replayed.
  spmwcet::wcet::IpetCacheStats ipet_stats();

  ReplayCounters counters;

private:
  spmwcet::harness::SweepPoint
  spm_point(const spmwcet::workloads::WorkloadInfo& wl, uint32_t size);
  spmwcet::harness::SweepPoint
  cache_point(const spmwcet::workloads::WorkloadInfo& wl, uint32_t size);
  std::shared_ptr<const spmwcet::link::Image>
  canonical_image(const spmwcet::workloads::WorkloadInfo& wl);
  std::shared_ptr<const spmwcet::program::DecodedImage>
  canonical_decoded(const spmwcet::workloads::WorkloadInfo& wl,
                    const spmwcet::link::Image& img);
  std::shared_ptr<const spmwcet::wcet::ProgramShape>
  shape(const spmwcet::workloads::WorkloadInfo& wl,
        const spmwcet::link::Image& img,
        const spmwcet::program::DecodedImage& dec);

  Tracer& t_;
  spmwcet::harness::ArtifactCache cache_;
  std::set<const spmwcet::workloads::WorkloadInfo*> seen_;
};

/// FNV-1a over an image's entry and segments (base + bytes): equal hashes
/// mean the same placed code and data.
uint64_t image_hash(const spmwcet::link::Image& img);

} // namespace perfbench
