// Experiment harness: reproduces the paper's workflow (Figure 1) for one
// benchmark and one memory configuration, and sweeps memory sizes from
// 64 bytes to 8 KiB.
//
// Scratchpad branch (per size): profile a main-memory-only run, solve the
// energy knapsack, relink with the chosen objects on the SPM, simulate the
// typical input (ACET), and run the WCET analyzer — no cache analysis.
// Cache branch (per size): simulate with the unified direct-mapped cache
// and analyze with the MUST-only cache analysis.
//
// Every point validates the simulated outputs against the workload's native
// reference, so a timing experiment can never silently run a miscompiled
// binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "support/deadline.h"
#include "support/table_printer.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

class ArtifactCache;

enum class MemSetup : uint8_t { Scratchpad, Cache };

struct SweepConfig {
  MemSetup setup = MemSetup::Scratchpad;
  /// Paper range: 64 B .. 8 KiB.
  std::vector<uint32_t> sizes = {64, 128, 256, 512, 1024, 2048, 4096, 8192};
  // Cache-branch options (future-work ablations):
  uint32_t cache_assoc = 1;
  bool cache_unified = true;
  bool with_persistence = false;
  // Scratchpad-branch option: WCET-driven allocation instead of the
  // energy knapsack (future-work ablation).
  bool wcet_driven_alloc = false;
  /// Worker threads for run_sweep: 1 = serial, 0 = all hardware threads.
  /// Points are independent pipeline runs; ordering stays deterministic.
  unsigned jobs = 1;
  /// Test oracle only: run the seed pipeline instead of the production one.
  /// Production shares every size-independent artifact through `artifacts`,
  /// predecodes, runs the simulator's block tier and the IR analyzer with
  /// incremental IPET, and computes each scratchpad placement once. The
  /// reference links every point itself, interprets with the seed
  /// simulator (sim::SimConfig::fast_path = false), analyzes with the seed
  /// analyzer (wcet::AnalyzerConfig::fast_path = false) and caches nothing.
  /// The parity suites pin both to field-identical points.
  bool reference = false;
  /// Artifact cache shared across points: batch-scoped when
  /// SweepRunner::run_matrix injects it, session-scoped from the Engine.
  /// Null (e.g. a standalone run_point call) gives each point a cache of
  /// its own. The reference pipeline ignores it.
  ArtifactCache* artifacts = nullptr;
  /// Cooperative wall-time budget: the pipeline checks it at stage
  /// boundaries (allocate/simulate/analyze) and aborts the point with
  /// support::DeadlineExceededError past it. Default-constructed =
  /// unbounded, the historical behavior.
  support::Deadline deadline;
};

struct SweepPoint {
  uint32_t size_bytes = 0;
  uint64_t sim_cycles = 0;  ///< ACET (typical input)
  uint64_t wcet_cycles = 0; ///< analyzed bound
  double ratio = 0.0;       ///< WCET / ACET
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint32_t spm_used_bytes = 0;
  double energy_nj = 0.0; ///< estimated from the access profile
};

namespace detail {
/// The pipeline primitive: profile/allocate/relink/simulate/analyze one
/// (setup, size) point exactly as configured. This is what the Engine and
/// the sweep workers execute; it is not part of the public surface.
SweepPoint execute_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                         uint32_t size_bytes, const SweepConfig& cfg);
} // namespace detail

/// Runs one configuration point. Compatibility shim over
/// api::Engine::run_point — new code should construct an api::Engine and
/// submit PointRequests (or call the Engine's session API directly).
SweepPoint run_point(const workloads::WorkloadInfo& wl, MemSetup setup,
                     uint32_t size_bytes, const SweepConfig& cfg);

/// Runs the full size sweep. Compatibility shim over
/// api::Engine::run_sweep (cfg.jobs selects the pool width).
std::vector<SweepPoint> run_sweep(const workloads::WorkloadInfo& wl,
                                  const SweepConfig& cfg);

/// Renders sweep rows in the paper's figure style.
TablePrinter to_table(const std::string& benchmark, MemSetup setup,
                      const std::vector<SweepPoint>& points);

const char* to_string(MemSetup setup);

} // namespace spmwcet::harness
