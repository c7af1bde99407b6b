// Parallel sweep engine: runs (workload × MemSetup × memory-size) experiment
// points across a persistent worker pool.
//
// Every point is an independent pipeline run (link → simulate → analyze), so
// the batch parallelizes perfectly; results are written into a slot indexed
// by the job's position, which makes the output ordering deterministic no
// matter which worker computes which point. Errors are captured per point and
// surfaced in job order, so a parallel run fails with the same diagnostic as
// the serial loop it replaces.
//
// The pool outlives individual batches: a SweepRunner keeps its workers
// across run()/run_matrix() calls, and the process-wide shared_runner() lets
// every run_matrix invocation in a long-running loop reuse one pool sized
// once by --jobs instead of paying thread start-up per batch. run_matrix also
// scopes one ArtifactCache to each batch, so size-independent artifacts (the
// no-assignment allocation profile) are computed once per workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace spmwcet::harness {

/// One experiment point of a batch. The workload is borrowed, not owned:
/// callers keep their WorkloadInfo alive for the duration of run().
struct SweepJob {
  const workloads::WorkloadInfo* workload = nullptr;
  SweepConfig config; ///< config.setup selects the scratchpad/cache branch
  uint32_t size_bytes = 0;
};

struct SweepOutcome {
  SweepPoint point;
  std::string error; ///< non-empty if this point threw
  /// The point threw support::DeadlineExceededError specifically — the
  /// typed signal survives the worker-thread boundary so run_matrix can
  /// rethrow the same type (and the Engine can answer DeadlineExceeded
  /// instead of a generic ExecutionError).
  bool deadline_exceeded = false;
  bool ok() const { return error.empty(); }
};

struct SweepRunnerOptions {
  /// Worker threads. 0 picks std::thread::hardware_concurrency();
  /// 1 runs in place on the calling thread (no pool threads).
  unsigned jobs = 1;
};

/// One full size sweep of a batch: a workload under one setup/config.
struct MatrixRequest {
  const workloads::WorkloadInfo* workload = nullptr;
  SweepConfig config;
};

class SweepRunner {
public:
  explicit SweepRunner(SweepRunnerOptions opts = {});

  /// Runs every job of the batch; outcome i always corresponds to batch[i].
  /// Jobs that want artifact sharing must carry a config.artifacts cache
  /// themselves — run() executes the batch exactly as given.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& batch) const;

  /// Runs every request's size sweep as ONE flat (workload × setup × size)
  /// batch over the pool, so e.g. a benchmark's scratchpad and cache sweeps
  /// fill the same set of workers instead of running back to back. A
  /// batch-scoped ArtifactCache is injected into every job that has no
  /// cache of its own. Workers claim the points size-major (every request
  /// at sizes[0] first), but result i corresponds to requests[i], points in
  /// cfg.sizes order, and a failure throws the first failing point in that
  /// (request, size) order.
  std::vector<std::vector<SweepPoint>>
  run_matrix(const std::vector<MatrixRequest>& requests) const;

  unsigned jobs() const { return pool_.workers(); }

private:
  mutable support::ThreadPool pool_;
};

/// Process-wide persistent runner: one pool per distinct (resolved) worker
/// count, created on first use and reused by every later call, so sweeps
/// embedded in a long-running loop pay pool spin-up once instead of per
/// batch. The free run_sweep/run_matrix helpers route through this.
SweepRunner& shared_runner(unsigned jobs);

namespace detail {
/// The order in which run_matrix's workers claim its points, as slot
/// indices. Slots are request-major (point s of request r follows every
/// point of requests 0..r-1); claims are size-major — every request at
/// sizes[0], then every request at sizes[1], and so on — so concurrent
/// workers start on different workloads instead of blocking on a sibling
/// size's in-flight per-workload artifact.
std::vector<std::size_t>
claim_order(const std::vector<MatrixRequest>& requests);
} // namespace detail

/// Expands cfg.sizes into a batch for one workload.
std::vector<SweepJob> make_sweep_jobs(const workloads::WorkloadInfo& wl,
                                      const SweepConfig& cfg);

/// Full size sweep for one workload with `jobs` workers. Throws the first
/// failing point in size order — identical failure behavior to the serial
/// loop. run_sweep(wl, cfg) is equivalent to
/// run_sweep_parallel(wl, cfg, cfg.jobs).
std::vector<SweepPoint> run_sweep_parallel(const workloads::WorkloadInfo& wl,
                                           const SweepConfig& cfg,
                                           unsigned jobs);

/// shared_runner(jobs).run_matrix(requests).
std::vector<std::vector<SweepPoint>>
run_matrix(const std::vector<MatrixRequest>& requests, unsigned jobs);

} // namespace spmwcet::harness
