// Correctness checks applied to every result the benchmark times.
//
// Each check compares against an independent computation or a property of
// the method, never against a stored copy of an earlier run:
//  * the request succeeded (the pipeline validates every simulated output
//    against the workload's native/interpreter reference itself);
//  * WCET >= simulated cycles (soundness of the bound);
//  * SPM bytes used <= SPM size;
//  * under a cache, hits + misses is the same at every size (the cache is
//    transparent to the instruction stream);
//  * under the direct-mapped cache, misses never rise as the cache doubles
//    (inclusion);
//  * the paper's claim: the cache WCET/ACET ratio exceeds the scratchpad
//    ratio at every size;
//  * corpus aggregates equal the ones recomputed from per-point results;
//  * a served point equals the same point computed in-process.
// A check that fails marks the operations it concerns as failed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "harness/experiment.h"

namespace perfbench {

using spmwcet::harness::MemSetup;
using spmwcet::harness::SweepPoint;

/// One computed (workload, setup, size) point, as some request returned it.
struct PointRecord {
  std::string workload;
  MemSetup setup = MemSetup::Scratchpad;
  uint32_t size = 0;
  bool ok = true; ///< the request returned a result
  std::string error;
  SweepPoint point;
};

/// Per-operation verdicts: `failed[i]` belongs to operation i of the
/// caller's numbering. Messages are capped; the count is not.
class Verdicts {
public:
  explicit Verdicts(std::size_t ops) : failed_(ops, false) {}

  void fail(std::size_t op, const std::string& why);
  bool failed(std::size_t op) const { return failed_[op]; }
  std::size_t failed_count() const;
  const std::vector<std::string>& messages() const { return messages_; }

private:
  std::vector<bool> failed_;
  std::vector<std::string> messages_;
};

/// Request success, WCET >= sim and SPM usage per point; hit+miss
/// constancy and miss monotonicity per (workload, cache) series. Record i
/// is operation i.
void check_points(const std::vector<PointRecord>& recs, Verdicts& v);

/// The paper's claim: for every (workload, size) that has both setups,
/// the cache ratio exceeds the scratchpad ratio (the cache record fails).
void check_paper_claim(const std::vector<PointRecord>& recs, Verdicts& v);

/// Field-exact equality of two points (doubles to a relative 1e-12).
bool same_point(const SweepPoint& a, const SweepPoint& b);

/// Recomputes a corpus's per-size min/mean/max and cycle totals from its
/// per-point results (`per_member[m][s]` = member m at corpus.sizes[s])
/// and returns, per size index, whether the corpus result agrees. A
/// totals mismatch fails every size.
std::vector<bool> corpus_agrees(
    const spmwcet::api::CorpusResult& corpus,
    const std::vector<std::vector<SweepPoint>>& per_member,
    std::vector<std::string>* why = nullptr);

} // namespace perfbench
