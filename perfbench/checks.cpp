#include "checks.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace perfbench {

namespace {

constexpr std::size_t kMaxMessages = 20;

bool close(double a, double b) {
  return a == b || std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

std::string where(const PointRecord& r) {
  return r.workload + "/" + spmwcet::harness::to_string(r.setup) + "/" +
         std::to_string(r.size);
}

} // namespace

void Verdicts::fail(std::size_t op, const std::string& why) {
  failed_[op] = true;
  if (messages_.size() < kMaxMessages) messages_.push_back(why);
}

std::size_t Verdicts::failed_count() const {
  return static_cast<std::size_t>(
      std::count(failed_.begin(), failed_.end(), true));
}

void check_points(const std::vector<PointRecord>& recs, Verdicts& v) {
  // Cache series per workload, ordered by size.
  std::map<std::string, std::vector<std::size_t>> cache_series;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PointRecord& r = recs[i];
    if (!r.ok) {
      v.fail(i, where(r) + ": request failed: " + r.error);
      continue;
    }
    const SweepPoint& p = r.point;
    if (p.wcet_cycles < p.sim_cycles)
      v.fail(i, where(r) + ": WCET " + std::to_string(p.wcet_cycles) +
                    " below simulated " + std::to_string(p.sim_cycles));
    if (r.setup == MemSetup::Scratchpad && p.spm_used_bytes > r.size)
      v.fail(i, where(r) + ": SPM used " + std::to_string(p.spm_used_bytes) +
                    " exceeds its size");
    if (r.setup == MemSetup::Cache) cache_series[r.workload].push_back(i);
  }
  for (auto& [name, idx] : cache_series) {
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return recs[a].size < recs[b].size;
    });
    // Repeated requests of one size collapse onto the first occurrence.
    const PointRecord& first = recs[idx.front()];
    const uint64_t accesses =
        first.point.cache_hits + first.point.cache_misses;
    const PointRecord* prev = nullptr;
    for (const std::size_t i : idx) {
      const PointRecord& r = recs[i];
      if (r.point.cache_hits + r.point.cache_misses != accesses)
        v.fail(i, where(r) + ": " +
                      std::to_string(r.point.cache_hits +
                                     r.point.cache_misses) +
                      " cache accesses, " + std::to_string(accesses) +
                      " at size " + std::to_string(first.size));
      if (prev != nullptr && r.size > prev->size &&
          r.point.cache_misses > prev->point.cache_misses)
        v.fail(i, where(r) + ": " + std::to_string(r.point.cache_misses) +
                      " misses, more than " +
                      std::to_string(prev->point.cache_misses) +
                      " in the smaller cache of " + std::to_string(prev->size));
      prev = &r;
    }
  }
}

void check_paper_claim(const std::vector<PointRecord>& recs, Verdicts& v) {
  std::map<std::tuple<std::string, uint32_t>, std::size_t> spm;
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].ok && recs[i].setup == MemSetup::Scratchpad)
      spm[{recs[i].workload, recs[i].size}] = i;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PointRecord& r = recs[i];
    if (!r.ok || r.setup != MemSetup::Cache) continue;
    const auto it = spm.find({r.workload, r.size});
    if (it == spm.end()) continue;
    const double spm_ratio = recs[it->second].point.ratio;
    if (!(r.point.ratio > spm_ratio))
      v.fail(i, where(r) + ": cache WCET/ACET " +
                    std::to_string(r.point.ratio) +
                    " does not exceed the scratchpad's " +
                    std::to_string(spm_ratio));
  }
}

bool same_point(const SweepPoint& a, const SweepPoint& b) {
  return a.size_bytes == b.size_bytes && a.sim_cycles == b.sim_cycles &&
         a.wcet_cycles == b.wcet_cycles && close(a.ratio, b.ratio) &&
         a.cache_hits == b.cache_hits && a.cache_misses == b.cache_misses &&
         a.spm_used_bytes == b.spm_used_bytes &&
         close(a.energy_nj, b.energy_nj);
}

std::vector<bool> corpus_agrees(
    const spmwcet::api::CorpusResult& corpus,
    const std::vector<std::vector<SweepPoint>>& per_member,
    std::vector<std::string>* why) {
  const std::size_t sizes = corpus.sizes.size();
  std::vector<bool> ok(sizes, true);
  auto reject = [&](std::size_t s, const std::string& msg) {
    ok[s] = false;
    if (why != nullptr) why->push_back(msg);
  };
  if (per_member.size() != corpus.count || corpus.stats.size() != sizes) {
    for (std::size_t s = 0; s < sizes; ++s)
      reject(s, "corpus shape differs from its per-point results");
    return ok;
  }
  uint64_t sim_total = 0, wcet_total = 0;
  for (std::size_t s = 0; s < sizes; ++s) {
    uint64_t wmin = UINT64_MAX, wmax = 0;
    double rmin = INFINITY, rmax = -INFINITY, emin = INFINITY, emax = -INFINITY;
    double wsum = 0, rsum = 0, esum = 0;
    for (const auto& member : per_member) {
      if (member.size() != sizes) {
        reject(s, "member sweep has the wrong number of sizes");
        break;
      }
      const SweepPoint& p = member[s];
      wmin = std::min(wmin, p.wcet_cycles);
      wmax = std::max(wmax, p.wcet_cycles);
      rmin = std::min(rmin, p.ratio);
      rmax = std::max(rmax, p.ratio);
      emin = std::min(emin, p.energy_nj);
      emax = std::max(emax, p.energy_nj);
      wsum += static_cast<double>(p.wcet_cycles);
      rsum += p.ratio;
      esum += p.energy_nj;
      sim_total += p.sim_cycles;
      wcet_total += p.wcet_cycles;
    }
    const double n = static_cast<double>(per_member.size());
    const auto& st = corpus.stats[s];
    const bool agree =
        st.size_bytes == corpus.sizes[s] && st.wcet_min == wmin &&
        st.wcet_max == wmax && close(st.wcet_mean, wsum / n) &&
        close(st.ratio_min, rmin) && close(st.ratio_max, rmax) &&
        close(st.ratio_mean, rsum / n) && close(st.energy_min_nj, emin) &&
        close(st.energy_max_nj, emax) && close(st.energy_mean_nj, esum / n);
    if (!agree)
      reject(s, "corpus size " + std::to_string(corpus.sizes[s]) +
                    ": min/mean/max differ from the per-point recomputation");
  }
  if (sim_total != corpus.total_sim_cycles ||
      wcet_total != corpus.total_wcet_cycles)
    for (std::size_t s = 0; s < sizes; ++s)
      reject(s, "corpus cycle totals differ from the per-point sums");
  return ok;
}

} // namespace perfbench
