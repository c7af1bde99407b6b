#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "api/engine.h"
#include "api/request.h"
#include "api/wire.h"
#include "checks.h"
#include "replay.h"
#include "serve_client.h"
#include "stats.h"
#include "support/diag.h"
#include "support/json.h"
#include "trace.h"
#include "workloads/workload.h"

namespace perfbench {

namespace sw = spmwcet;
namespace api = spmwcet::api;
using Clock = std::chrono::steady_clock;
using sw::workloads::WorkloadInfo;
using sw::workloads::WorkloadRegistry;

namespace {

/// Set-up is repeated and its median reported: one set-up is a single
/// sample of a noisy host.
constexpr int kSetupRepeats = 5;
/// Untraced Engine passes the traced mode times as its reference.
constexpr int kReferencePasses = 3;
const std::vector<uint32_t> kSizes = {64, 128, 256, 512, 1024, 2048, 4096, 8192};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::time_point after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

template <typename T>
T unwrap(api::Result<T> r, const std::string& what) {
  if (!r.ok()) throw sw::Error("perfbench: " + what + ": " + r.error().render());
  return std::move(r).value();
}

void note(const std::string& msg) { std::cerr << "perfbench: " << msg << "\n"; }

/// Simulated and WCET cycles of every point of one pass: printed as a
/// determinism probe (any divergence anywhere moves them), not gated.
void note_totals(const std::string& per, uint64_t sim, uint64_t wcet) {
  note("determinism totals per " + per + ": " + std::to_string(sim) +
       " simulated cycles, " + std::to_string(wcet) + " WCET cycles");
}

void report(const Verdicts& v, std::size_t& shown) {
  for (const std::string& m : v.messages())
    if (shown++ < 10) note("check failed: " + m);
}

api::EngineOptions engine_options(unsigned jobs) {
  api::EngineOptions e;
  e.jobs = jobs;
  return e;
}

/// Set-up: lower every program from a cleared registry, then run `warm`
/// (which builds an Engine and makes one untimed pass); median of
/// kSetupRepeats.
double setup_median(const std::vector<std::string>& programs,
                    const std::function<void()>& warm) {
  std::vector<double> runs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    WorkloadRegistry::instance().clear();
    const auto t0 = Clock::now();
    for (const std::string& p : programs)
      (void)WorkloadRegistry::instance().benchmark(p);
    warm();
    runs.push_back(since(t0));
  }
  return median(runs);
}

/// A run's timed phase. A window is a batch pass (one request, whose
/// latency is the pass time) or the serve-points requests that cover the
/// request pool once.
struct Timed {
  std::size_t window_points = 0;
  std::vector<double> window_s; ///< wall time of each complete window
  std::vector<double> lat_s;    ///< latency of every timed request
  double wall_s = 0.0;          ///< wall time of the whole timed phase
};

/// points_per_s: points in a window over the median window time.
/// served_rps: timed requests over the timed phase's wall time.
/// lat_p50_ms, lat_p99_ms: over every timed request; the tail is the
/// highest percentile up to p99 with ten samples beyond it, else the median.
std::vector<Metric> timed_metrics(const Timed& t, double setup_s, double rss_mb) {
  std::vector<double> ms;
  for (const double s : t.lat_s) ms.push_back(s * 1e3);
  note(std::to_string(t.window_s.size()) + " windows of " +
       std::to_string(t.window_points) + " points, " +
       std::to_string(ms.size()) + " timed requests; " +
       (tail_percentile(ms, 0.99) ? "p99 has ten samples beyond it"
                                  : "too few samples for a p99"));
  return {{"points_per_s",
           static_cast<double>(t.window_points) / median(t.window_s), "1/s"},
          {"served_rps", static_cast<double>(ms.size()) / t.wall_s, "1/s"},
          {"lat_p50_ms", median(ms), "ms"},
          {"lat_p99_ms", tail_or_median(ms, 0.99), "ms"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", rss_mb, "MB"}};
}

std::vector<std::shared_ptr<const WorkloadInfo>>
resolve_all(const std::vector<std::string>& names) {
  std::vector<std::shared_ptr<const WorkloadInfo>> out;
  for (const std::string& n : names)
    out.push_back(WorkloadRegistry::instance().benchmark(n));
  return out;
}

double ratio(const sw::support::MemoStats& s) {
  const uint64_t all = s.hits + s.misses;
  return all == 0 ? 0.0 : static_cast<double>(s.hits) / static_cast<double>(all);
}

// ---------------------------------------------------------------------------
// Traced mode: the layer replay.
// ---------------------------------------------------------------------------

/// One point the replay runs, with the Engine's result for it.
struct ReplayPoint {
  std::shared_ptr<const WorkloadInfo> wl;
  sw::harness::MemSetup setup = sw::harness::MemSetup::Scratchpad;
  uint32_t size = 0;
  sw::harness::SweepPoint engine;
};

/// The fields the replay reproduces (it does not estimate energy).
bool replay_matches(const sw::harness::SweepPoint& r,
                    const sw::harness::SweepPoint& e) {
  return r.sim_cycles == e.sim_cycles && r.wcet_cycles == e.wcet_cycles &&
         r.cache_hits == e.cache_hits && r.cache_misses == e.cache_misses &&
         r.spm_used_bytes == e.spm_used_bytes;
}

/// Layer totals accumulated over a traced run, turned into per-unit means.
struct LayerTotals {
  ReplayCounters counters;
  uint64_t distinct_images = 0;
  sw::wcet::IpetCacheStats ipet;
  sw::support::MemoStats decoded, blocks;

  void add(Replay& r) {
    const ReplayCounters& c = r.counters;
    counters.sim_instr += c.sim_instr;
    counters.alloc_calls += c.alloc_calls;
    counters.link_calls += c.link_calls;
    counters.binds += c.binds;
    counters.spm_points += c.spm_points;
    distinct_images += c.spm_images.size();
    const auto ip = r.ipet_stats();
    ipet.builds += ip.builds;
    ipet.hits += ip.hits;
    ipet.fallbacks += ip.fallbacks;
    const auto d = r.cache().decoded_stats(), b = r.cache().blocks_stats();
    decoded.hits += d.hits;
    decoded.misses += d.misses;
    blocks.hits += b.hits;
    blocks.misses += b.misses;
  }

  /// Drops what `earlier` (a snapshot of the same replay) already counted.
  void subtract(const LayerTotals& earlier) {
    ipet.builds -= earlier.ipet.builds;
    ipet.hits -= earlier.ipet.hits;
    ipet.fallbacks -= earlier.ipet.fallbacks;
    decoded.hits -= earlier.decoded.hits;
    decoded.misses -= earlier.decoded.misses;
    blocks.hits -= earlier.blocks.hits;
    blocks.misses -= earlier.blocks.misses;
  }
};

struct ApiTimes {
  double decode_us = 0, encode_us = 0, compute_ms = 0, transport_ms = 0;
  double response_hit_ratio = 0;
};

/// The per-layer metrics: layer totals divided by `units` (passes for a
/// batch workload, timed requests for serve-points).
std::vector<Metric> layer_metrics(const Tracer& tracer, const LayerTotals& t,
                                  double units, double lower_ms,
                                  uint64_t programs,
                                  const api::EngineStats& engine,
                                  const ApiTimes& api_t, double overhead_pct) {
  const auto self = tracer.self_ns();
  auto ms = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6 / units;
  };
  auto per = [&](uint64_t n) { return static_cast<double>(n) / units; };
  const double run_ms = ms("sim.run");
  const double spm = static_cast<double>(t.counters.spm_points);
  return {
      {"sim.run_ms", run_ms, "ms"},
      {"sim.instr", per(t.counters.sim_instr), "count"},
      {"sim.instr_per_s",
       run_ms > 0 ? per(t.counters.sim_instr) / (run_ms / 1e3) : 0.0, "1/s"},
      {"sim.setup_ms", ms("sim.setup"), "ms"},
      {"sim.block_compile_ms", ms("sim.block_compile"), "ms"},
      {"wcet.bind_ms", ms("wcet.bind"), "ms"},
      {"wcet.binds", per(t.counters.binds), "count"},
      {"wcet.analyze_ms", ms("wcet.analyze"), "ms"},
      {"wcet.shape_ms", ms("wcet.shape"), "ms"},
      {"alloc.allocate_ms", ms("alloc.allocate"), "ms"},
      {"alloc.calls", per(t.counters.alloc_calls), "count"},
      {"link.link_ms", ms("link.link"), "ms"},
      {"link.calls", per(t.counters.link_calls), "count"},
      {"program.decode_ms", ms("program.decode"), "ms"},
      {"harness.point_ms", ms("harness.point"), "ms"},
      {"harness.distinct_image_ratio",
       spm > 0 ? static_cast<double>(t.distinct_images) / spm : 0.0, "ratio"},
      {"harness.profile_hit_ratio", ratio(engine.profile_artifacts), "ratio"},
      {"harness.image_hit_ratio", ratio(engine.image_artifacts), "ratio"},
      {"harness.decoded_hit_ratio", ratio(t.decoded), "ratio"},
      {"harness.blocks_hit_ratio", ratio(t.blocks), "ratio"},
      {"harness.shape_hit_ratio", ratio(engine.shape_artifacts), "ratio"},
      {"harness.view_hit_ratio", ratio(engine.view_artifacts), "ratio"},
      {"lp.ipet_builds", per(t.ipet.builds), "count"},
      {"lp.ipet_hits", per(t.ipet.hits), "count"},
      {"lp.ipet_fallbacks", per(t.ipet.fallbacks), "count"},
      {"workloads.lower_ms", lower_ms, "ms"},
      {"workloads.programs", static_cast<double>(programs), "count"},
      {"api.decode_us", api_t.decode_us, "us"},
      {"api.encode_us", api_t.encode_us, "us"},
      {"api.compute_ms", api_t.compute_ms, "ms"},
      {"api.transport_ms", api_t.transport_ms, "ms"},
      {"api.response_hit_ratio", api_t.response_hit_ratio, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };
}

/// Lowers `programs` from a cleared registry under spans; returns the
/// lowering time in ms and the number of programs lowered.
std::pair<double, uint64_t> traced_lowering(const std::vector<std::string>& programs) {
  WorkloadRegistry::instance().clear();
  Tracer t;
  Replay r(t);
  for (const std::string& p : programs) (void)r.lower(p);
  const auto self = t.self_ns();
  const auto it = self.find("workloads.lower");
  return {it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6,
          r.counters.lowered};
}

void write_spans(const Tracer& t, const Options& o) {
  const std::string path = o.workdir + "/spans-" + o.workload + ".txt";
  if (!t.write(path)) throw sw::Error("perfbench: cannot write " + path);
  note(std::to_string(t.spans().size()) + " spans written to " + path);
}

/// Replays one point and compares it with the Engine's result; false (and
/// a note) when it differs or throws.
bool replay_one(Replay& replay, const WorkloadInfo& wl, sw::harness::MemSetup setup,
                uint32_t size, const sw::harness::SweepPoint& engine,
                std::size_t& shown) {
  try {
    if (replay_matches(replay.point(wl, setup, size), engine)) return true;
    if (shown++ < 10)
      note("replay differs from the Engine at " + wl.name + "/" +
           sw::harness::to_string(setup) + "/" + std::to_string(size));
  } catch (const std::exception& e) {
    if (shown++ < 10) note(std::string("replay failed: ") + e.what());
  }
  return false;
}

/// Replays `points` pass after pass for o.seconds, each pass against a
/// fresh replay cache as each Engine pass starts cold. Passes alternate
/// between a traced and an untraced replay; the layer metrics come from
/// the traced ones and the tracing overhead from the two medians.
Outcome traced_batch(const Options& o, const std::vector<std::string>& programs,
                     const std::vector<ReplayPoint>& points,
                     const std::vector<double>& engine_pass_s,
                     const api::EngineStats& engine_stats,
                     const std::string& request_line,
                     const std::function<std::string()>& encode) {
  const auto [lower_ms, lowered] = traced_lowering(programs);
  Outcome out;
  Tracer tracer, untraced(false);
  LayerTotals totals;
  std::vector<double> traced_s, untraced_s;
  ApiTimes api_t;
  std::size_t shown = 0;
  const auto end = after(o.seconds);
  do {
    const bool traced = traced_s.size() <= untraced_s.size();
    Replay replay(traced ? tracer : untraced);
    const auto t0 = Clock::now();
    for (const ReplayPoint& p : points) {
      ++out.attempted;
      if (!replay_one(replay, *p.wl, p.setup, p.size, p.engine, shown))
        ++out.failed;
    }
    (traced ? traced_s : untraced_s).push_back(since(t0));
    if (!traced) continue;
    totals.add(replay);
    // The api layer's share of one request: decode its line, encode its
    // result.
    auto t1 = Clock::now();
    const auto parsed = sw::api::wire::parse_request(request_line);
    api_t.decode_us += since(t1) * 1e6;
    if (!parsed.ok()) throw sw::Error("perfbench: request line does not parse");
    t1 = Clock::now();
    const std::string encoded = encode();
    api_t.encode_us += since(t1) * 1e6;
  } while (Clock::now() < end || untraced_s.empty());
  write_spans(tracer, o);

  const double passes = static_cast<double>(traced_s.size());
  api_t.decode_us /= passes;
  api_t.encode_us /= passes;
  const double engine_med = median(engine_pass_s);
  api_t.compute_ms = engine_med * 1e3;
  api_t.response_hit_ratio =
      engine_stats.requests == 0
          ? 0.0
          : static_cast<double>(engine_stats.response_hits) /
                static_cast<double>(engine_stats.requests);
  const double traced_med = median(traced_s), untraced_med = median(untraced_s);
  const double overhead = (traced_med / untraced_med - 1.0) * 100.0;
  note("replay pass " + std::to_string(traced_med * 1e3) + " ms traced, " +
       std::to_string(untraced_med * 1e3) + " ms untraced: tracing overhead " +
       std::to_string(overhead) + "%; the untraced replay takes " +
       std::to_string(100.0 * untraced_med / engine_med) +
       "% of an Engine pass at one worker");
  out.metrics = layer_metrics(tracer, totals, passes, lower_ms, lowered,
                              engine_stats, api_t, overhead);
  return out;
}

// ---------------------------------------------------------------------------
// corpus-spm
// ---------------------------------------------------------------------------

/// Per-member sweeps of the corpus's points (one sweep request over the
/// members), the independent per-point results the corpus aggregates are
/// recomputed from.
std::vector<std::vector<sw::harness::SweepPoint>>
member_sweeps(const api::CorpusRequest& creq, unsigned jobs) {
  const auto sreq = unwrap(
      api::SweepRequest::make(creq.workload_names(), creq.setup(), creq.sizes()),
      "sweep request");
  api::Engine e(engine_options(jobs));
  auto r = unwrap(e.sweep(sreq), "member sweep");
  std::vector<std::vector<sw::harness::SweepPoint>> out;
  for (auto& s : r.series) out.push_back(std::move(s.points));
  return out;
}

std::vector<PointRecord>
member_records(const api::CorpusRequest& creq,
               const std::vector<std::vector<sw::harness::SweepPoint>>& sweeps) {
  std::vector<PointRecord> recs;
  const auto names = creq.workload_names();
  for (std::size_t m = 0; m < sweeps.size(); ++m)
    for (const auto& p : sweeps[m]) {
      PointRecord r;
      r.workload = names[m];
      r.setup = creq.setup();
      r.size = p.size_bytes;
      r.point = p;
      recs.push_back(std::move(r));
    }
  return recs;
}

Outcome corpus_spm(const Options& o) {
  constexpr unsigned kJobs = 2;
  const auto req = unwrap(
      api::CorpusRequest::make("mixed", kCorpusBase, kCorpusCount,
                               sw::harness::MemSetup::Scratchpad),
      "corpus request");
  const std::vector<std::string> programs = req.workload_names();
  const std::size_t nsizes = req.sizes().size();
  const std::size_t points = programs.size() * nsizes;

  if (o.trace) {
    WorkloadRegistry::instance().clear();
    const auto wls = resolve_all(programs);
    std::vector<double> engine_s;
    std::optional<api::CorpusResult> ref;
    api::EngineStats stats;
    for (int i = 0; i < kReferencePasses; ++i) {
      api::Engine e(engine_options(1));
      const auto t0 = Clock::now();
      auto r = unwrap(e.corpus(req), "corpus");
      engine_s.push_back(since(t0));
      if (!ref) {
        ref = std::move(r);
        stats = e.stats();
      }
    }
    const auto sweeps = member_sweeps(req, 1);
    const auto recs = member_records(req, sweeps);
    Verdicts v(recs.size());
    check_points(recs, v);
    std::size_t shown = 0;
    report(v, shown);
    const auto agree = corpus_agrees(*ref, sweeps);
    std::vector<ReplayPoint> pts;
    for (std::size_t m = 0; m < sweeps.size(); ++m)
      for (const auto& p : sweeps[m])
        pts.push_back({wls[m], req.setup(), p.size_bytes, p});
    Outcome out = traced_batch(
        o, programs, pts, engine_s, stats,
        R"({"v":1,"id":1,"op":"corpus","shape":"mixed","base":)" +
            std::to_string(req.base_seed()) + R"(,"count":)" +
            std::to_string(req.count()) + R"(,"setup":"spm"})",
        [&] { return api::wire::encode_response(1, *ref); });
    out.attempted += recs.size();
    for (std::size_t i = 0; i < recs.size(); ++i)
      if (v.failed(i) || !agree[i % nsizes]) ++out.failed;
    return out;
  }

  const double setup = setup_median(programs, [&] {
    api::Engine e(engine_options(kJobs));
    (void)unwrap(e.corpus(req), "corpus");
  });
  const auto sweeps = member_sweeps(req, kJobs);
  const auto recs = member_records(req, sweeps);
  Verdicts ref_v(recs.size());
  check_points(recs, ref_v);
  std::size_t shown = 0;
  report(ref_v, shown);

  Outcome out;
  Timed timed;
  timed.window_points = points;
  uint64_t sim_total = 0, wcet_total = 0;
  const auto end = after(o.seconds);
  do {
    api::Engine e(engine_options(kJobs));
    const auto t0 = Clock::now();
    auto r = e.corpus(req);
    const double pass_s = since(t0);
    timed.window_s.push_back(pass_s);
    timed.lat_s.push_back(pass_s);
    timed.wall_s += pass_s;
    out.attempted += points;
    if (!r.ok()) {
      out.failed += points;
      if (shown++ < 10) note("corpus failed: " + r.error().render());
      continue;
    }
    std::vector<std::string> why;
    const auto agree = corpus_agrees(r.value(), sweeps, &why);
    for (const std::string& w : why)
      if (shown++ < 10) note("check failed: " + w);
    for (std::size_t i = 0; i < points; ++i)
      if (i >= recs.size() || ref_v.failed(i) || !agree[i % nsizes])
        ++out.failed;
    sim_total = r.value().total_sim_cycles;
    wcet_total = r.value().total_wcet_cycles;
  } while (Clock::now() < end);
  note_totals("pass", sim_total, wcet_total);
  out.metrics = timed_metrics(timed, setup, peak_rss_mb("self"));
  return out;
}

// ---------------------------------------------------------------------------
// serve-points
// ---------------------------------------------------------------------------

struct Served {
  std::size_t key = 0;
  double latency_s = 0.0;
  std::string response;
};

/// Decodes a point response; nullopt (with `why`) when it is an error.
std::optional<sw::harness::SweepPoint> decode_point(const std::string& line,
                                                    std::string& why) {
  try {
    const auto v = sw::support::json::parse(line);
    const auto* ok = v.find("ok");
    if (ok == nullptr || !ok->as_bool()) {
      why = line;
      return std::nullopt;
    }
    const auto* p = v.find("result")->find("point");
    sw::harness::SweepPoint pt;
    pt.size_bytes = static_cast<uint32_t>(p->find("size_bytes")->as_int());
    pt.sim_cycles = static_cast<uint64_t>(p->find("sim_cycles")->as_int());
    pt.wcet_cycles = static_cast<uint64_t>(p->find("wcet_cycles")->as_int());
    pt.ratio = p->find("ratio")->as_double();
    pt.cache_hits = static_cast<uint64_t>(p->find("cache_hits")->as_int());
    pt.cache_misses = static_cast<uint64_t>(p->find("cache_misses")->as_int());
    pt.spm_used_bytes = static_cast<uint32_t>(p->find("spm_used_bytes")->as_int());
    pt.energy_nj = p->find("energy_nj")->as_double();
    return pt;
  } catch (const std::exception& e) {
    why = std::string("undecodable response: ") + e.what();
    return std::nullopt;
  }
}

api::PointRequest point_request(const StreamKey& k) {
  return unwrap(api::PointRequest::make(k.workload, k.setup, k.size),
                "point request");
}

/// Checks every timed response against the same point computed on
/// `engine` (a separate in-process Engine) and against the point
/// properties; returns which requests failed.
std::vector<bool> check_served(const ServeStream& stream, const std::vector<Served>& served,
                      api::Engine& engine) {
  std::vector<PointRecord> recs;
  recs.reserve(served.size());
  std::vector<bool> mismatch(served.size(), false);
  std::map<std::size_t, std::optional<sw::harness::SweepPoint>> local;
  std::size_t shown = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const StreamKey& k = stream.pool()[served[i].key];
    PointRecord r;
    r.workload = k.workload;
    r.setup = k.setup;
    r.size = k.size;
    std::string why;
    const auto got = decode_point(served[i].response, why);
    r.ok = got.has_value();
    r.error = why;
    if (got) r.point = *got;
    auto it = local.find(served[i].key);
    if (it == local.end()) {
      auto res = engine.point(point_request(k));
      it = local.emplace(served[i].key,
                         res.ok() ? std::optional(res.value().point) : std::nullopt)
               .first;
    }
    if (r.ok && (!it->second || !same_point(*got, *it->second))) {
      mismatch[i] = true;
      if (shown++ < 10)
        note("served point differs from the in-process one: " + k.workload +
             "/" + api::setup_name(k.setup) + "/" + std::to_string(k.size));
    }
    recs.push_back(std::move(r));
  }
  uint64_t sim = 0, wcet = 0;
  for (const auto& [key, pt] : local)
    if (pt) {
      sim += pt->sim_cycles;
      wcet += pt->wcet_cycles;
    }
  if (local.size() == stream.pool().size()) note_totals("pool cycle", sim, wcet);
  Verdicts v(recs.size());
  check_points(recs, v);
  report(v, shown);
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (v.failed(i)) mismatch[i] = true;
  // The paper's claim holds for its own programs, not for generated ones.
  const auto& paper = sw::workloads::paper_benchmark_names();
  std::vector<std::size_t> paper_idx;
  std::vector<PointRecord> paper_recs;
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (std::find(paper.begin(), paper.end(), recs[i].workload) != paper.end()) {
      paper_idx.push_back(i);
      paper_recs.push_back(recs[i]);
    }
  Verdicts claim(paper_recs.size());
  check_paper_claim(paper_recs, claim);
  report(claim, shown);
  for (std::size_t j = 0; j < paper_recs.size(); ++j)
    if (claim.failed(j)) mismatch[paper_idx[j]] = true;
  return mismatch;
}

uint64_t count(const std::vector<bool>& flags) {
  return static_cast<uint64_t>(std::count(flags.begin(), flags.end(), true));
}

/// Starts a server and connects; the caller sends the prefix.
struct Session {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Client> client;
};

std::string server_log(const Options& o) { return o.workdir + "/serve.log"; }

Session open_session(const Options& o) {
  const std::string sock = o.workdir + "/serve.sock";
  Session s;
  s.server = std::make_unique<ServerProcess>(o.cli, sock, server_log(o));
  s.client = std::make_unique<Client>(sock);
  return s;
}

/// The stream's mix rests on its pool outgrowing the server's response
/// cache (api::EngineOptions::response_cache_capacity, LRU): every repeat
/// hits that cache and no fresh request does. A stopped server logs its
/// response-cache hits; any count other than one per round of `requests`
/// means the workload is no longer the one measured before, for instance
/// because the capacity grew past the pool, and the run stops rather
/// than report it under the same name.
void check_mix(const Options& o, const ServeStream& stream, int64_t requests) {
  std::ifstream log(server_log(o));
  const auto summary = read_serve_summary(log);
  if (!summary) throw sw::Error("perfbench: no summary in " + server_log(o));
  const int64_t repeats = requests / static_cast<int64_t>(ServeStream::kRoundSize);
  if (summary->requests != requests || summary->response_hits != repeats)
    throw sw::Error("perfbench: the server counted " +
                    std::to_string(summary->response_hits) +
                    " response-cache hits in " +
                    std::to_string(summary->requests) +
                    " requests; the serve-points mix needs exactly the " +
                    std::to_string(repeats) + " repeats of " +
                    std::to_string(requests) +
                    " requests to hit, so the pool of " +
                    std::to_string(stream.pool().size()) +
                    " keys must exceed the response cache's capacity");
}

/// The untimed prefix: rounds until one whole cycle of the pool was sent,
/// which lowers every program and warms every artifact on the server.
/// `each` sees every request (pool index, repeat flag, line, response).
void send_prefix(ServeStream& stream, Client& client, int64_t& id,
                 const std::function<void(std::size_t, bool, const std::string&,
                                          const std::string&)>& each = {}) {
  while (stream.fresh() < stream.pool().size() ||
         id % ServeStream::kRoundSize != 0) {
    bool repeat = false;
    const std::size_t k = stream.next(&repeat);
    const std::string line = point_line(id++, stream.pool()[k]);
    const std::string resp = client.call(line);
    if (resp.find("\"ok\":true") == std::string::npos)
      throw sw::Error("perfbench: prefix request failed: " + resp);
    if (each) each(k, repeat, line, resp);
  }
}

/// Client and server take turns, one request in flight, so they share one
/// CPU (the last this process may use); the server inherits the mask at
/// fork. Left to the scheduler, the two landed on one CPU or on two and
/// moved between them, and latency moved with the placement: five
/// unpinned runs spread 16% to 19%, two sets of five pinned ones 5% to 13%.
void pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  (void)::sched_setaffinity(0, sizeof set, &set);
}

Outcome serve_points(const Options& o) {
  if (o.cli.empty()) throw sw::Error("perfbench: serve-points needs --cli");
  pin_to_one_cpu();
  if (o.trace) {
    ServeStream stream(o.seed);
    const auto [lower_ms, lowered] = traced_lowering(stream.programs());
    Session s = open_session(o);
    // Two replay sessions mirror the server's Engine, one traced and one
    // not: the prefix warms both untraced, the timed stream alternates
    // which runs first on each computed request.
    Tracer tracer(false), untraced(false);
    Replay replay(tracer), plain(untraced);
    api::Engine local(engine_options(1));
    int64_t id = 0;
    std::size_t shown = 0;
    send_prefix(stream, *s.client, id,
                [&](std::size_t k, bool repeat, const std::string&,
                    const std::string&) {
                  const StreamKey& key = stream.pool()[k];
                  (void)local.point(point_request(key));
                  if (repeat) return;
                  const auto wl = WorkloadRegistry::instance().benchmark(key.workload);
                  (void)replay.point(*wl, key.setup, key.size);
                  (void)plain.point(*wl, key.setup, key.size);
                });
    tracer.set_enabled(true);
    LayerTotals warm;
    warm.add(replay);
    replay.counters = {};

    Outcome out;
    ApiTimes api_t;
    double traced_s = 0, untraced_s = 0;
    const auto before = local.stats();
    std::vector<Served> served;
    std::vector<bool> replay_failed;
    bool traced_first = true;
    const auto end = after(o.seconds);
    do {
      bool repeat = false;
      const std::size_t k = stream.next(&repeat);
      const StreamKey& key = stream.pool()[k];
      const std::string line = point_line(id++, key);
      auto t0 = Clock::now();
      const auto parsed = api::wire::parse_request(line);
      api_t.decode_us += since(t0) * 1e6;
      if (!parsed.ok()) throw sw::Error("perfbench: request line does not parse");
      t0 = Clock::now();
      std::string resp = s.client->call(line);
      const double latency = since(t0);
      const uint64_t hits = local.stats().response_hits;
      t0 = Clock::now();
      const auto r = local.point(*parsed.value().point);
      const double compute = since(t0);
      api_t.compute_ms += compute * 1e3;
      api_t.transport_ms += (latency - compute) * 1e3;
      if (r.ok()) {
        t0 = Clock::now();
        const std::string enc = api::wire::encode_response(parsed.value().id, r.value());
        api_t.encode_us += since(t0) * 1e6;
      }
      served.push_back({k, latency, std::move(resp)});
      replay_failed.push_back(false);
      if (local.stats().response_hits != hits) continue;
      // Computed, not served from the response cache: replay it.
      const auto wl = WorkloadRegistry::instance().benchmark(key.workload);
      const sw::harness::SweepPoint engine_pt =
          r.ok() ? r.value().point : sw::harness::SweepPoint{};
      bool ok = r.ok();
      for (int turn = 0; turn < 2; ++turn) {
        const bool traced = (turn == 0) == traced_first;
        t0 = Clock::now();
        ok &= replay_one(traced ? replay : plain, *wl, key.setup, key.size,
                         engine_pt, shown);
        (traced ? traced_s : untraced_s) += since(t0);
      }
      traced_first = !traced_first;
      replay_failed.back() = !ok;
    } while (Clock::now() < end || id % ServeStream::kRoundSize != 0);
    const auto after_stats = local.stats();
    s.client.reset();
    s.server->stop();
    check_mix(o, stream, id);
    write_spans(tracer, o);

    std::vector<bool> failed = check_served(stream, served, local);
    for (std::size_t i = 0; i < failed.size(); ++i)
      if (replay_failed[i]) failed[i] = true;
    out.attempted = served.size();
    out.failed = count(failed);
    const double n = static_cast<double>(served.size());
    api_t.decode_us /= n;
    api_t.encode_us /= n;
    api_t.compute_ms /= n;
    api_t.transport_ms /= n;
    api_t.response_hit_ratio =
        static_cast<double>(after_stats.response_hits - before.response_hits) / n;
    LayerTotals totals;
    totals.add(replay);
    totals.subtract(warm);
    const double overhead =
        untraced_s > 0 ? (traced_s / untraced_s - 1.0) * 100.0 : 0.0;
    note("replay of computed requests " + std::to_string(traced_s) +
         " s traced, " + std::to_string(untraced_s) +
         " s untraced: tracing overhead " + std::to_string(overhead) + "%");
    // The timed stream's share of the Engine's artifact-cache counts.
    api::EngineStats timed = after_stats;
    for (auto [t, b] : {std::pair{&timed.profile_artifacts, &before.profile_artifacts},
                        {&timed.image_artifacts, &before.image_artifacts},
                        {&timed.shape_artifacts, &before.shape_artifacts},
                        {&timed.view_artifacts, &before.view_artifacts}}) {
      t->hits -= b->hits;
      t->misses -= b->misses;
    }
    out.metrics = layer_metrics(tracer, totals, n, lower_ms, lowered, timed,
                                api_t, overhead);
    return out;
  }

  // Untraced: set up (start, connect, prefix) kSetupRepeats times and keep
  // the last session for the timed stream.
  std::vector<double> setups;
  Session s;
  std::optional<ServeStream> stream;
  int64_t id = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (s.server) {
      s.client.reset();
      s.server->stop();
    }
    stream.emplace(o.seed);
    id = 0;
    const auto t0 = Clock::now();
    s = open_session(o);
    send_prefix(*stream, *s.client, id);
    setups.push_back(since(t0));
  }

  // A window of this many rounds sends every pool key once as a fresh
  // request, whatever the offset it starts at.
  const std::size_t window_rounds =
      (stream->pool().size() + ServeStream::kRoundSize - 2) /
      (ServeStream::kRoundSize - 1);
  const std::size_t window_requests = window_rounds * ServeStream::kRoundSize;
  std::vector<Served> served;
  Timed timed;
  timed.window_points = window_requests;
  const auto t_start = Clock::now();
  auto t_window = t_start;
  const auto end = after(o.seconds);
  do {
    const std::size_t k = stream->next();
    const std::string line = point_line(id++, stream->pool()[k]);
    const auto t0 = Clock::now();
    std::string resp = s.client->call(line);
    const double latency = since(t0);
    served.push_back({k, latency, std::move(resp)});
    timed.lat_s.push_back(latency);
    if (timed.lat_s.size() % window_requests == 0) {
      timed.window_s.push_back(since(t_window));
      t_window = Clock::now();
    }
  } while (Clock::now() < end || id % ServeStream::kRoundSize != 0 ||
           timed.window_s.empty());
  timed.wall_s = since(t_start);
  s.client.reset();
  const double rss = s.server->stop();
  check_mix(o, *stream, id);

  Outcome out;
  out.attempted = served.size();
  {
    api::Engine local(engine_options(1));
    out.failed = count(check_served(*stream, served, local));
  }
  out.metrics = timed_metrics(timed, median(setups), rss);
  return out;
}

} // namespace

Outcome run_workload(const Options& opts) {
  if (opts.workload == "corpus-spm") return corpus_spm(opts);
  if (opts.workload == "serve-points") return serve_points(opts);
  throw sw::Error("perfbench: unknown workload '" + opts.workload + "'");
}

} // namespace perfbench
