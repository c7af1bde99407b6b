// The benchmark's two workloads, each in an untraced mode (end-to-end
// metrics) and a traced mode (per-layer metrics from the layer replay).
//
//  corpus-spm    one `corpus` request over kCorpusCount gen:mixed members
//                (a fixed seed range), scratchpad, eight sizes, two
//                workers, a fresh Engine per pass.
//  serve-points  one closed-loop client sending single `point` requests
//                to a resident `spmwcet_cli serve --socket` process
//                (see ServeStream). Its pool holds the paper's G.721,
//                ADPCM and MultiSort under both setups, on which the
//                paper's claim is checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// corpus-spm's fixed population: gen:mixed seeds [1, 160]. It does not
/// follow --seed, so a run's throughput and memory vary with the host, not
/// with which programs were drawn.
inline constexpr uint32_t kCorpusBase = 1;
inline constexpr uint32_t kCorpusCount = 160;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;                      ///< spmwcet_cli, for serve-points
  std::string workdir = ".bench_build"; ///< socket, server log, span file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload; throws spmwcet::Error when it cannot run at all.
Outcome run_workload(const Options& opts);

} // namespace perfbench
