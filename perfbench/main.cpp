// perfbench: the benchmark of record.
//
//   perfbench --workload corpus-spm|serve-points --seed N
//             --seconds S --trace 0|1 [--cli PATH] [--workdir DIR]
//
// Prints, as its last stdout line, one JSON object with the keys
// "correct", "attempted", "failed" and "metrics": the end-to-end metrics
// with --trace 0, the per-layer metrics from the traced layer replay with
// --trace 1. Diagnostics go to stderr. perfbench/run.py builds this
// program and runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

std::string need(int& i, int argc, char** argv) {
  if (i + 1 >= argc)
    throw std::runtime_error(std::string("missing value after ") + argv[i]);
  return argv[++i];
}

/// Shortest text that reads back as the same double.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

} // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--workload") o.workload = need(i, argc, argv);
      else if (a == "--seed") o.seed = std::stoull(need(i, argc, argv));
      else if (a == "--seconds") o.seconds = std::stod(need(i, argc, argv));
      else if (a == "--trace") o.trace = need(i, argc, argv) != "0";
      else if (a == "--cli") o.cli = need(i, argc, argv);
      else if (a == "--workdir") o.workdir = need(i, argc, argv);
      else throw std::runtime_error("unknown argument " + a);
    }
    if (!(o.seconds > 0)) throw std::runtime_error("--seconds must be positive");
    const perfbench::Outcome out = perfbench::run_workload(o);
    std::string json = "{\"correct\": ";
    json += out.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const auto& m = out.metrics[i];
      if (i > 0) json += ", ";
      json += "\"" + m.name + "\": {\"value\": " + number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
