// Spans for the traced replay.
//
// A span records one call into a layer: its name, start, end, the span
// that caused it, and the point it belongs to (all spans of one point
// share that id). Spans stay in memory while the replay runs and are
// written out once at the end. A layer's self time is its span's duration
// minus the part of that interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = nullptr; ///< static string, "<layer>.<operation>"
  uint64_t point = 0;         ///< id shared by the spans of one point
  int64_t parent = -1;        ///< index into Tracer::spans(), -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
public:
  /// A disabled tracer records nothing; Scope costs one branch.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  class Scope {
  public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (t_.enabled_) idx_ = t_.open(name);
    }
    ~Scope() {
      if (idx_ >= 0) t_.close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer& t_;
    int64_t idx_ = -1;
  };

  /// Starts a new point: spans opened from now on carry its id.
  void begin_point() { ++point_; }
  void set_enabled(bool on) { enabled_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name over every recorded span, in nanoseconds.
  std::map<std::string, int64_t> self_ns() const;
  /// Writes one line per span: index, parent, point, name, start, end
  /// (ns relative to the first span). Returns false on an IO error.
  bool write(const std::string& path) const;

private:
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  int64_t open(const char* name);
  void close(int64_t idx);

  bool enabled_;
  uint64_t point_ = 0;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_; ///< open spans, innermost last
};

/// Self time of each span in `spans` (parents reference indices within
/// the same vector): duration minus the union of its children's
/// intervals clipped to it.
std::vector<int64_t> self_times(const std::vector<Span>& spans);

} // namespace perfbench
