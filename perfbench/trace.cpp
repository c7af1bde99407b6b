#include "trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

int64_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.point = point_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto idx = static_cast<int64_t>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(int64_t idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

std::vector<int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
  std::vector<int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, run_lo = 0, run_hi = -1;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = a;
        run_hi = b;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, int64_t> Tracer::self_ns() const {
  const std::vector<int64_t> self = self_times(spans_);
  std::map<std::string, int64_t> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[spans_[i].name] += self[i];
  return by_name;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "# index parent point name start_ns end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ' ' << s.parent << ' ' << s.point << ' ' << s.name << ' '
        << (s.start_ns - t0) << ' ' << (s.end_ns - t0) << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

} // namespace perfbench
