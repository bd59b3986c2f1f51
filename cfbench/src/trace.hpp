#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

/// In-memory spans for the traced run (--trace 1). Spans are recorded only
/// from the benchmark's own files, around calls into each layer's public
/// functions; nothing inside the library is instrumented. A span's self
/// time is its duration minus the durations of its direct children.
///
/// Calls that take 100-200 ns (SimMachine::advance, IController::tick, the
/// HAL sample) cost less than a pair of clock reads, so they are not
/// spanned one by one: the replay times one call in kSampleEvery and adds
/// a single "estimated" child span per run whose duration extrapolates the
/// sampled mean to every call. Estimated spans carry only a duration.
namespace cfbench {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cheapest available timestamp for sampling 100 ns calls. On x86 it is
/// the unserialised TSC: steady_clock's vDSO read fences the pipeline,
/// which costs a timed call its overlap with its neighbours and inflated
/// the sampled estimates by ~12%. Elsewhere it falls back to now_ns().
inline uint64_t cycles() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<uint64_t>(now_ns());
#endif
}

/// Nanoseconds per cycles() unit, measured once against steady_clock
/// over 20 ms.
inline double ns_per_cycle() {
  static const double ratio = [] {
    const int64_t t0 = now_ns();
    const uint64_t c0 = cycles();
    while (now_ns() - t0 < 20000000) {
    }
    const int64_t t1 = now_ns();
    const uint64_t c1 = cycles();
    return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
  }();
  return ratio;
}

struct Span {
  const char* name = "";  // static string: a layer boundary
  int parent = -1;        // index into the tracer's spans, -1 = root
  int pass = 0;           // spans of one timed pass share this id
  int64_t t0 = 0;         // ns; estimated spans start at 0
  int64_t t1 = 0;
  bool estimated = false;

  int64_t duration() const { return t1 - t0; }
};

struct LayerTime {
  double total_ns = 0.0;
  double self_ns = 0.0;
  uint64_t spans = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 14); }

  void set_pass(int pass) { pass_ = pass; }

  /// Opens a span as a child of the innermost open span.
  int begin(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), pass_,
                          now_ns(), 0, false});
    open_.push_back(id);
    return id;
  }

  void end(int id) {
    spans_[static_cast<size_t>(id)].t1 = now_ns();
    open_.pop_back();
  }

  /// Adds an estimated span of `ns` under `parent` (-1: the innermost open
  /// span) and returns its index, so estimated spans can nest.
  int add_estimate(const char* name, double ns, int parent = -1) {
    if (parent < 0 && !open_.empty()) parent = open_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, parent, pass_, 0,
                          static_cast<int64_t>(std::max(0.0, ns)), true});
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One line per span: pass, index, parent, name, start, end, estimated.
  bool write_tsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "pass\tid\tparent\tname\tt0_ns\tt1_ns\testimated\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%d\t%zu\t%d\t%s\t%lld\t%lld\t%d\n", s.pass, i,
                   s.parent, s.name, static_cast<long long>(s.t0),
                   static_cast<long long>(s.t1), s.estimated ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int pass_ = 0;
};

/// Total and self time per span name. Children never overlap (one thread
/// records them in nesting order), so a span's self time is its duration
/// minus the sum of its direct children's, floored at 0.
inline std::map<std::string, LayerTime> self_times(
    const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.duration();
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& lt = out[spans[i].name];
    const double d = static_cast<double>(spans[i].duration());
    lt.total_ns += d;
    lt.self_ns += std::max(0.0, d - static_cast<double>(child_ns[i]));
    ++lt.spans;
  }
  return out;
}

}  // namespace cfbench
