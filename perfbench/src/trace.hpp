// trace.hpp -- in-memory spans recorded by the benchmark around its calls
// into each layer of the program.
//
// A span is a name, a start and end on the monotonic clock, the span that
// caused it, and the operation (circuit, request) it belongs to; spans of
// one operation share that identifier.  Spans stay in memory while the
// benchmark runs and are written out as a Chrome trace-event file at the
// end, which Perfetto and chrome://tracing load directly.  A layer's self
// time is its span's duration minus the part of that interval covered by
// its child spans.  When the tracer is disabled every call is a no-op, so
// the untraced runs that produce the end-to-end numbers pay nothing.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

/// Stolen CPU time so far: time the hypervisor ran something else while
/// the CPUs had work, summed over CPUs (0 where the kernel does not report
/// it).
double stolen_cpu_seconds();

/// Share of the machine's CPU time stolen since `start_ns`, at which
/// stolen_cpu_seconds() read `stolen_at_start`.
double steal_share_since(std::int64_t start_ns, double stolen_at_start);

struct Span {
  const char* name = "";     ///< static string: the layer boundary crossed
  std::uint32_t id = 0;      ///< 1-based, in begin order
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::uint32_t op = 0;      ///< shared by every span of one operation
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;   ///< equals start_ns until the span ends
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns 0 (and records nothing) when disabled.
  std::uint32_t begin(const char* name, std::uint32_t parent = 0,
                      std::uint32_t op = 0);
  void end(std::uint32_t id);

  /// Records an already-timed span (the open-loop client times requests
  /// itself and files them after the response arrives).
  std::uint32_t add(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint32_t parent = 0,
                    std::uint32_t op = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// A fresh operation identifier.
  std::uint32_t next_op() { return ++last_op_; }

  /// Writes every span as a Chrome trace-event JSON document.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::uint32_t last_op_ = 0;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint32_t parent = 0,
             std::uint32_t op = 0)
      : tracer_(tracer), id_(tracer.begin(name, parent, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Self time of every span in nanoseconds, index-aligned with `spans`:
/// the span's duration minus the union of its children's intervals,
/// clipped to the span.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Self time summed per span name, in seconds, over spans whose id lies in
/// [first_id, last_id] (inclusive; the ids of one measured pass).
std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, std::uint32_t first_id = 1,
    std::uint32_t last_id = UINT32_MAX);

}  // namespace perfbench
