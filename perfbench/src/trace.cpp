#include "trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double stolen_cpu_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t fields[8] = {};
  stat >> cpu;
  for (std::uint64_t& field : fields) stat >> field;
  if (!stat || cpu != "cpu") return 0.0;
  static const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return static_cast<double>(fields[7]) / ticks;  // user nice system idle iowait irq softirq steal
}

double steal_share_since(std::int64_t start_ns, double stolen_at_start) {
  static const double cpus = static_cast<double>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  const double wall = static_cast<double>(now_ns() - start_ns) * 1e-9;
  if (wall <= 0.0) return 0.0;
  return (stolen_cpu_seconds() - stolen_at_start) / (wall * cpus);
}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint32_t op) {
  if (!enabled_) return 0;
  const std::int64_t t = now_ns();
  return add(name, t, t, parent, op);
}

void Tracer::end(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

std::uint32_t Tracer::add(const char* name, std::int64_t start_ns,
                          std::int64_t end_ns, std::uint32_t parent,
                          std::uint32_t op) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  ndet::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Span& span : spans_) {
    w.begin_object();
    w.key("name").value(span.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("ts").value(static_cast<double>(span.start_ns - origin) / 1e3);
    w.key("dur").value(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    w.key("args")
        .begin_object()
        .key("id")
        .value(span.id)
        .key("parent")
        .value(span.parent)
        .key("op")
        .value(span.op)
        .end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  out << w.str() << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= spans.size()) children[parent - 1].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<Span>& spans, std::uint32_t first_id,
    std::uint32_t last_id) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id < first_id || spans[i].id > last_id) continue;
    by_name[spans[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return by_name;
}

}  // namespace perfbench
