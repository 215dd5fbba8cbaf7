// Measurement plumbing for the end-to-end sharing benchmark: wall and CPU
// clocks, percentiles, call timers for the re-installed channel receivers,
// the benchmark's own span log, and self-time accounting over the AH's
// ah.* trace spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
std::uint64_t now_ns();
/// Process CPU time summed over all threads, nanoseconds.
std::uint64_t process_cpu_ns();

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);
/// Median of `v`; 0 when empty.
inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Wall time and call count of one wrapped receiver family within the
/// current frame. The owner resets it at every frame boundary.
struct CallTimer {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;

  /// Run `fn` and charge its wall time to this timer.
  template <typename Fn>
  void time(Fn&& fn) {
    const std::uint64_t t0 = now_ns();
    fn();
    ns += now_ns() - t0;
    ++calls;
  }
  void reset() { *this = {}; }
};

/// One span of the benchmark's trace: a benchmark call boundary, an ah.*
/// stage read from the AH's trace ring, or a per-frame receiver total
/// (`calls` > 0, begin/end unset). Spans of one frame share `frame`;
/// `parent` indexes the enclosing span in the same log (-1 = none).
struct Span {
  std::string name;
  std::uint32_t frame = 0;
  std::int64_t parent = -1;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;  ///< duration minus enclosed child spans
};

/// In-memory span log, written out once the run ends.
class SpanLog {
 public:
  /// Append an interval span; returns its index.
  std::int64_t add(std::string name, std::uint32_t frame, std::int64_t parent,
                   std::uint64_t begin_ns, std::uint64_t end_ns);
  /// Append a per-frame receiver total.
  void add_total(std::string name, std::uint32_t frame, const CallTimer& t);
  /// Append one tick's ah.* ring spans under `parent` (the benchmark's tick
  /// span), nesting them by interval containment and filling self times.
  void add_ring_spans(const std::vector<ads::telemetry::SpanRecord>& ring,
                      std::uint32_t frame, std::int64_t parent);
  /// Recompute `parent`'s self time from the spans that name it.
  void settle_self(std::int64_t index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of self time per span name over every span in the log.
  std::map<std::string, std::uint64_t> self_by_name() const;
  /// Write one JSON object per span, one per line. Returns false on error.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Host and build stamp carried by every record.
struct Stamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd;
  std::string build_type;
  std::string compiler;
};
Stamp host_stamp();

}  // namespace perfbench
