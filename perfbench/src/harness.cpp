#include "harness.hpp"

#include <cpuid.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/simd.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::int64_t SpanLog::add(std::string name, std::uint32_t frame,
                          std::int64_t parent, std::uint64_t begin_ns,
                          std::uint64_t end_ns) {
  Span s;
  s.name = std::move(name);
  s.frame = frame;
  s.parent = parent;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  s.self_ns = end_ns - begin_ns;
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::add_total(std::string name, std::uint32_t frame, const CallTimer& t) {
  Span s;
  s.name = std::move(name);
  s.frame = frame;
  s.calls = t.calls;
  s.self_ns = t.ns;
  spans_.push_back(std::move(s));
}

void SpanLog::add_ring_spans(const std::vector<ads::telemetry::SpanRecord>& ring,
                             std::uint32_t frame, std::int64_t parent) {
  // Outer spans first: earliest begin, then longest. A stack of open spans
  // then yields each span's innermost enclosing span.
  std::vector<ads::telemetry::SpanRecord> sorted = ring;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.begin_us != b.begin_us) return a.begin_us < b.begin_us;
    return a.end_us > b.end_us;
  });
  std::vector<std::int64_t> open;
  for (const auto& r : sorted) {
    while (!open.empty() &&
           spans_[static_cast<std::size_t>(open.back())].end_ns < r.end_us) {
      open.pop_back();
    }
    const std::int64_t up = open.empty() ? parent : open.back();
    open.push_back(add(r.name, frame, up, r.begin_us, r.end_us));
  }
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    settle_self(static_cast<std::int64_t>(spans_.size() - sorted.size() + i));
  }
  settle_self(parent);
}

void SpanLog::settle_self(std::int64_t index) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  std::uint64_t children = 0;
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size(); ++i) {
    const Span& c = spans_[i];
    if (c.parent == index && c.calls == 0) children += c.end_ns - c.begin_ns;
  }
  const std::uint64_t dur = s.end_ns - s.begin_ns;
  s.self_ns = children > dur ? 0 : dur - children;
}

std::map<std::string, std::uint64_t> SpanLog::self_by_name() const {
  std::map<std::string, std::uint64_t> out;
  for (const Span& s : spans_) out[s.name] += s.self_ns;
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  for (const Span& s : spans_) {
    f << "{\"frame\":" << s.frame << ",\"name\":\"" << s.name << "\"";
    if (s.calls > 0 || s.end_ns == 0) {
      f << ",\"calls\":" << s.calls << ",\"ns\":" << s.self_ns;
    } else {
      f << ",\"parent\":" << s.parent << ",\"begin_ns\":" << s.begin_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << s.self_ns;
    }
    f << "}\n";
  }
  return static_cast<bool>(f);
}

namespace {

std::string cpu_brand() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
}

}  // namespace

Stamp host_stamp() {
  Stamp s;
  s.nproc = std::thread::hardware_concurrency();
  s.cpu_model = cpu_brand();
  s.simd = std::string(ads::simd::level_name(ads::simd::active_level()));
  s.build_type = PERFBENCH_BUILD_TYPE;
  s.compiler = PERFBENCH_COMPILER;
  return s;
}

}  // namespace perfbench
