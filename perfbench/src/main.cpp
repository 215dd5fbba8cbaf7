// perfbench: the end-to-end sharing benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--frames <n>] [--setups <n>] [--trace-out <path>]
//   perfbench --self-check
//
// One run sets the workload up several times (set-up time is the median),
// drives the last session one frame at a time — AppHost::tick(), then
// SharingSession::run_for(frame interval) — for a fixed number of frames
// derived from --seconds, freezes the content, lets the replicas converge
// and checks every real viewer against the host frame. It prints one line
// per metric and, last, one JSON object with the result. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates traced and untraced frames
// and reports the per-layer metrics. See perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "capture/apps.hpp"
#include "image/metrics.hpp"
#include "transcode/transcode.hpp"
#include "workloads.hpp"

using namespace ads;
using namespace perfbench;

namespace {

constexpr SimTime kFrameInterval = sim_ms(100);
constexpr std::size_t kRingCapacity = 4096;
constexpr int kWarmFrames = 3;
constexpr int kMaxSetupFrames = 300;
constexpr int kQuiesceFrames = 80;
constexpr double kPsnrCapDb = 100.0;
constexpr double kDctFloorDb = 20.0;

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

// Every metric the benchmark reports, by name and unit; BENCHMARK.json
// lists the same names.
const MetricDef kMetrics[] = {
    {"setup_s", "s", false},
    {"frame_ms_p50", "ms", false},
    {"frame_ms_p90", "ms", false},
    {"frame_cpu_ms", "ms", false},
    {"viewer_ms_p50", "ms", false},
    {"viewer_ms_p90", "ms", false},
    {"lag_ms_p50", "sim_ms", false},
    {"lag_ms_p99", "sim_ms", false},
    {"join_ms_p50", "sim_ms", false},
    {"wire_kbps_per_viewer", "kbit/sim_s", false},
    {"psnr_db", "dB", false},
    {"realtime_x", "x", false},
    {"core.tick_self_ms", "ms", true},
    {"core.distribute_self_ms", "ms", true},
    {"core.uplink_ms", "ms", true},
    {"core.cohorts_per_frame", "count", true},
    {"core.encodes_unique_per_frame", "count", true},
    {"core.encode_share_ratio", "ratio", true},
    {"capture.ms", "ms", true},
    {"image.scroll_detect_ms", "ms", true},
    {"image.damage_ms", "ms", true},
    {"image.damage_kpx_per_frame", "kpx", true},
    {"image.move_rects_per_frame", "count", true},
    {"codec.encode_ms", "ms", true},
    {"codec.encode_mb_per_s", "MB/s", true},
    {"codec.bands_encoded_per_frame", "count", true},
    {"codec.cache_hit_ratio", "ratio", true},
    {"codec.ratio", "ratio", true},
    {"transcode.frames_scaled_per_frame", "count", true},
    {"snapshot.ms", "ms", true},
    {"snapshot.bundles_built", "count", true},
    {"snapshot.join_shared_ratio", "ratio", true},
    {"rtp.packetise_ms", "ms", true},
    {"rtp.rtcp_ms", "ms", true},
    {"rtp.packets_built_per_frame", "count", true},
    {"rtp.bytes_copied_per_frame", "bytes", true},
    {"rtp.retransmissions", "count", true},
    {"rtp.nacks_received", "count", true},
    {"net.loop_self_ms", "ms", true},
    {"net.udp_dropped", "count", true},
    {"net.tcp_backlog_skips", "count", true},
    {"rate.frames_skipped_rate", "count", true},
    {"rate.frames_skipped_fps", "count", true},
    {"rate.frames_skipped_backlog", "count", true},
    {"relay.forward_us_per_pkt", "us", true},
    {"relay.forwards_per_frame", "count", true},
    {"relay.bytes_copied", "bytes", true},
    {"relay.pli_upstream_ratio", "ratio", true},
    {"relay.rtx_served_ratio", "ratio", true},
    {"participant.receive_ms", "ms", true},
    {"participant.decode_mb_per_s", "MB/s", true},
    {"participant.nacks_sent", "count", true},
    {"participant.plis_sent", "count", true},
    {"participant.decode_errors", "count", true},
    {"hip.events_accepted", "count", true},
    {"hip.events_rejected", "count", true},
    {"telemetry.trace_overhead_pct", "%", true},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int frames = 0;  ///< 0 = derive from seconds
  int setups = 3;
  std::string trace_out;
};

struct RunResult {
  std::map<std::string, double> metrics;
  std::map<std::string, double> counters;  ///< self-check probes
  int attempted = 0;
  int failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Relay counters summed over every node of the tree.
relay::RelayNode::Stats relay_totals(const SharingSession& s) {
  relay::RelayNode::Stats t;
  for (const auto& r : s.relays()) {
    if (!r->node) continue;
    const auto& x = r->node->stats();
    t.forwarded_packets += x.forwarded_packets;
    t.payload_bytes_copied += x.payload_bytes_copied;
    t.plis_received += x.plis_received;
    t.plis_upstream += x.plis_upstream;
    t.rtx_served += x.rtx_served;
    t.nack_seqs_received += x.nack_seqs_received;
  }
  return t;
}

/// What a viewer's replica must equal: the host frame under its geometry.
Image expected_frame(const Rig& rig, const Viewer& v) {
  const Image& truth = rig.session->host().capturer().last_frame();
  return transcode::scale_frame(truth, v.geom);
}

bool replica_matches(const Rig& rig, const Viewer& v) {
  const Image want = expected_frame(rig, v);
  return diff_pixel_count(want, v.p->screen().crop(want.bounds())) == 0;
}

/// PSNR of a viewer's replica; full-resolution viewers are measured over
/// the workload's content area. Identical images score the cap.
double viewer_psnr(const Rig& rig, const Viewer& v) {
  const Image want = expected_frame(rig, v);
  Rect area = want.bounds();
  if (v.geom.scale_shift == 0 && v.geom.viewport.empty()) area = rig.content_area;
  const double db = psnr(want.crop(area), v.p->screen().crop(area));
  return std::isfinite(db) ? std::min(db, kPsnrCapDb) : kPsnrCapDb;
}

void step(Rig& rig) {
  rig.host().tick();
  rig.s().run_for(kFrameInterval);
}

double join_ms_of(const Viewer& v) {
  return static_cast<double>(v.joined_at - v.join_at) / 1e3;
}

/// Build the workload and run it until every viewer has its first frame;
/// set-up `k` of `setups`. Appends the joins to `join_ms` and returns the
/// wall seconds the set-up took.
double set_up(const Workload& w, const Seeds& seeds, int k, int setups,
              std::unique_ptr<Rig>& rig, std::vector<double>& join_ms) {
  const std::uint64_t t0 = now_ns();
  rig = w.build(seeds);
  // Warm the host first, so joiners meet a running session rather than the
  // first capture's full-screen damage; then the viewers present from the
  // start join evenly spread over one frame interval. Every seed samples the
  // same phases of the capture clock, and each set-up interleaves its
  // phases between the previous one's.
  for (int i = 0; i < kWarmFrames; ++i) step(*rig);
  EventLoop& loop = rig->s().loop();
  const SimTime start = loop.now();
  const auto slots = static_cast<SimTime>(rig->joins.size()) * setups;
  for (std::size_t i = 0; i < rig->joins.size(); ++i) {
    const auto slot = static_cast<SimTime>(i) * setups + k;
    loop.at(start + slot * kFrameInterval / slots, [rp = rig.get(), i] { rp->joins[i](); });
  }
  for (int i = 0; !rig->ready(); ++i) {
    if (i == kMaxSetupFrames) throw std::runtime_error("set-up did not converge");
    step(*rig);
    rig->tend_joins();
  }
  const double seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (const auto& v : rig->viewers) join_ms.push_back(join_ms_of(*v));
  return seconds;
}

RunResult run(const Workload& w, const Options& opt) {
  const Seeds seeds(opt.seed);
  RunResult res;

  std::vector<double> setup_s, join_ms;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < opt.setups; ++k) {
    rig.reset();
    setup_s.push_back(set_up(w, seeds, k, opt.setups, rig, join_ms));
  }
  SharingSession& s = rig->s();
  AppHost& host = rig->host();
  while (host.capturer().ticks() < w.measure_from) {
    step(*rig);
    rig->tend_joins();
  }

  const int frames =
      opt.frames > 0 ? opt.frames
                     : std::max(1, static_cast<int>(std::lround(opt.seconds *
                                                                w.frames_per_second)));

  // Counters at the start of the measured window.
  const AppHost::Stats hs0 = host.stats();
  const ParallelEncoder::Stats es0 = host.encoder().stats();
  const auto fs0 = host.scaler().stats();
  const auto ss0 = host.snapshot_service().stats();
  const auto rs0 = relay_totals(s);
  const telemetry::Snapshot net0 = rig->tel.metrics.snapshot();
  for (auto& v : rig->viewers) {
    v->base = v->p->stats();
    v->present_from = s.loop().now();
  }
  for (Sink& k : rig->sinks) k.base_bytes = k.bytes;
  const SimTime window_start = s.loop().now();

  std::vector<double> tick_ms, tick_ms_untraced, cpu_ms, viewer_ms, lag_ms;
  double wall_s = 0;
  SpanLog log;
  int traced_frames = 0;
  double receive_ns = 0, uplink_ns = 0, relay_down_ns = 0, loop_self_ns = 0;
  double painted_bytes_traced = 0, ref_painted_traced = 0;
  double ref_area = 0, all_area = 0, all_content = 0;
  std::vector<std::vector<Participant::DeliveryRecord>> delivered;
  const Viewer* damage_ref = nullptr;
  for (const auto& v : rig->viewers) {
    if (v->reference && !damage_ref) damage_ref = v.get();
  }

  for (int f = 0; f < frames; ++f) {
    const bool traced = opt.trace && f % 2 == 0;
    if (rig->before_tick) rig->before_tick(f, frames);
    rig->uplink.reset();
    rig->relay_down.reset();
    rig->relay_up.reset();
    for (auto& v : rig->viewers) v->recv.reset();
    if (traced) rig->tel.trace.enable(kRingCapacity, [] { return now_ns(); });

    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = process_cpu_ns();
    host.tick();
    const std::uint64_t c1 = process_cpu_ns();
    const std::uint64_t t1 = now_ns();
    std::vector<telemetry::SpanRecord> ring;
    std::uint64_t recorded = 0;
    if (traced) {
      recorded = rig->tel.trace.total_recorded();
      ring = rig->tel.trace.spans();
      rig->tel.trace.clear();
    }
    s.run_for(kFrameInterval);
    const std::uint64_t t2 = now_ns();
    if (traced) {
      // Nothing in run_for is expected to record ah.* spans; any that do
      // are still drained and counted against the ring.
      recorded += rig->tel.trace.total_recorded();
      const auto late = rig->tel.trace.spans();
      rig->tel.trace.disable();
      if (recorded > ring.size() + late.size()) {
        throw std::runtime_error("trace ring wrapped: spans were lost");
      }
      const auto frame_span = log.add("bench.frame", f, -1, t0, t2);
      const auto tick_span = log.add("bench.tick", f, frame_span, t0, t1);
      log.add_ring_spans(ring, f, tick_span);
      const auto run_span = log.add("bench.run_for", f, frame_span, t1, t2);
      if (!late.empty()) log.add_ring_spans(late, f, run_span);
      log.settle_self(frame_span);
      CallTimer viewers_total;
      for (const auto& v : rig->viewers) {
        viewers_total.ns += v->recv.ns;
        viewers_total.calls += v->recv.calls;
      }
      log.add_total("participant.receive", f, viewers_total);
      log.add_total("relay.forward", f, rig->relay_down);
      log.add_total("relay.feedback", f, rig->relay_up);
      log.add_total("core.uplink", f, rig->uplink);
      ++traced_frames;
      receive_ns += static_cast<double>(viewers_total.ns);
      uplink_ns += static_cast<double>(rig->uplink.ns);
      relay_down_ns += static_cast<double>(rig->relay_down.ns);
      loop_self_ns += static_cast<double>(t2 - t1) -
                      static_cast<double>(viewers_total.ns + rig->relay_down.ns +
                                          rig->relay_up.ns + rig->uplink.ns);
    }

    const double tms = static_cast<double>(t1 - t0) / 1e6;
    (traced || !opt.trace ? tick_ms : tick_ms_untraced).push_back(tms);
    if (!opt.trace) cpu_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
    wall_s += static_cast<double>(t2 - t0) / 1e9;

    rig->tend_joins(&delivered);
    for (std::size_t i = 0; i < rig->viewers.size(); ++i) {
      const auto& v = rig->viewers[i];
      if (v->recv.calls > 0) viewer_ms.push_back(static_cast<double>(v->recv.ns) / 1e6);
      for (const auto& d : delivered[i]) {
        lag_ms.push_back(static_cast<double>(static_cast<std::int64_t>(d.arrived_us) -
                                             static_cast<std::int64_t>(
                                                 host.remoting_timestamp_to_us(
                                                     d.rtp_timestamp))) /
                         1e3);
        const double px = static_cast<double>(d.region.area());
        all_area += px;
        all_content += static_cast<double>(d.content_bytes);
        if (v.get() == damage_ref) ref_area += px;
        if (traced) {
          painted_bytes_traced += 4 * px;
          if (v->reference) ref_painted_traced += 4 * px;
        }
      }
    }
  }
  const SimTime window_end = s.loop().now();
  const double window_sim_s = static_cast<double>(window_end - window_start) / 1e6;

  // Counter deltas over the measured window.
  const AppHost::Stats& hs = host.stats();
  const ParallelEncoder::Stats& es = host.encoder().stats();
  const auto& fs = host.scaler().stats();
  const auto& ss = host.snapshot_service().stats();
  const auto rs = relay_totals(s);
  const telemetry::Snapshot net = rig->tel.metrics.snapshot();
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  double kbps_sum = 0;
  int kbps_n = 0;
  double nacks = 0, plis = 0, decode_errors = 0;
  for (const auto& v : rig->viewers) {
    const auto& st = v->p->stats();
    const double present = static_cast<double>(window_end - v->present_from) / 1e6;
    if (present > 0) {
      kbps_sum += d(st.bytes_received, v->base.bytes_received) * 8 / 1e3 / present;
      ++kbps_n;
    }
    nacks += d(st.nacks_sent, v->base.nacks_sent);
    plis += d(st.plis_sent, v->base.plis_sent);
    decode_errors += d(st.decode_errors, v->base.decode_errors);
  }
  for (const Sink& k : rig->sinks) {
    kbps_sum += d(k.bytes, k.base_bytes) * 8 / 1e3 / window_sim_s;
    ++kbps_n;
  }

  // Quiesce: freeze the content, keep ticking until every lossless replica
  // matches (or the budget runs out), then run the oracle.
  freeze_content(*rig);
  for (int q = 0; q < kQuiesceFrames; ++q) {
    step(*rig);
    rig->tend_joins();
    if (q % 5 != 4) continue;
    bool converged = true;
    for (const auto& v : rig->viewers) {
      if (!v->lossy && !replica_matches(*rig, *v)) converged = false;
    }
    if (converged) break;
  }
  // join_ms_p50 measures the workload's join wave: the mid-run flash crowd
  // where there is one, else the set-up joins of every set-up.
  if (rig->crowd > 0) join_ms.clear();
  double psnr_min = kPsnrCapDb;
  for (std::size_t i = 0; i < rig->viewers.size(); ++i) {
    const Viewer& v = *rig->viewers[i];
    ++res.attempted;
    const double db = viewer_psnr(*rig, v);
    psnr_min = std::min(psnr_min, db);
    const bool ok = v.lossy ? db >= kDctFloorDb : replica_matches(*rig, v);
    if (!ok) ++res.failed;
    if (v.joined_at == 0) {
      res.problems.push_back("a viewer never received its first full frame");
    } else if (i >= rig->joins.size()) {
      join_ms.push_back(join_ms_of(v));  // mid-run joiners
    }
  }
  const std::size_t expected = rig->joins.size() + rig->crowd;
  if (static_cast<std::size_t>(res.attempted) != expected) {
    res.problems.push_back("checked " + std::to_string(res.attempted) +
                           " viewers, expected " + std::to_string(expected));
  }
  if (s.evicted_connections() != 0 || s.relay_crashes() != 0 ||
      s.relay_failovers() != 0) {
    res.problems.push_back("the session re-wired a channel (eviction or relay failover)");
  }
  if (res.failed != 0) {
    res.problems.push_back(std::to_string(res.failed) + " viewers diverged");
  }
  res.correct = res.problems.empty();

  const double n = frames;
  auto& m = res.metrics;
  m["setup_s"] = median(setup_s);
  m["frame_ms_p50"] = percentile(tick_ms, 50);
  m["frame_ms_p90"] = percentile(tick_ms, 90);
  m["frame_cpu_ms"] = cpu_ms.empty() ? 0 : [&] {
    double t = 0;
    for (double c : cpu_ms) t += c;
    return t / static_cast<double>(cpu_ms.size());
  }();
  m["viewer_ms_p50"] = percentile(viewer_ms, 50);
  m["viewer_ms_p90"] = percentile(viewer_ms, 90);
  m["lag_ms_p50"] = percentile(lag_ms, 50);
  m["lag_ms_p99"] = percentile(lag_ms, 99);
  m["join_ms_p50"] = percentile(join_ms, 50);
  m["wire_kbps_per_viewer"] = kbps_n > 0 ? kbps_sum / kbps_n : 0;
  m["psnr_db"] = psnr_min;
  m["realtime_x"] = ratio(n * static_cast<double>(kFrameInterval) / 1e6, wall_s);

  // Per-layer: stage self times from traced frames, counters over the
  // whole window.
  const auto self = log.self_by_name();
  const double tf = std::max(1, traced_frames);
  const auto stage_ms = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : static_cast<double>(it->second) / tf / 1e6;
  };
  m["core.tick_self_ms"] = stage_ms("bench.tick") + stage_ms("ah.tick");
  m["core.distribute_self_ms"] = stage_ms("ah.distribute");
  m["core.uplink_ms"] = uplink_ns / tf / 1e6;
  m["core.cohorts_per_frame"] = d(hs.fanout_cohorts, hs0.fanout_cohorts) / n;
  m["core.encodes_unique_per_frame"] =
      d(hs.fanout_encodes_unique, hs0.fanout_encodes_unique) / n;
  m["core.encode_share_ratio"] =
      ratio(d(hs.fanout_encodes_unique, hs0.fanout_encodes_unique),
            d(hs.fanout_encodes_unique, hs0.fanout_encodes_unique) +
                d(hs.fanout_encodes_shared, hs0.fanout_encodes_shared));
  m["capture.ms"] = stage_ms("ah.capture");
  m["image.scroll_detect_ms"] = stage_ms("ah.scroll_detect");
  m["image.damage_ms"] = stage_ms("ah.damage");
  m["image.damage_kpx_per_frame"] = ref_area / n / 1e3;
  m["image.move_rects_per_frame"] =
      damage_ref ? d(damage_ref->p->stats().move_rectangles,
                     damage_ref->base.move_rectangles) /
                       n
                 : 0;
  const double encode_ms = stage_ms("ah.encode");
  m["codec.encode_ms"] = encode_ms;
  m["codec.encode_mb_per_s"] = ratio(ref_painted_traced / 1e6, encode_ms * tf / 1e3);
  m["codec.bands_encoded_per_frame"] = d(es.bands_encoded, es0.bands_encoded) / n;
  m["codec.cache_hit_ratio"] =
      ratio(d(es.cache_hits, es0.cache_hits), d(es.bands_requested, es0.bands_requested));
  m["codec.ratio"] = ratio(4 * all_area, all_content);
  m["transcode.frames_scaled_per_frame"] = d(fs.frames_scaled, fs0.frames_scaled) / n;
  m["snapshot.ms"] = stage_ms("ah.snapshot");
  m["snapshot.bundles_built"] = d(ss.bundles_built, ss0.bundles_built);
  m["snapshot.join_shared_ratio"] =
      ratio(d(hs.join_shared_refreshes, hs0.join_shared_refreshes),
            d(hs.join_admissions, hs0.join_admissions));
  m["rtp.packetise_ms"] = stage_ms("ah.packetise");
  m["rtp.rtcp_ms"] = stage_ms("ah.rtcp");
  m["rtp.packets_built_per_frame"] = d(hs.packets_built, hs0.packets_built) / n;
  m["rtp.bytes_copied_per_frame"] =
      d(hs.payload_bytes_copied, hs0.payload_bytes_copied) / n;
  m["rtp.retransmissions"] = d(hs.retransmissions_sent, hs0.retransmissions_sent);
  m["rtp.nacks_received"] = d(hs.nacks_received, hs0.nacks_received);
  m["net.loop_self_ms"] = loop_self_ns / tf / 1e6;
  m["net.udp_dropped"] =
      d(net.counter("net.udp.lost") + net.counter("net.udp.queue_dropped"),
        net0.counter("net.udp.lost") + net0.counter("net.udp.queue_dropped"));
  m["net.tcp_backlog_skips"] =
      d(net.counter("net.tcp.partial_writes"), net0.counter("net.tcp.partial_writes"));
  m["rate.frames_skipped_rate"] = d(hs.frames_skipped_rate, hs0.frames_skipped_rate);
  m["rate.frames_skipped_fps"] = d(hs.frames_skipped_fps, hs0.frames_skipped_fps);
  m["rate.frames_skipped_backlog"] =
      d(hs.frames_skipped_backlog, hs0.frames_skipped_backlog);
  m["relay.forward_us_per_pkt"] =
      ratio(relay_down_ns / 1e3, d(rs.forwarded_packets, rs0.forwarded_packets) *
                                     tf / n);
  m["relay.forwards_per_frame"] = d(rs.forwarded_packets, rs0.forwarded_packets) / n;
  m["relay.bytes_copied"] = d(rs.payload_bytes_copied, rs0.payload_bytes_copied);
  m["relay.pli_upstream_ratio"] = ratio(d(rs.plis_upstream, rs0.plis_upstream),
                                        d(rs.plis_received, rs0.plis_received));
  m["relay.rtx_served_ratio"] = ratio(d(rs.rtx_served, rs0.rtx_served),
                                      d(rs.nack_seqs_received, rs0.nack_seqs_received));
  m["participant.receive_ms"] = receive_ns / tf / 1e6;
  m["participant.decode_mb_per_s"] = ratio(painted_bytes_traced / 1e6, receive_ns / 1e9);
  m["participant.nacks_sent"] = nacks;
  m["participant.plis_sent"] = plis;
  m["participant.decode_errors"] = decode_errors;
  m["hip.events_accepted"] = d(hs.hip_events_accepted, hs0.hip_events_accepted);
  m["hip.events_rejected"] =
      d(hs.hip_events_rejected_coords + hs.hip_events_rejected_floor,
        hs0.hip_events_rejected_coords + hs0.hip_events_rejected_floor);
  const double untraced_p50 = percentile(tick_ms_untraced, 50);
  m["telemetry.trace_overhead_pct"] =
      untraced_p50 > 0 ? (percentile(tick_ms, 50) / untraced_p50 - 1) * 100 : 0;

  res.counters["sink_bytes"] = 0;
  for (const Sink& k : rig->sinks) res.counters["sink_bytes"] += d(k.bytes, k.base_bytes);
  res.counters["sinks"] = static_cast<double>(rig->sinks.size());
  res.counters["relay_payload_bytes_copied"] = static_cast<double>(rs.payload_bytes_copied);

  if (!opt.trace_out.empty() && opt.trace && !log.write_jsonl(opt.trace_out)) {
    throw std::runtime_error("cannot write " + opt.trace_out);
  }
  return res;
}

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void print_result(const RunResult& r, bool per_layer, std::ostream& out) {
  const Stamp st = host_stamp();
  out << "stamp {\"nproc\": " << st.nproc << ", \"cpu\": \"" << st.cpu_model
      << "\", \"simd\": \"" << st.simd << "\", \"build\": \"" << st.build_type
      << "\", \"compiler\": \"" << st.compiler << "\"}\n";
  for (const MetricDef& def : kMetrics) {
    if (def.per_layer != per_layer) continue;
    out << "metric " << def.name << " " << format_number(r.metrics.at(def.name)) << " "
        << def.unit << "\n";
  }
  out << "viewers_checked " << r.attempted << "\nviewers_diverged " << r.failed << "\n";
  for (const std::string& p : r.problems) out << "problem " << p << "\n";
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : kMetrics) {
    if (def.per_layer != per_layer) continue;
    out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
        << format_number(r.metrics.at(def.name)) << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  }
  out << "}}" << std::endl;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// A few frames per workload in both modes: every metric present with its
/// unit, and the counters that are fixed at the default seed hold.
int self_check() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (const Workload& w : workloads()) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = w.name;
      opt.trace = trace;
      opt.frames = 12;
      opt.setups = 1;
      const RunResult r = run(w, opt);
      std::ostringstream text;
      print_result(r, trace, text);
      const std::string tag = w.name + (trace ? " trace=1" : " trace=0");
      for (const MetricDef& def : kMetrics) {
        if (def.per_layer != trace) continue;
        const std::string key = std::string("\"") + def.name +
                                "\": {\"value\": ";
        const auto at = text.str().find(key);
        const bool unit_ok =
            at != std::string::npos &&
            text.str().find(std::string("\"unit\": \"") + def.unit + "\"", at) !=
                std::string::npos;
        expect(unit_ok, tag + ": " + def.name + " present in " + def.unit);
      }
      expect(r.correct, tag + ": oracle passes");
      if (r.counters.at("sinks") > 0) {
        expect(r.counters.at("sink_bytes") > 0, tag + ": sinks received bytes");
      }
      if (w.name == "video_fanout") {
        expect(r.metrics.at("core.cohorts_per_frame") == 3,
               tag + ": 3 cohorts per frame");
      }
      if (w.name == "office_desktop") {
        expect(r.metrics.at("hip.events_accepted") > 0, tag + ": HIP events accepted");
      }
      if (w.name == "relay_flashcrowd") {
        expect(r.counters.at("relay_payload_bytes_copied") == 0,
               tag + ": relay payload_bytes_copied == 0");
      }
      if (trace) {
        for (const char* stage : {"capture.ms", "image.damage_ms", "codec.encode_ms",
                                  "rtp.packetise_ms"}) {
          expect(r.metrics.at(stage) > 0, tag + ": " + stage + " is wall-clock, non-zero");
        }
      }
    }
  }
  std::cout << (failures == 0 ? "self-check passed" : "self-check FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--frames <n>] [--setups <n>] [--trace-out <path>]\n"
               "       perfbench --self-check\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-check") {
      check = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") opt.workload = v;
      else if (a == "--seed") opt.seed = std::stoull(v);
      else if (a == "--seconds") opt.seconds = std::stod(v);
      else if (a == "--trace") opt.trace = std::stoi(v) != 0;
      else if (a == "--frames") opt.frames = std::stoi(v);
      else if (a == "--setups") opt.setups = std::max(1, std::stoi(v));
      else if (a == "--trace-out") opt.trace_out = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  try {
    if (check) return self_check();
    const Workload* w = find_workload(opt.workload);
    if (w == nullptr) usage("unknown workload '" + opt.workload + "'");
    const RunResult r = run(*w, opt);
    print_result(r, opt.trace, std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
