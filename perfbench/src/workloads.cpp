#include "workloads.hpp"

#include <string_view>

#include "capture/apps.hpp"
#include "rtp/packet_classify.hpp"
#include "rtp/rtcp.hpp"
#include "util/prng.hpp"

namespace perfbench {

using namespace ads;

namespace {

constexpr SimTime kFrameInterval = sim_ms(100);
constexpr SimTime kJoinRetry = sim_sec(1);

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Prng(seed ^ salt).next_u64();
}

/// Every AppHost option, written out so no setting is read from the host
/// (the default encode_threads is hardware_concurrency). Workloads change
/// only what their shape needs.
AppHostOptions host_options(std::int64_t width, std::int64_t height,
                            const Seeds& seeds, telemetry::Telemetry* tel) {
  AppHostOptions o;
  o.screen_width = width;
  o.screen_height = height;
  o.damage_tile = 32;
  o.mtu_payload = 1200;
  o.codec = ContentPt::kPng;
  o.use_move_rectangle = true;
  o.pointer_messages = true;
  o.retransmissions = true;
  o.tcp_backlog_limit = 4096;
  o.udp_rate_bps = 0;
  o.udp_burst_bytes = 64 * 1024;
  o.adaptation = rate::AdaptationOptions{};
  o.adaptation.enabled = false;
  o.region_band_rows = 128;
  o.encode_threads = 3;
  o.encoded_cache_bytes = 8 * 1024 * 1024;
  o.shared_fanout = true;
  o.snapshot = snapshot::SnapshotOptions{};
  o.snapshot.enabled = false;
  o.frame_interval_us = kFrameInterval;
  o.sr_interval_us = sim_sec(1);
  o.stale_after_us = 0;
  o.evict_after_us = 0;
  o.retransmission_cache = 2048;
  // The benchmark owns the trace ring: it enables it (on a wall clock) only
  // for traced frames, so the AH must not enable its own.
  o.telemetry = tel;
  o.trace_capacity = 0;
  o.seed = seeds.host;
  return o;
}

ParticipantOptions viewer_options(std::int64_t width, std::int64_t height,
                                  std::uint64_t seed) {
  ParticipantOptions p;
  p.screen_width = width;
  p.screen_height = height;
  p.send_nacks = true;
  p.nack_delay_us = 15'000;
  p.nack_jitter_us = 0;
  p.rr_interval_us = sim_sec(1);
  p.loss_recovery_delay_us = 250'000;
  p.max_nack_rounds = 8;
  p.max_nack_per_seq = 4;
  p.reorder_max_hold = 128;
  p.reorder_max_age_us = 500'000;
  p.starvation_timeout_us = sim_sec(2);
  p.starvation_backoff_max_us = sim_sec(30);
  p.starvation_jitter = 0.25;
  p.seed = seed;
  return p;
}

/// Link seeds drawn in creation order from the workload's link seed.
class LinkSeeds {
 public:
  explicit LinkSeeds(std::uint64_t seed) : rng_(seed) {}
  UdpChannelOptions udp(SimTime delay, double loss, std::uint64_t bandwidth_bps) {
    UdpChannelOptions c;
    c.loss = loss;
    c.duplicate = 0.0;
    c.delay_us = delay;
    // No jitter: a UDP viewer whose first datagrams arrive reordered can
    // miss its first full refresh, which would stall set-up.
    c.jitter_us = 0;
    c.bandwidth_bps = bandwidth_bps;
    c.queue_bytes = 256 * 1024;
    c.seed = rng_.next_u64() | 2;  // never the session's "pick one" value 1
    return c;
  }
  std::uint64_t next() { return rng_.next_u64(); }
  /// A viewer's one-way delay, 20 ms give or take half a millisecond:
  /// viewers sit at slightly different distances, so the latency figures
  /// depend on the seed without one seed's draw dominating them.
  SimTime viewer_delay() { return 19'500 + rng_.below(1'001); }

 private:
  Prng rng_;
};

/// Counts the RTP bytes handed to it; used for both AH endpoints and relay
/// legs (the two callback shapes are identical).
template <typename Endpoint>
Endpoint sink_endpoint(Sink* s) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_datagram = [s](BytesView d) {
    if (classify_packet(d) == PacketKind::kRtp) {
      s->bytes += d.size();
      ++s->packets;
    }
    return true;
  };
  ep.send_packet = [s](const PacketView& v) {
    s->bytes += v.wire_size();
    ++s->packets;
    return true;
  };
  ep.send_packet_batch = [s](std::span<const PacketView> batch) {
    for (const PacketView& v : batch) s->bytes += v.wire_size();
    s->packets += batch.size();
    return batch.size();
  };
  return ep;
}

Viewer* add_viewer(Rig& rig, Participant* p, transcode::OutputGeometry geom,
                   bool lossy) {
  auto v = std::make_unique<Viewer>();
  v->p = p;
  v->geom = geom;
  v->lossy = lossy;
  v->join_at = rig.s().loop().now();
  v->present_from = v->join_at;
  rig.viewers.push_back(std::move(v));
  return rig.viewers.back().get();
}

// The wrappers below re-install the session's channel receivers. Each runs
// exactly the call the session's own closure makes (session.cpp), inside a
// timer; the session never re-wires a channel unless it evicts, fails over
// or restarts, and the oracle fails the run if any of those happened.

void wrap_connection(Rig& rig, SharingSession::Connection& c, Viewer* v) {
  AppHost* host = &rig.host();
  CallTimer* up = &rig.uplink;
  Participant* p = c.participant.get();
  const ParticipantId id = c.id;
  if (c.down_udp) {
    c.down_udp->set_receiver(
        [p, v](Bytes data) { v->recv.time([&] { p->on_datagram(data); }); });
    c.up_udp->set_receiver([host, up, id](Bytes data) {
      up->time([&] { host->on_uplink_packet(id, data); });
    });
  } else {
    c.down_tcp->set_receiver(
        [p, v](Bytes data) { v->recv.time([&] { p->on_stream_bytes(data); }); });
    c.up_tcp->set_receiver([host, up, id](Bytes data) {
      up->time([&] { host->on_uplink_stream(id, data); });
    });
  }
}

void wrap_relay(Rig& rig, SharingSession::RelayHandle* r) {
  AppHost* host = &rig.host();
  CallTimer* down = &rig.relay_down;
  CallTimer* up = &rig.uplink;
  CallTimer* leg = &rig.relay_up;
  r->down->set_receiver([r, down](Bytes data) {
    if (r->node) down->time([&] { r->node->on_upstream_datagram(std::move(data)); });
  });
  r->up->set_receiver([r, host, up, leg](Bytes data) {
    if (r->parent == nullptr) {
      up->time([&] { host->on_uplink_packet(r->upstream_id, data); });
    } else if (r->parent->alive && r->parent->node) {
      leg->time([&] { r->parent->node->on_leg_packet(r->leg, data); });
    }
  });
}

void wrap_relay_viewer(Rig& rig, SharingSession::RelayViewer* rv, Viewer* v) {
  CallTimer* leg = &rig.relay_up;
  Participant* p = rv->participant.get();
  rv->down->set_receiver(
      [p, v](Bytes data) { v->recv.time([&] { p->on_datagram(data); }); });
  rv->up->set_receiver([rv, leg](Bytes data) {
    if (rv->relay->alive && rv->relay->node) {
      leg->time([&] { rv->relay->node->on_leg_packet(rv->leg, data); });
    }
  });
}

/// A window painter that never changes: the content of the app it replaces.
class FrozenApp final : public AppPainter {
 public:
  explicit FrozenApp(const Image& content)
      : AppPainter(content.width(), content.height(), kBlack) {
    content_ = content;
  }
  void tick(std::uint64_t) override {}
  std::string_view name() const override { return "frozen"; }
};

// ---------------------------------------------------------------- workloads

std::unique_ptr<Rig> build_video_fanout(const Seeds& seeds) {
  constexpr std::int64_t kW = 640, kH = 480;
  auto rig = std::make_unique<Rig>();
  rig->session = std::make_unique<SharingSession>(
      host_options(kW, kH, seeds, &rig->tel));
  AppHost& host = rig->host();
  const Rect pane{160, 120, 320, 240};
  const WindowId w = host.wm().create(pane, 1);
  host.capturer().attach(w, std::make_unique<VideoApp>(320, 240, seeds.app));
  rig->windows = {w};
  rig->content_area = pane;

  // Three operating points: PNG full-res, DCT full-res, PNG quarter-res.
  struct Op {
    ContentPt pt;
    std::uint8_t shift;
  };
  static constexpr Op kOps[3] = {
      {ContentPt::kPng, 0}, {ContentPt::kDct, 0}, {ContentPt::kPng, 2}};
  const auto apply_op = [](AppHost& h, ParticipantId id, const Op& op) {
    if (op.pt != ContentPt::kPng) h.set_participant_codec(id, op.pt);
    if (op.shift != 0) {
      transcode::OutputGeometry g;
      g.scale_shift = op.shift;
      h.set_participant_geometry(id, g);
    }
  };

  // 125 wire sinks, split evenly over the operating points; each asks for
  // its first frame with one PLI, as a UDP joiner does.
  for (int i = 0; i < 125; ++i) {
    Sink* s = &rig->sinks.emplace_back();
    const ParticipantId id = host.add_participant(sink_endpoint<HostEndpoint>(s));
    apply_op(host, id, kOps[i % 3]);
    host.on_uplink_packet(id, PictureLossIndication{}.serialize());
  }

  // Three real UDP viewers, one per operating point.
  auto links = std::make_shared<LinkSeeds>(seeds.link);
  Rig* rp = rig.get();
  for (const Op& op : kOps) {
    rig->joins.push_back([rp, links, op, apply_op] {
      UdpLinkConfig link;
      const SimTime delay = links->viewer_delay();
      link.down = links->udp(delay, 0.0, 50'000'000);
      link.up = links->udp(delay, 0.0, 0);
      auto& c = rp->s().add_udp_participant(
          viewer_options(kW, kH, links->next()), link);
      apply_op(rp->host(), c.id, op);
      transcode::OutputGeometry g;
      g.scale_shift = op.shift;
      Viewer* v = add_viewer(*rp, c.participant.get(), g, op.pt == ContentPt::kDct);
      v->reference = true;
      wrap_connection(*rp, c, v);
      c.participant->join();
    });
  }
  return rig;
}

std::unique_ptr<Rig> build_office_desktop(const Seeds& seeds) {
  constexpr std::int64_t kW = 1280, kH = 1024;
  auto rig = std::make_unique<Rig>();
  AppHostOptions o = host_options(kW, kH, seeds, &rig->tel);
  o.adaptation.enabled = true;
  rig->session = std::make_unique<SharingSession>(o);
  AppHost& host = rig->host();

  const WindowId term = host.wm().create({0, 0, 640, 512}, 1);
  const WindowId web = host.wm().create({0, 512, 640, 512}, 1);
  const WindowId doc = host.wm().create({640, 0, 640, 1024}, 1);
  auto terminal_app = std::make_unique<TerminalApp>(640, 512, seeds.app, 8);
  TerminalApp* terminal = terminal_app.get();
  host.capturer().attach(term, std::move(terminal_app));
  host.capturer().attach(
      web, std::make_unique<WebPageApp>(640, 512, seeds.app + 1, 3, 12));
  host.capturer().attach(
      doc, std::make_unique<DocumentApp>(640, 1024, seeds.app + 2, 16));
  rig->windows = {term, web, doc};
  rig->content_area = {0, 0, kW, kH};
  host.set_input_sink([terminal](ParticipantId, const HipMessage& msg) {
    if (const auto* typed = std::get_if<KeyTyped>(&msg)) {
      terminal->inject_utf8(typed->utf8);
    } else if (const auto* key = std::get_if<KeyPressed>(&msg)) {
      terminal->inject_key(key->key_code);
    }
  });

  // 8 UDP viewers on lossy links (NACK repair, adaptation), 8 TCP viewers
  // behind the §7 backlog gate, interleaved in join order.
  auto links = std::make_shared<LinkSeeds>(seeds.link);
  Rig* rp = rig.get();
  for (int i = 0; i < 16; ++i) {
    if (i % 2 == 0) {
      rig->joins.push_back([rp, links, first = i == 0] {
        UdpLinkConfig link;
        const SimTime delay = links->viewer_delay();
        link.down = links->udp(delay, 0.01, 20'000'000);
        link.up = links->udp(delay, 0.01, 0);
        auto& c = rp->s().add_udp_participant(
            viewer_options(kW, kH, links->next()), link);
        Viewer* v = add_viewer(*rp, c.participant.get(), {}, false);
        v->reference = first;
        wrap_connection(*rp, c, v);
        c.participant->join();
      });
    } else {
      rig->joins.push_back([rp, links, first = i == 1] {
        TcpLinkConfig link;
        link.down.bandwidth_bps = 10'000'000;
        link.down.delay_us = links->viewer_delay();
        link.down.send_buffer_bytes = 256 * 1024;
        link.up.bandwidth_bps = 10'000'000;
        link.up.delay_us = link.down.delay_us;
        link.up.send_buffer_bytes = 64 * 1024;
        // TCP viewers join by connecting: the AH pushes the §4.4 state.
        auto& c = rp->s().add_tcp_participant(
            viewer_options(kW, kH, links->next()), link);
        Viewer* v = add_viewer(*rp, c.participant.get(), {}, false);
        wrap_connection(*rp, c, v);
        if (first) {
          // This viewer holds the BFCP floor and types into the terminal.
          rp->typist = c.participant.get();
          rp->typist->request_floor();
        }
      });
    }
  }
  rig->ready_extra = [rp] { return rp->typist && rp->typist->has_floor(); };
  static constexpr std::string_view kText =
      "the quick brown fox jumps over the lazy dog 0123456789 ";
  const std::uint64_t offset = seeds.app % kText.size();
  rig->before_tick = [rp, offset](int f, int) {
    rp->typist->key_type(std::string(
        1, kText[(offset + static_cast<std::size_t>(f)) % kText.size()]));
  };
  return rig;
}

std::unique_ptr<Rig> build_relay_flashcrowd(const Seeds& seeds) {
  constexpr std::int64_t kW = 1024, kH = 768;
  constexpr int kSinksPerLeaf = 60;
  constexpr std::size_t kCrowd = 24;
  auto rig = std::make_unique<Rig>();
  AppHostOptions o = host_options(kW, kH, seeds, &rig->tel);
  o.snapshot.enabled = true;
  o.snapshot.refresh_interval_us = sim_ms(300);
  o.snapshot.max_bundles = 16;
  o.snapshot.max_delta_fraction = 0.5;
  rig->session = std::make_unique<SharingSession>(o);
  AppHost& host = rig->host();
  const WindowId w = host.wm().create({0, 0, kW, kH}, 1);
  host.capturer().attach(w, std::make_unique<WebPageApp>(kW, kH, seeds.app, 3, 12));
  rig->windows = {w};
  rig->content_area = {0, 0, kW, kH};

  auto links = std::make_shared<LinkSeeds>(seeds.link);
  relay::RelayOptions ro;
  ro.max_legs = 64;
  ro.report_interval_us = 500'000;
  ro.nack_flush_us = 5'000;
  ro.nack_holdoff_us = 100'000;
  ro.pli_coalesce_us = 500'000;
  ro.pli_batch_us = sim_ms(100);
  ro.retransmission_cache = 4096;
  ro.leg_backlog_limit = 64 * 1024;
  ro.leg_rate_bps = 0;
  ro.leg_burst_bytes = 64 * 1024;
  ro.adaptation = rate::AdaptationOptions{};
  ro.upstream_timeout_us = sim_sec(2);
  ro.probe_interval_us = 250'000;
  const auto relay_link = [links] {
    UdpLinkConfig link;
    link.down = links->udp(sim_ms(5), 0.0, 0);
    link.up = links->udp(sim_ms(5), 0.0, 0);
    return link;
  };

  // Depth-2 tree: 2 roots under the AH, 4 leaves under each root; every
  // leaf serves 60 wire-sink legs.
  std::vector<SharingSession::RelayHandle*> leaves;
  for (int r = 0; r < 2; ++r) {
    ro.seed = links->next();
    auto& root = rig->s().add_relay(ro, relay_link());
    wrap_relay(*rig, &root);
    for (int l = 0; l < 4; ++l) {
      ro.seed = links->next();
      auto& leaf = rig->s().add_relay_child(root, ro, relay_link(), {});
      wrap_relay(*rig, &leaf);
      leaves.push_back(&leaf);
      for (int i = 0; i < kSinksPerLeaf; ++i) {
        Sink* s = &rig->sinks.emplace_back();
        leaf.node->add_leg(sink_endpoint<relay::LegEndpoint>(s), {});
      }
    }
  }

  rig->faults = std::make_unique<chaos::FaultSchedule>(rig->s().loop(), seeds.join);
  Rig* rp = rig.get();
  const auto join_leaf = [rp, links](SharingSession::RelayHandle* leaf) {
    UdpLinkConfig link;
    const SimTime delay = links->viewer_delay();
    link.down = links->udp(delay, 0.0, 20'000'000);
    link.up = links->udp(delay, 0.0, 0);
    auto& rv = rp->s().add_relay_viewer(*leaf, viewer_options(kW, kH, links->next()),
                                        link, {});
    Viewer* v = add_viewer(*rp, rv.participant.get(), {}, false);
    v->reference = rp->viewers.size() == 1;
    wrap_relay_viewer(*rp, &rv, v);
    rv.participant->join();
  };
  // One real viewer per leaf from the start ...
  for (auto* leaf : leaves) rig->joins.push_back([join_leaf, leaf] { join_leaf(leaf); });
  // ... and a mid-run flash crowd: 24 more across 150 ms, spread over the
  // leaves on the join_flood schedule.
  rig->before_tick = [rp, leaves, join_leaf](int f, int frames) {
    if (f != frames / 2) return;
    rp->faults->join_flood(rp->s().loop().now(), sim_ms(150), kCrowd,
                           [leaves, join_leaf](std::size_t i) {
                             join_leaf(leaves[i % leaves.size()]);
                           });
  };
  rig->crowd = kCrowd;
  return rig;
}

}  // namespace

Seeds::Seeds(std::uint64_t seed)
    : app(mix(seed, 0xA11)),
      link(mix(seed, 0x11CC)),
      join(mix(seed, 0x101)),
      host(mix(seed, 0xADA5)) {}

bool Rig::ready() const {
  if (viewers.size() < joins.size()) return false;
  for (const auto& v : viewers) {
    if (v->joined_at == 0) return false;
  }
  for (const Sink& s : sinks) {
    if (s.packets == 0) return false;
  }
  return !ready_extra || ready_extra();
}

void Rig::tend_joins(std::vector<std::vector<Participant::DeliveryRecord>>* out) {
  const Rect frame = host().capturer().last_frame().bounds();
  const SimTime now = s().loop().now();
  if (out) out->resize(viewers.size());
  for (std::size_t i = 0; i < viewers.size(); ++i) {
    Viewer& v = *viewers[i];
    auto deliveries = v.p->drain_deliveries();
    // Join-to-first-frame as in E19: the refresh arrives as full-width
    // bands; the join completes when their area covers the whole output.
    const Rect want = transcode::output_bounds(v.geom, frame);
    for (const auto& d : deliveries) {
      if (v.joined_at != 0 || d.arrived_us <= v.join_at || d.region.width != want.width) {
        continue;
      }
      v.covered += d.region.area();
      if (v.covered >= want.area()) v.joined_at = d.arrived_us;
    }
    // Participant::join() sends one PLI; if it is lost while deltas keep
    // arriving, nothing re-sends it. A client gives up waiting after a
    // second and asks again, which join_ms_p50 then shows.
    if (v.joined_at == 0 && now - std::max(v.join_at, v.asked_at) >= kJoinRetry) {
      v.p->request_refresh();
      v.asked_at = now;
    }
    if (out) (*out)[i] = std::move(deliveries);
  }
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"video_fanout", 7.0, 20, build_video_fanout},
      {"office_desktop", 17.0, 250, build_office_desktop},
      {"relay_flashcrowd", 28.0, 60, build_relay_flashcrowd},
  };
  return all;
}

void freeze_content(Rig& rig) {
  AppHost& host = rig.host();
  // The typed-into terminal is about to be replaced: late HIP events must
  // not reach it.
  host.set_input_sink([](ParticipantId, const HipMessage&) {});
  for (const WindowId w : rig.windows) {
    const AppPainter* app = host.capturer().app(w);
    host.capturer().attach(w, std::make_unique<FrozenApp>(app->content()));
  }
}

}  // namespace perfbench
