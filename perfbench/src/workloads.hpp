// The benchmark's three workloads, built against the public API of ads:
// SharingSession, AppHost, Participant and RelayNode. A Rig is one built
// session plus everything the measurement loop needs to time and check it.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "harness.hpp"

namespace perfbench {

/// One real viewer: a Participant whose replica the oracle checks.
struct Viewer {
  ads::Participant* p = nullptr;
  ads::transcode::OutputGeometry geom;  ///< what its replica should equal
  bool lossy = false;                   ///< DCT viewer: checked by PSNR
  bool reference = false;  ///< stands for its operating point in the codec
                           ///< per-layer metrics; the first reference is
                           ///< full-res and lossless and also stands for
                           ///< the frame's damage
  ads::SimTime join_at = 0;
  ads::SimTime asked_at = 0;   ///< last refresh request while joining
  ads::SimTime joined_at = 0;  ///< first full frame (0 = not yet)
  std::int64_t covered = 0;    ///< full-width area seen since join_at
  CallTimer recv;              ///< receive calls in the current frame
  ads::Participant::Stats base;  ///< counters at the start of the window
  ads::SimTime present_from = 0;  ///< start of its share of the window
};

/// A wire sink: a viewer whose decode runs outside the process. It counts
/// the RTP bytes the AH or a relay leg hands it.
struct Sink {
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  std::uint64_t base_bytes = 0;
};

/// Seeds derived from the benchmark's seed argument.
struct Seeds {
  std::uint64_t app = 0;
  std::uint64_t link = 0;
  std::uint64_t join = 0;
  std::uint64_t host = 0;
  explicit Seeds(std::uint64_t seed);
};

/// One built session with its viewers, sinks and receiver timers.
struct Rig {
  ads::telemetry::Telemetry tel;  ///< injected into the AH (outlives it)
  std::unique_ptr<ads::SharingSession> session;
  std::vector<std::unique_ptr<Viewer>> viewers;
  std::deque<Sink> sinks;
  std::vector<ads::WindowId> windows;
  ads::Rect content_area;  ///< where psnr_db is measured
  // Receiver timers, reset every frame.
  CallTimer uplink;      ///< AppHost::on_uplink_packet / on_uplink_stream
  CallTimer relay_down;  ///< RelayNode::on_upstream_datagram
  CallTimer relay_up;    ///< RelayNode::on_leg_packet
  /// Extra readiness condition for set-up (e.g. the floor is granted).
  std::function<bool()> ready_extra;
  /// Workload input before frame `f` of the measured window of `frames`.
  std::function<void(int f, int frames)> before_tick;
  /// Joins of the real viewers present from the start; set-up plays them
  /// evenly spread across one frame interval.
  std::vector<std::function<void()>> joins;
  /// Real viewers that join mid-run (before_tick schedules them).
  std::size_t crowd = 0;
  ads::Participant* typist = nullptr;  ///< floor holder typing over HIP
  std::unique_ptr<ads::chaos::FaultSchedule> faults;  ///< mid-run join wave

  ads::SharingSession& s() { return *session; }
  ads::AppHost& host() { return session->host(); }
  /// True when every viewer has its first full frame and every sink has
  /// received media.
  bool ready() const;
  /// Drain every viewer's deliveries into the first-full-frame tracking,
  /// and re-request a refresh for any viewer still waiting a second after
  /// its last request. Returns the deliveries of viewer i in out[i] when
  /// `out` is given.
  void tend_joins(std::vector<std::vector<ads::Participant::DeliveryRecord>>* out = nullptr);
};

/// A named workload: its build function, how many frames one wall second of
/// measurement buys on a 4-core host, and the capture tick the measured
/// window starts at (so every seed measures the same phase of the content,
/// however long its set-up took).
struct Workload {
  std::string name;
  double frames_per_second;
  std::uint64_t measure_from;
  std::function<std::unique_ptr<Rig>(const Seeds&)> build;
};

const std::vector<Workload>& workloads();

/// Replace every window's painter with a frozen copy of its content, so
/// the next ticks capture no new damage and the replicas can converge.
void freeze_content(Rig& rig);

}  // namespace perfbench
