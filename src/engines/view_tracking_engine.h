// ViewTrackingEngine (paper §4.1, 2018; production in both databases).
//
// Coordinates trimming of the shared log. Every outgoing proposal is stamped
// with the proposing server's *durable* playback position (the last log
// position applied AND flushed to a LocalStore checkpoint). Applying these
// headers builds, on every server, a deterministic map of playback positions
// across the fleet; the minimum over the map is the safe trim prefix, which
// the engine relays downward via SetTrimPrefix.
//
// The log itself is the discovery and failure-detection mechanism: a server
// joins the view when its first entry appears; a server silent for longer
// than the ejection timeout is removed from the view by an EJECT command
// that any other server may propose (the decision is in the log, hence
// deterministic).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "src/common/clock.h"
#include "src/core/stackable_engine.h"

namespace delos {

class ViewTrackingEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    // Returns this server's durable playback position (wired to
    // BaseEngine::durable_position).
    std::function<LogPos()> durable_position;
    // A server silent for this long becomes eligible for ejection. <=0
    // disables ejection.
    int64_t eject_after_micros = 0;
    // When >0, the engine proposes a heartbeat carrying this server's
    // durable position every interval. Keeps the server in the view (and
    // its position fresh) even when the application is idle — without it, a
    // server that never proposes is invisible to the view and gets no trim
    // protection.
    int64_t heartbeat_interval_micros = 0;
    Clock* clock = nullptr;  // defaults to RealClock
    bool start_enabled = true;
  };

  ViewTrackingEngine(Options options, IEngine* downstream, LocalStore* store);
  ~ViewTrackingEngine() override;

  // The deterministic view: server id -> durable playback position.
  std::map<std::string, LogPos> View() const;
  // Current safe trim position (min over the view), 0 if the view is empty.
  LogPos SafeTrimPosition() const;

  // Judges membership liveness: members silent past the ejection timeout
  // (when ejection is enabled) hold the trim prefix back for everyone.
  HealthReport HealthCheck() const override;

 protected:
  void OnPropose(LogEntry* entry) override;
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  std::any ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyData(const LogEntry& entry, LogPos pos) override;
  void PostApplyControl(const EngineHeaderView& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeEject = 1;
  static constexpr uint64_t kMsgTypeHeartbeat = 2;

  void RecomputeTrimOpinion(RWTxn& txn);
  void MaybeProposeEjections();
  void ApplyPositionReport(RWTxn& txn, const std::string& server, LogPos durable);
  void HeartbeatLoopMain();

  Options options_;
  Clock* clock_;
  // Current number of servers in the view, null without a registry.
  Gauge* members_gauge_ = nullptr;
  // Soft state: wall time we last saw an entry from each server, and the
  // last time we proposed ejecting it (rate limit). Apply thread +
  // background readers; guarded.
  mutable std::mutex soft_mu_;
  std::map<std::string, int64_t> last_seen_micros_;
  std::map<std::string, int64_t> last_eject_attempt_micros_;
  LogPos pending_trim_opinion_ = kNoTrimConstraint;  // set in apply, relayed in postApply

  std::atomic<bool> shutdown_{false};
  std::thread heartbeat_thread_;
};

}  // namespace delos
