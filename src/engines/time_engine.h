// TimeEngine (paper §4.3, 2021).
//
// Distributed time-outs that are robust to clock skew and drift: a timer
// created via the log fires only once a fixed amount of time has elapsed on
// a quorum of servers' *local* clocks. Each server, upon applying the
// creation command, starts a local countdown and proposes an ELAPSED command
// when it expires; the timer deterministically fires at the log position
// where the quorum-th distinct ELAPSED applies.
//
// The motivating use is time-based trimming for non-voting followers: create
// a timer at some log position and call setTrimPrefix when it fires (see
// TimedTrimmer below).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/core/stackable_engine.h"

namespace delos {

class TimeEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    // Servers whose local clocks must elapse before the timer fires.
    int quorum = 1;
    Clock* clock = nullptr;  // defaults to RealClock
    bool start_enabled = true;
  };

  // Invoked (on the apply thread, post-commit) when a timer fires; receives
  // the timer id and the log position of its creation command.
  using FireCallback = std::function<void(const std::string& id, LogPos create_pos)>;

  TimeEngine(Options options, IEngine* downstream, LocalStore* store);
  ~TimeEngine() override;

  // Creates a distributed timer through the log. Returns once the creation
  // command is appended (not once the timer fires).
  Future<std::any> CreateTimer(const std::string& id, int64_t duration_micros);

  // Registers a local callback for timer firings.
  void OnFire(FireCallback callback);

  // Deterministic query against committed state.
  bool IsFired(const std::string& id) const;

 protected:
  std::any ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyControl(const EngineHeaderView& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeCreate = 1;
  static constexpr uint64_t kMsgTypeElapsed = 2;

  std::any ApplyControlImpl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                            LogPos pos);

  Options options_;
  Clock* clock_;
  // Per-timer countdown threads: each polls the (possibly simulated) clock
  // and proposes ELAPSED when the deadline passes. Joined on destruction.
  std::atomic<bool> shutdown_{false};
  std::mutex threads_mu_;
  std::vector<std::thread> countdown_threads_;

  std::mutex callbacks_mu_;
  std::vector<FireCallback> callbacks_;

  // Apply-thread-only scratch (valid within one ApplyControlImpl call, then
  // parked per position in timer_carry_ for PostApplyControl): timer that
  // transitioned to fired in the entry being applied.
  std::string just_fired_id_;
  LogPos just_fired_create_pos_ = 0;
  // Timer created by the entry being applied (schedule countdown post-commit).
  std::string just_created_id_;
  int64_t just_created_duration_ = 0;

  struct TimerCarry {
    std::string fired_id;
    LogPos fired_create_pos = 0;
    std::string created_id;
    int64_t created_duration = 0;
  };
  ApplyCarry<TimerCarry> timer_carry_;
};

// Time-based trimming (the TimeEngine's production use case): creates a
// timer covering a log position and relays setTrimPrefix to the top of the
// stack when it fires, giving non-voting followers time to play entries.
class TimedTrimmer {
 public:
  TimedTrimmer(TimeEngine* time_engine, IEngine* stack_top);

  // Allows trimming up to `pos` once `delay_micros` has elapsed on the
  // TimeEngine's quorum of servers.
  void ScheduleTrim(LogPos pos, int64_t delay_micros);

 private:
  TimeEngine* time_engine_;
  IEngine* stack_top_;
  std::mutex mu_;
  std::map<std::string, LogPos> pending_;  // timer id -> trim position
  uint64_t next_id_ = 1;
};

}  // namespace delos
