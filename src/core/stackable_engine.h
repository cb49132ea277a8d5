// StackableEngine: common machinery for middle engines (§3.3, §3.4).
//
// A middle engine implements IEngine over the engine below it and registers
// itself as that engine's applicator. This base class provides:
//  * Header dispatch: an engine processes an entry only if its own header is
//    present; control entries (msgtype != kMsgTypeApp) are consumed without
//    being forwarded upstream.
//  * Nested sub-transactions: CallUpstream wraps the upstream apply in a
//    savepoint and converts a deterministic exception into an ApplyError
//    value after rolling the savepoint back, preserving this layer's writes.
//  * The two-phase dynamic-update protocol: every engine has an `enabled`
//    flag stored in the LocalStore that can only be toggled by a control
//    command through the log. A disabled engine piggybacks headers and
//    passes entries through but performs no state mutation in apply.
//  * Trim relay: each engine tracks the constraint relayed from above and
//    its own opinion, and forwards the minimum (§3.3).
//  * Observation sinks: an engine copies the server's sinks (EngineSinks:
//    profiler, registry, tracer, flight recorder, workload attributor,
//    server label) from the engine below it at construction, so engines
//    take no sink options and the BaseEngine's options decide for the whole
//    stack.
#pragma once

#include <atomic>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/workload.h"
#include "src/core/apply_profiler.h"
#include "src/core/engine.h"
#include "src/core/health.h"

namespace delos {

// Apply→postApply scratch parking for the group-commit pipeline.
//
// The BaseEngine applies a whole batch of log records inside one LocalStore
// transaction before running any postApply, so an engine that stashes
// per-entry state in a plain member between its Apply and PostApply hooks
// would see that member overwritten by later records in the batch. Engines
// instead park the scratch here keyed by log position at the end of Apply
// and take it back at the start of PostApply. Both hooks run on the single
// apply thread, so no locking is needed, and positions arrive in log order,
// so a deque suffices.
template <typename T>
class ApplyCarry {
 public:
  void Push(LogPos pos, T state) { fifo_.push_back({pos, std::move(state)}); }

  // Returns the state parked for `pos`. Earlier leftover entries — records
  // whose postApply never ran because the top-level apply threw — are
  // discarded. Returns nullopt when nothing was parked for `pos` (e.g. this
  // engine's Apply itself threw a deterministic error before parking).
  std::optional<T> Take(LogPos pos) {
    while (!fifo_.empty() && fifo_.front().first < pos) {
      fifo_.pop_front();
    }
    if (fifo_.empty() || fifo_.front().first != pos) {
      return std::nullopt;
    }
    T state = std::move(fifo_.front().second);
    fifo_.pop_front();
    return state;
  }

 private:
  std::deque<std::pair<LogPos, T>> fifo_;
};

// Control message types handled by StackableEngine itself. Engine-specific
// control types must be in [1, 999].
inline constexpr uint64_t kMsgTypeEnable = 1000;
inline constexpr uint64_t kMsgTypeDisable = 1001;

class StackableEngine : public IEngine, public IApplicator, public IHealthCheckable {
 public:
  // Registers itself as `downstream`'s applicator and inherits its sinks.
  // `start_enabled` is the enabled state when the LocalStore has no recorded
  // flag (i.e. the engine has always been part of this deployment's stack);
  // two-phase insertion deploys with false and enables via the log.
  StackableEngine(std::string name, IEngine* downstream, LocalStore* store,
                  bool start_enabled = true);

  // IEngine. Subclasses override Propose when they do more than piggyback
  // (e.g. batching, session retries).
  Future<std::any> Propose(LogEntry entry) override;
  Future<ROTxn> Sync() override { return downstream_->Sync(); }
  void RegisterUpcall(IApplicator* applicator) override { upstream_ = applicator; }
  void SetTrimPrefix(LogPos pos) override;
  EngineSinks sinks() const override { return sinks_; }

  // IApplicator (final: subclasses hook ApplyData / ApplyControl / ...).
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) final;
  void PostApply(const LogEntry& entry, LogPos pos) final;

  // Toggles the engine through the log (blocking). Phase two of insertion /
  // phase one of removal in the dynamic-update protocol.
  void EnableViaLog();
  void DisableViaLog();
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  const std::string& name() const { return name_; }

  // IHealthCheckable. Default: an engine with no judged failure mode is OK.
  // Engines with soft state that can wedge (batching queue, session gaps,
  // leases, membership) override with a real verdict; checks read soft state
  // only and are callable from any thread.
  HealthReport HealthCheck() const override {
    return HealthReport{name_, HealthState::kOk, "", 0};
  }

 protected:
  // Piggybacks this engine's header on an outgoing application proposal.
  // Default: none (the entry passes through untouched).
  virtual void OnPropose(LogEntry* entry) {}

  // Applies an application (data) entry while enabled. Default: pass
  // upstream. Overrides typically process their own header, mutate state
  // under space_, and then CallUpstream.
  virtual std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
    return CallUpstream(txn, entry, pos);
  }

  // Applies an engine-generated control entry while enabled. The entry is
  // not forwarded upstream. `header` borrows from `entry` (valid for the
  // call). Default: nothing.
  virtual std::any ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                                LogPos pos) {
    return std::any(Unit{});
  }

  // Post-apply hooks (soft state only; the transaction has committed).
  virtual void PostApplyData(const LogEntry& entry, LogPos pos) { ForwardPostApply(entry, pos); }
  virtual void PostApplyControl(const EngineHeaderView& header, const LogEntry& entry,
                                LogPos pos) {}

  // Invokes the upstream apply inside a nested sub-transaction; converts a
  // deterministic throw into an ApplyError value after rolling it back.
  std::any CallUpstream(RWTxn& txn, const LogEntry& entry, LogPos pos);

  // Forwards postApply upstream iff the upstream apply for this entry ran
  // (i.e. was not filtered and did not throw directly).
  void ForwardPostApply(const LogEntry& entry, LogPos pos);

  // Proposes an engine-generated control entry down the stack.
  Future<std::any> ProposeControl(uint64_t msgtype, std::string blob);

  // Updates this engine's own opinion of the trimmable prefix and relays
  // min(upstream constraint, own opinion) downstream.
  void SetOwnTrimOpinion(LogPos pos);

  // Stamps a fresh trace id on `entry` when tracing is on and the entry has
  // none — this engine is then the trace root. Returns the entry's ids
  // (empty when tracing is off); sets *assigned when a fresh id was minted.
  // Engines that bypass the generic Propose (batching, session retries) call
  // this so a proposal entering the stack at their layer is still traced.
  std::vector<uint64_t> EnsureTraceIds(LogEntry* entry, bool* assigned = nullptr);

  // Records the client-visible end-to-end span for a root proposal once its
  // future settles. `start` is the injected-clock time the proposal entered
  // the stack.
  void RecordRootSpanOnCompletion(Future<std::any>& future, std::vector<uint64_t> ids,
                                  int64_t start);

  // This engine's header on the entry currently being applied, found once by
  // the dispatch in Apply. Valid only inside ApplyData/ApplyControl on the
  // apply thread (the view borrows from the entry); engines that need their
  // own header read this instead of a second GetHeaderView per record.
  const std::optional<EngineHeaderView>& apply_header() const { return apply_header_; }

  IEngine* downstream() { return downstream_; }
  IApplicator* upstream() { return upstream_; }
  LocalStore* store() { return store_; }
  const Keyspace& space() const { return space_; }
  ApplyProfiler* profiler() { return sinks_.profiler; }
  MetricsRegistry* metrics() { return sinks_.metrics; }
  Tracer* tracer() { return sinks_.tracer; }
  FlightRecorder* recorder() { return sinks_.recorder; }
  WorkloadAttributor* workload() { return sinks_.workload; }
  const std::string& server_label() const { return sinks_.server_id; }

 private:
  void RelayTrim();
  std::any ApplyImpl(RWTxn& txn, const LogEntry& entry, LogPos pos);

  // What Apply learned about an entry, parked for its PostApply: whether the
  // upstream apply ran, and whether the entry was this engine's own control
  // entry — so the data-path PostApply (every record) skips the header map
  // lookup entirely and only control entries (rare) re-fetch their header.
  struct ApplyOutcome {
    bool upstream_applied = false;
    bool control = false;
  };

  std::string name_;
  // Precomputed profiler/span labels (hot-path Scope takes a reference).
  std::string apply_label_;
  std::string postapply_label_;
  std::string down_label_;
  // Pre-resolved profiler slots for the two per-record scopes (null when no
  // profiler): skips the profiler's shared-lock label lookup per record.
  std::atomic<int64_t>* apply_slot_ = nullptr;
  std::atomic<int64_t>* postapply_slot_ = nullptr;
  IEngine* downstream_;
  LocalStore* store_;
  // Copied from downstream_ at construction; never changes afterwards.
  const EngineSinks sinks_;
  Keyspace space_;
  std::string enabled_key_;
  IApplicator* upstream_ = nullptr;
  std::atomic<bool> enabled_{true};
  std::atomic<LogPos> upstream_constraint_{kNoTrimConstraint};
  std::atomic<LogPos> own_trim_opinion_{kNoTrimConstraint};
  // Per-entry flag (apply thread only): did the upstream apply run for the
  // entry currently being applied? Parked per position across the batch gap
  // between Apply and PostApply.
  bool upstream_applied_ = false;
  ApplyCarry<ApplyOutcome> outcome_carry_;
  // This engine's header on the entry currently being applied (see
  // apply_header()); dispatch-owned, apply thread only.
  std::optional<EngineHeaderView> apply_header_;
};

}  // namespace delos
