#include "src/core/stackable_engine.h"

#include <algorithm>

#include "src/common/logging.h"

namespace delos {

StackableEngine::StackableEngine(std::string name, IEngine* downstream, LocalStore* store,
                                 bool start_enabled)
    : name_(std::move(name)),
      apply_label_(name_ + ".apply"),
      postapply_label_(name_ + ".postApply"),
      down_label_(name_ + ".down"),
      downstream_(downstream),
      store_(store),
      sinks_(downstream->sinks()),
      space_("e/" + name_ + "/"),
      enabled_key_(space_.Key("enabled")) {
  if (sinks_.profiler != nullptr) {
    apply_slot_ = sinks_.profiler->LabelSlot(apply_label_);
    postapply_slot_ = sinks_.profiler->LabelSlot(postapply_label_);
  }
  // Recover the enabled flag; absent means "configured statically".
  auto flag = store_->Snapshot().Get(enabled_key_);
  if (flag.has_value()) {
    enabled_.store(*flag == "1", std::memory_order_release);
  } else {
    enabled_.store(start_enabled, std::memory_order_release);
  }
  downstream_->RegisterUpcall(this);
}

std::vector<uint64_t> StackableEngine::EnsureTraceIds(LogEntry* entry, bool* assigned) {
  if (assigned != nullptr) {
    *assigned = false;
  }
  if (sinks_.tracer == nullptr) {
    return {};
  }
  std::vector<uint64_t> ids = TraceIdsOf(*entry);
  if (ids.empty()) {
    ids.push_back(sinks_.tracer->NextTraceId());
    SetTraceIds(entry, ids);
    if (assigned != nullptr) {
      *assigned = true;
    }
  }
  return ids;
}

void StackableEngine::RecordRootSpanOnCompletion(Future<std::any>& future,
                                                 std::vector<uint64_t> ids, int64_t start) {
  Tracer* tracer = sinks_.tracer;
  if (tracer == nullptr || ids.empty()) {
    return;
  }
  future.Then(
      [tracer, ids = std::move(ids), start, server = sinks_.server_id](Result<std::any> result) {
        const int64_t end = tracer->NowMicros();
        for (const uint64_t id : ids) {
          tracer->RecordSpan(id, "client.propose", server, start, end, !result.ok());
        }
      });
}

Future<std::any> StackableEngine::Propose(LogEntry entry) {
  // Even a not-yet-enabled engine may piggyback its header (phase one of the
  // two-phase insertion protocol); it just must not act on it in apply.
  OnPropose(&entry);
  if (sinks_.workload != nullptr) {
    // Propose-path tap: charge this layer's hand-off with the proposing
    // clients' serialized bytes (the entry as it descends, headers included).
    sinks_.workload->ChargePropose(down_label_, ClientIdsOf(entry), entry.SerializedSize());
  }
  Tracer* tracer = sinks_.tracer;
  if (tracer == nullptr) {
    return downstream_->Propose(std::move(entry));
  }
  // Down-path span: the synchronous hand-off through every layer below this
  // one. The topmost engine an entry touches also mints its trace id and
  // records the client-visible end-to-end span when the propose settles.
  bool assigned = false;
  const std::vector<uint64_t> ids = EnsureTraceIds(&entry, &assigned);
  const int64_t start = tracer->NowMicros();
  Future<std::any> future = downstream_->Propose(std::move(entry));
  const int64_t handoff = tracer->NowMicros();
  for (const uint64_t id : ids) {
    tracer->RecordSpan(id, down_label_, sinks_.server_id, start, handoff);
  }
  if (assigned) {
    RecordRootSpanOnCompletion(future, ids, start);
  }
  return future;
}

void StackableEngine::SetTrimPrefix(LogPos pos) {
  upstream_constraint_.store(pos, std::memory_order_release);
  RelayTrim();
}

void StackableEngine::SetOwnTrimOpinion(LogPos pos) {
  own_trim_opinion_.store(pos, std::memory_order_release);
  RelayTrim();
}

void StackableEngine::RelayTrim() {
  downstream_->SetTrimPrefix(std::min(upstream_constraint_.load(std::memory_order_acquire),
                                      own_trim_opinion_.load(std::memory_order_acquire)));
}

std::any StackableEngine::Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  ApplyProfiler::Scope scope(sinks_.profiler, apply_slot_);
  // Up-path span: this layer's apply of a traced entry, attributed to this
  // replica. Untraced entries (tracer off, or no trace header) pay only the
  // header lookup.
  Tracer* tracer = sinks_.tracer;
  std::vector<uint64_t> trace_ids;
  int64_t trace_start = 0;
  if (tracer != nullptr) {
    trace_ids = TraceIdsOf(entry);
    if (!trace_ids.empty()) {
      trace_start = tracer->NowMicros();
    }
  }
  upstream_applied_ = false;
  std::any result = ApplyImpl(txn, entry, pos);
  outcome_carry_.Push(
      pos, ApplyOutcome{upstream_applied_,
                        apply_header_.has_value() && apply_header_->msgtype != kMsgTypeApp});
  if (!trace_ids.empty()) {
    const int64_t trace_end = tracer->NowMicros();
    for (const uint64_t id : trace_ids) {
      tracer->RecordSpan(id, apply_label_, sinks_.server_id, trace_start, trace_end);
    }
  }
  return result;
}

std::any StackableEngine::ApplyImpl(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  // Borrowed header peek: the app-data hot path only needs the msgtype, so
  // no blob is copied; the control path materializes the header it consumes.
  // Stashed for the hooks (apply_header()) so they never look it up again.
  apply_header_ = entry.GetHeaderView(name_);
  const std::optional<EngineHeaderView>& header = apply_header_;
  if (header.has_value() && header->msgtype != kMsgTypeApp) {
    // Engine-generated control entry: consumed here, never forwarded.
    if (header->msgtype == kMsgTypeEnable) {
      txn.Put(enabled_key_, "1");
      return std::any(Unit{});
    }
    if (header->msgtype == kMsgTypeDisable) {
      txn.Put(enabled_key_, "0");
      return std::any(Unit{});
    }
    if (!enabled()) {
      return std::any(Unit{});
    }
    const Savepoint savepoint = txn.MakeSavepoint();
    try {
      return ApplyControl(txn, header->Materialize(), entry, pos);
    } catch (const DeterministicError&) {
      txn.RollbackTo(savepoint);
      return std::any(ApplyError{std::current_exception()});
    }
  }

  // Application data path.
  if (!enabled()) {
    return CallUpstream(txn, entry, pos);
  }
  const Savepoint savepoint = txn.MakeSavepoint();
  try {
    return ApplyData(txn, entry, pos);
  } catch (const DeterministicError&) {
    txn.RollbackTo(savepoint);
    upstream_applied_ = false;
    return std::any(ApplyError{std::current_exception()});
  }
}

std::any StackableEngine::CallUpstream(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  if (upstream_ == nullptr) {
    upstream_applied_ = true;
    return std::any(Unit{});
  }
  const Savepoint savepoint = txn.MakeSavepoint();
  try {
    std::any result = upstream_->Apply(txn, entry, pos);
    // A returned ApplyError came from a layer further up that the layer
    // above us already rolled back; the layer above us still applied.
    upstream_applied_ = true;
    return result;
  } catch (const DeterministicError&) {
    txn.RollbackTo(savepoint);
    upstream_applied_ = false;
    return std::any(ApplyError{std::current_exception()});
  }
}

void StackableEngine::PostApply(const LogEntry& entry, LogPos pos) {
  ApplyProfiler::Scope scope(sinks_.profiler, postapply_slot_);
  // Restore this entry's parked outcome before dispatching so
  // ForwardPostApply (called from the hooks below) sees the value Apply
  // computed for `pos`, not for whatever record the batch applied last. The
  // outcome also says whether this was our control entry, so the data path
  // — every applied record — skips the header lookup; only control entries
  // (and the rare no-outcome fallback, when Apply never ran for `pos`)
  // re-fetch the header.
  bool control = false;
  if (auto outcome = outcome_carry_.Take(pos); outcome.has_value()) {
    upstream_applied_ = outcome->upstream_applied;
    control = outcome->control;
  } else {
    upstream_applied_ = false;
    auto peek = entry.GetHeaderView(name_);
    control = peek.has_value() && peek->msgtype != kMsgTypeApp;
  }
  if (control) {
    auto header = entry.GetHeaderView(name_);
    if (!header.has_value()) {
      return;
    }
    if (header->msgtype == kMsgTypeEnable) {
      enabled_.store(true, std::memory_order_release);
      LOG_INFO << "engine " << name_ << " enabled via log at pos " << pos;
      if (sinks_.recorder != nullptr) {
        sinks_.recorder->Record(FlightEventKind::kControl, name_ + " enabled", 0, pos);
      }
      return;
    }
    if (header->msgtype == kMsgTypeDisable) {
      enabled_.store(false, std::memory_order_release);
      LOG_INFO << "engine " << name_ << " disabled via log at pos " << pos;
      if (sinks_.recorder != nullptr) {
        sinks_.recorder->Record(FlightEventKind::kControl, name_ + " disabled", 0, pos);
      }
      return;
    }
    if (enabled()) {
      PostApplyControl(header->Materialize(), entry, pos);
    }
    return;
  }
  if (enabled()) {
    PostApplyData(entry, pos);
  } else {
    ForwardPostApply(entry, pos);
  }
}

void StackableEngine::ForwardPostApply(const LogEntry& entry, LogPos pos) {
  if (upstream_ != nullptr && upstream_applied_) {
    upstream_->PostApply(entry, pos);
  }
}

Future<std::any> StackableEngine::ProposeControl(uint64_t msgtype, std::string blob) {
  LogEntry entry = MakeControlEntry(name_, msgtype, std::move(blob));
  return downstream_->Propose(std::move(entry));
}

void StackableEngine::EnableViaLog() { ProposeControl(kMsgTypeEnable, "").Get(); }

void StackableEngine::DisableViaLog() { ProposeControl(kMsgTypeDisable, "").Get(); }

}  // namespace delos
