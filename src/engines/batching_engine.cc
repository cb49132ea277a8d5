#include "src/engines/batching_engine.h"

#include <algorithm>

#include "src/common/serde.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "batching";

std::string EncodeBatch(const std::vector<LogEntry>& entries) {
  Serializer ser;
  ser.WriteVarint(entries.size());
  for (const LogEntry& entry : entries) {
    ser.WriteString(entry.Serialize());
  }
  return ser.Release();
}

// Sub-entries are read as views into the blob and materialized once each.
// The claimed count sizes the vector only up to the blob's length (every
// sub-entry takes at least one byte).
std::vector<LogEntry> DecodeBatch(std::string_view blob) {
  Deserializer de(blob);
  const uint64_t count = de.ReadVarint();
  std::vector<LogEntry> entries;
  entries.reserve(std::min<uint64_t>(count, blob.size()));
  for (uint64_t i = 0; i < count; ++i) {
    entries.push_back(LogEntry::Deserialize(de.ReadStringView()));
  }
  return entries;
}

}  // namespace

BatchingEngine::BatchingEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store, options.start_enabled),
      options_(options) {
  if (options_.clock == nullptr) {
    options_.clock = RealClock::Instance();
  }
  if (metrics() != nullptr) {
    queue_depth_gauge_ = metrics()->GetGauge("batching.queue.depth");
  }
}

BatchingEngine::~BatchingEngine() {
  // Flush whatever is pending so waiters are not left hanging.
  std::unique_lock<std::mutex> lock(mu_);
  if (!batch_entries_.empty()) {
    FlushLocked(lock);
  }
}

Future<std::any> BatchingEngine::Propose(LogEntry entry) {
  if (!enabled()) {
    return downstream()->Propose(std::move(entry));
  }
  if (workload() != nullptr) {
    // Propose-path tap for the queue hand-off (this engine bypasses the
    // generic StackableEngine::Propose). The layers below charge the merged
    // batch entry once, carrying the union of client ids.
    workload()->ChargePropose("batching.queue", ClientIdsOf(entry), entry.SerializedSize());
  }
  Waiter waiter;
  waiter.promise = std::make_shared<Promise<std::any>>();
  Future<std::any> future = waiter.promise->GetFuture();
  if (tracer() != nullptr) {
    // Queue-wait accounting starts now; the span is recorded at flush. An
    // entry entering the stack at this layer is stamped here, so batched
    // proposals are traced even with no engine above.
    waiter.trace_ids = EnsureTraceIds(&entry, &waiter.trace_root);
    waiter.enqueue_micros = tracer()->NowMicros();
  }
  std::unique_lock<std::mutex> lock(mu_);
  batch_entries_.push_back(std::move(entry));
  batch_waiters_.push_back(std::move(waiter));
  if (batch_entries_.size() == 1) {
    open_batch_since_micros_ = options_.clock->NowMicros();
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(static_cast<int64_t>(batch_entries_.size()));
  }
  if (batch_entries_.size() >= options_.max_batch_entries) {
    FlushLocked(lock);
    return future;
  }
  if (batch_entries_.size() == 1) {
    // First entry of a new batch: arm the delay timer.
    const uint64_t ticket = batch_ticket_;
    scheduler_.Schedule(options_.max_delay_micros, [this, ticket] {
      std::unique_lock<std::mutex> timer_lock(mu_);
      if (batch_ticket_ == ticket && !batch_entries_.empty()) {
        FlushLocked(timer_lock);
      }
    });
  }
  return future;
}

void BatchingEngine::FlushLocked(std::unique_lock<std::mutex>& lock) {
  std::vector<LogEntry> entries;
  std::vector<Waiter> waiters;
  entries.swap(batch_entries_);
  waiters.swap(batch_waiters_);
  batch_ticket_ += 1;
  open_batch_since_micros_ = 0;
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->Set(0);
  }
  lock.unlock();

  batches_proposed_.fetch_add(1, std::memory_order_relaxed);
  entries_batched_.fetch_add(entries.size(), std::memory_order_relaxed);

  LogEntry batch = MakeControlEntry(name(), kMsgTypeBatch, EncodeBatch(entries));
  // Stamp the batch with the union of the constituents' client ids (exactly
  // like trace ids below): the shared append downstream attributes to every
  // proposing client.
  std::vector<uint64_t> merged_clients;
  for (const LogEntry& sub : entries) {
    for (const uint64_t id : ClientIdsOf(sub)) {
      merged_clients.push_back(id);
    }
  }
  std::sort(merged_clients.begin(), merged_clients.end());
  merged_clients.erase(std::unique(merged_clients.begin(), merged_clients.end()),
                       merged_clients.end());
  if (!merged_clients.empty()) {
    SetClientIds(&batch, merged_clients);
  }
  Tracer* tracer = this->tracer();
  if (tracer != nullptr) {
    // Close every sub-entry's queue-wait span and stamp the batch control
    // entry with the *union* of their ids: the batch never gets an id of its
    // own, so the shared append downstream attributes to each constituent
    // proposal's trace.
    const int64_t flush_micros = tracer->NowMicros();
    std::vector<uint64_t> merged;
    for (const Waiter& waiter : waiters) {
      for (const uint64_t id : waiter.trace_ids) {
        tracer->RecordSpan(id, "batching.queue", server_label(), waiter.enqueue_micros,
                           flush_micros);
        merged.push_back(id);
      }
    }
    if (!merged.empty()) {
      SetTraceIds(&batch, merged);
    }
  }
  downstream()
      ->Propose(std::move(batch))
      .Then([waiters = std::move(waiters), tracer,
             server = server_label()](Result<std::any> result) {
        const std::vector<std::any>* batch_results = nullptr;
        if (result.ok()) {
          batch_results = &std::any_cast<const std::vector<std::any>&>(result.value());
        }
        if (tracer != nullptr) {
          // Sub-entries whose ids were minted here get their client-visible
          // root span now that the batch's outcome is known — including the
          // per-sub-entry outcome, so a failed constituent is marked failed
          // even when the batch as a whole committed.
          const int64_t end = tracer->NowMicros();
          for (size_t i = 0; i < waiters.size(); ++i) {
            const Waiter& waiter = waiters[i];
            if (!waiter.trace_root) {
              continue;
            }
            const bool failed = batch_results == nullptr || i >= batch_results->size() ||
                                IsApplyError((*batch_results)[i]);
            for (const uint64_t id : waiter.trace_ids) {
              tracer->RecordSpan(id, "client.propose", server, waiter.enqueue_micros, end,
                                 failed);
            }
          }
        }
        if (!result.ok()) {
          for (const Waiter& waiter : waiters) {
            waiter.promise->SetException(result.error());
          }
          return;
        }
        // The batch apply returned one result per sub-entry.
        const auto& results = *batch_results;
        for (size_t i = 0; i < waiters.size(); ++i) {
          if (i >= results.size()) {
            waiters[i].promise->SetException(std::make_exception_ptr(
                DelosError("batch result missing for sub-entry")));
            continue;
          }
          if (IsApplyError(results[i])) {
            waiters[i].promise->SetException(std::any_cast<ApplyError>(results[i]).error);
          } else {
            waiters[i].promise->SetValue(results[i]);
          }
        }
      });
  lock.lock();
}

HealthReport BatchingEngine::HealthCheck() const {
  int64_t since;
  int64_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    since = open_batch_since_micros_;
    depth = static_cast<int64_t>(batch_entries_.size());
  }
  HealthReport report{name(), HealthState::kOk, "", depth};
  if (depth == 0 || since == 0) {
    return report;
  }
  const int64_t age = options_.clock->NowMicros() - since;
  if (age >= options_.health_queue_unhealthy_micros) {
    report.state = HealthState::kUnhealthy;
    report.reason = "open batch stuck " + std::to_string(age) + "us (" + std::to_string(depth) +
                    " entries; flush timer or downstream wedged)";
    report.value = age;
  } else if (age >= options_.health_queue_degraded_micros) {
    report.state = HealthState::kDegraded;
    report.reason = "open batch aged " + std::to_string(age) + "us (" + std::to_string(depth) +
                    " entries)";
    report.value = age;
  }
  return report;
}

std::any BatchingEngine::ApplyControl(RWTxn& txn, const EngineHeaderView& header,
                                      const LogEntry& entry, LogPos pos) {
  if (header.msgtype != kMsgTypeBatch) {
    return std::any(Unit{});
  }
  // Group commit: every sub-entry applies within this one transaction. The
  // sub-entries whose upstream apply ran (the ones owed a postApply) are
  // compacted to the front and parked for PostApplyControl.
  std::vector<LogEntry> entries = DecodeBatch(header.blob);
  std::vector<std::any> results;
  results.reserve(entries.size());
  size_t applied = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    results.push_back(CallUpstream(txn, entries[i], pos));
    if (!IsApplyError(results.back())) {
      if (applied != i) {
        entries[applied] = std::move(entries[i]);
      }
      ++applied;
    }
  }
  entries.resize(applied);
  applying_carry_.Push(pos, std::move(entries));
  return std::any(std::move(results));
}

void BatchingEngine::PostApplyControl(const EngineHeaderView& header, const LogEntry& entry,
                                      LogPos pos) {
  if (header.msgtype != kMsgTypeBatch) {
    return;
  }
  std::optional<std::vector<LogEntry>> applied = applying_carry_.Take(pos);
  if (!applied.has_value() || upstream() == nullptr) {
    return;
  }
  for (const LogEntry& sub : *applied) {
    upstream()->PostApply(sub, pos);
  }
}

}  // namespace delos
