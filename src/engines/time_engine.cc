#include "src/engines/time_engine.h"

#include "src/common/serde.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "time";

std::string EncodeCreate(const std::string& id, int64_t duration_micros) {
  Serializer ser;
  ser.WriteString(id);
  ser.WriteSigned(duration_micros);
  return ser.Release();
}

std::string EncodeElapsed(const std::string& id, const std::string& server) {
  Serializer ser;
  ser.WriteString(id);
  ser.WriteString(server);
  return ser.Release();
}

// Timer record in the LocalStore.
struct TimerState {
  int64_t duration_micros = 0;
  LogPos create_pos = 0;
  uint64_t elapsed_count = 0;
  bool fired = false;

  std::string Encode() const {
    Serializer ser;
    ser.WriteSigned(duration_micros);
    ser.WriteVarint(create_pos);
    ser.WriteVarint(elapsed_count);
    ser.WriteBool(fired);
    return ser.Release();
  }
  static TimerState Decode(std::string_view bytes) {
    Deserializer de(bytes);
    TimerState state;
    state.duration_micros = de.ReadSigned();
    state.create_pos = de.ReadVarint();
    state.elapsed_count = de.ReadVarint();
    state.fired = de.ReadBool();
    return state;
  }
};

}  // namespace

TimeEngine::TimeEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store, options.start_enabled),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : RealClock::Instance()) {}

TimeEngine::~TimeEngine() {
  shutdown_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (std::thread& thread : countdown_threads_) {
    if (thread.joinable()) {
      thread.join();
    }
  }
}

Future<std::any> TimeEngine::CreateTimer(const std::string& id, int64_t duration_micros) {
  return ProposeControl(kMsgTypeCreate, EncodeCreate(id, duration_micros));
}

void TimeEngine::OnFire(FireCallback callback) {
  std::lock_guard<std::mutex> lock(callbacks_mu_);
  callbacks_.push_back(std::move(callback));
}

bool TimeEngine::IsFired(const std::string& id) const {
  auto self = const_cast<TimeEngine*>(this);
  auto state = self->store()->Snapshot().Get(self->space().Key("timer/" + id));
  return state.has_value() && TimerState::Decode(*state).fired;
}

std::any TimeEngine::ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                                  LogPos pos) {
  std::any result = ApplyControlImpl(txn, header, entry, pos);
  // Park the scratch for this position: the group-commit pipeline applies a
  // whole batch before any postApply, so a later record in the batch would
  // otherwise clobber the members.
  timer_carry_.Push(pos, TimerCarry{std::move(just_fired_id_), just_fired_create_pos_,
                                    std::move(just_created_id_), just_created_duration_});
  just_fired_id_.clear();
  just_created_id_.clear();
  return result;
}

std::any TimeEngine::ApplyControlImpl(RWTxn& txn, const EngineHeaderView& header,
                                      const LogEntry& entry, LogPos pos) {
  just_fired_id_.clear();
  just_created_id_.clear();

  if (header.msgtype == kMsgTypeCreate) {
    Deserializer de(header.blob);
    std::string id = de.ReadString();
    const int64_t duration = de.ReadSigned();
    const std::string key = space().Key("timer/" + id);
    if (!txn.Get(key).has_value()) {
      TimerState state;
      state.duration_micros = duration;
      state.create_pos = pos;
      txn.Put(key, state.Encode());
      just_created_id_ = id;
      just_created_duration_ = duration;
    }
    return std::any(Unit{});
  }

  if (header.msgtype == kMsgTypeElapsed) {
    Deserializer de(header.blob);
    const std::string id = de.ReadString();
    const std::string server = de.ReadString();
    const std::string key = space().Key("timer/" + id);
    auto stored = txn.Get(key);
    if (!stored.has_value()) {
      return std::any(Unit{});
    }
    TimerState state = TimerState::Decode(*stored);
    if (state.fired) {
      return std::any(Unit{});
    }
    const std::string elapsed_key = space().Key("elapsed/" + id + "/" + server);
    if (txn.Get(elapsed_key).has_value()) {
      return std::any(Unit{});  // This server already reported.
    }
    txn.Put(elapsed_key, "1");
    state.elapsed_count += 1;
    if (state.elapsed_count >= static_cast<uint64_t>(options_.quorum)) {
      state.fired = true;
      just_fired_id_ = id;
      just_fired_create_pos_ = state.create_pos;
    }
    txn.Put(key, state.Encode());
    return std::any(Unit{});
  }
  return std::any(Unit{});
}

void TimeEngine::PostApplyControl(const EngineHeaderView& header, const LogEntry& entry,
                                  LogPos pos) {
  const TimerCarry carry = timer_carry_.Take(pos).value_or(TimerCarry{});
  if (!carry.created_id.empty()) {
    // Start the local countdown; when it expires on this server's clock,
    // report ELAPSED through the log. Polling (rather than sleeping the full
    // duration) keeps countdowns responsive to simulated clocks and engine
    // shutdown.
    const std::string id = carry.created_id;
    const int64_t deadline = clock_->NowMicros() + carry.created_duration;
    std::lock_guard<std::mutex> lock(threads_mu_);
    countdown_threads_.emplace_back([this, id, deadline] {
      while (!shutdown_.load(std::memory_order_acquire)) {
        if (clock_->NowMicros() >= deadline) {
          ProposeControl(kMsgTypeElapsed, EncodeElapsed(id, options_.server_id));
          return;
        }
        RealClock::Instance()->SleepMicros(500);
      }
    });
  }
  if (!carry.fired_id.empty()) {
    std::vector<FireCallback> callbacks;
    {
      std::lock_guard<std::mutex> lock(callbacks_mu_);
      callbacks = callbacks_;
    }
    for (const auto& callback : callbacks) {
      callback(carry.fired_id, carry.fired_create_pos);
    }
  }
}

// --- TimedTrimmer ---

TimedTrimmer::TimedTrimmer(TimeEngine* time_engine, IEngine* stack_top)
    : time_engine_(time_engine), stack_top_(stack_top) {
  time_engine_->OnFire([this](const std::string& id, LogPos create_pos) {
    LogPos trim_pos = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(id);
      if (it == pending_.end()) {
        return;
      }
      trim_pos = it->second;
      pending_.erase(it);
    }
    stack_top_->SetTrimPrefix(trim_pos);
  });
}

void TimedTrimmer::ScheduleTrim(LogPos pos, int64_t delay_micros) {
  std::string id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = "trim-" + std::to_string(next_id_++) + "-" + std::to_string(pos);
    pending_[id] = pos;
  }
  time_engine_->CreateTimer(id, delay_micros);
}

}  // namespace delos
