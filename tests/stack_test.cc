// Tests for StackableEngine semantics: header dispatch, control entries,
// nested-transaction exception layering, the two-phase enable/disable
// protocol, and trim min-relay. Includes a faithful implementation of the
// paper's Figure 4 BlockingEngine as a test engine.
#include <gtest/gtest.h>

#include "src/core/base_engine.h"
#include "src/core/stackable_engine.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

// The example engine from paper Figure 4: a control command toggles a
// replicated "blocked" flag; while blocked, application entries are filtered
// with an exception.
class BlockedException : public DeterministicError {
 public:
  BlockedException() : DeterministicError("blocked") {}
};

class BlockingEngine : public StackableEngine {
 public:
  BlockingEngine(IEngine* downstream, LocalStore* store)
      : StackableEngine("blocking", downstream, store) {}

  void ToggleBlock() { ProposeControl(kMsgTypeToggle, "").Get(); }

 protected:
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    const bool blocked = txn.Get(space().Key("blocked")).value_or("False") == "True";
    if (blocked) {
      throw BlockedException();
    }
    return CallUpstream(txn, entry, pos);
  }

  std::any ApplyControl(RWTxn& txn, const EngineHeader& header, const LogEntry& entry,
                        LogPos pos) override {
    if (header.msgtype == kMsgTypeToggle) {
      const std::string key = space().Key("blocked");
      txn.Put(key, txn.Get(key).value_or("False") == "True" ? "False" : "True");
    }
    return std::any(Unit{});
  }

 private:
  static constexpr uint64_t kMsgTypeToggle = 1;
};

// Engine that writes a marker key for every data entry and can be told to
// throw from its own apply logic.
class MarkerEngine : public StackableEngine {
 public:
  MarkerEngine(std::string name, IEngine* downstream, LocalStore* store)
      : StackableEngine(std::move(name), downstream, store) {}

  void set_throw_on_apply(bool value) { throw_on_apply_ = value; }
  int post_applies() const { return post_applies_; }

 protected:
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put(space().Key("seen/" + std::to_string(pos)), "1");
    if (throw_on_apply_) {
      throw DeterministicError(name() + " own failure");
    }
    return CallUpstream(txn, entry, pos);
  }
  void PostApplyData(const LogEntry& entry, LogPos pos) override {
    ++post_applies_;
    ForwardPostApply(entry, pos);
  }

 private:
  bool throw_on_apply_ = false;
  int post_applies_ = 0;
};

class RecordingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    if (entry.payload == "app-throws") {
      txn.Put("app/partial", "1");
      throw DeterministicError("app failure");
    }
    txn.Put("app/" + std::to_string(pos), entry.payload);
    return std::any(entry.payload);
  }
  void PostApply(const LogEntry& entry, LogPos pos) override { ++post_applies_; }
  int post_applies() const { return post_applies_; }

 private:
  int post_applies_ = 0;
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

class StackTest : public testing::Test {
 protected:
  void BuildStack() {
    base_ = std::make_unique<BaseEngine>(log_, &store_, BaseEngineOptions{});
    lower_ = std::make_unique<MarkerEngine>("lower", base_.get(), &store_);
    blocking_ = std::make_unique<BlockingEngine>(lower_.get(), &store_);
    upper_ = std::make_unique<MarkerEngine>("upper", blocking_.get(), &store_);
    upper_->RegisterUpcall(&app_);
    base_->Start();
  }

  void TearDown() override {
    if (base_ != nullptr) {
      base_->Stop();
    }
  }

  std::shared_ptr<InMemoryLog> log_ = std::make_shared<InMemoryLog>();
  LocalStore store_;
  RecordingApplicator app_;
  std::unique_ptr<BaseEngine> base_;
  std::unique_ptr<MarkerEngine> lower_;
  std::unique_ptr<BlockingEngine> blocking_;
  std::unique_ptr<MarkerEngine> upper_;
};

TEST_F(StackTest, EntryFlowsThroughAllLayers) {
  BuildStack();
  std::any result = upper_->Propose(PayloadEntry("hello")).Get();
  EXPECT_EQ(std::any_cast<std::string>(result), "hello");
  ROTxn snap = store_.Snapshot();
  EXPECT_TRUE(snap.Get("e/lower/seen/1").has_value());
  EXPECT_TRUE(snap.Get("e/upper/seen/1").has_value());
  EXPECT_TRUE(snap.Get("app/1").has_value());
  EXPECT_EQ(app_.post_applies(), 1);
  EXPECT_EQ(lower_->post_applies(), 1);
}

TEST_F(StackTest, BlockingEngineFiltersWhileBlocked) {
  BuildStack();
  blocking_->ToggleBlock();
  EXPECT_THROW(upper_->Propose(PayloadEntry("dropped")).Get(), BlockedException);
  ROTxn snap = store_.Snapshot();
  // Layers below the thrower saw the entry; layers above did not.
  EXPECT_TRUE(snap.Get("e/lower/seen/2").has_value());
  EXPECT_FALSE(snap.Get("e/upper/seen/2").has_value());
  EXPECT_FALSE(snap.Get("app/2").has_value());

  blocking_->ToggleBlock();
  EXPECT_EQ(std::any_cast<std::string>(upper_->Propose(PayloadEntry("passes")).Get()), "passes");
}

TEST_F(StackTest, AppExceptionPreservesEngineWrites) {
  BuildStack();
  EXPECT_THROW(upper_->Propose(PayloadEntry("app-throws")).Get(), DeterministicError);
  ROTxn snap = store_.Snapshot();
  // The app's partial write rolled back; every engine's write survived.
  EXPECT_FALSE(snap.Get("app/partial").has_value());
  EXPECT_TRUE(snap.Get("e/lower/seen/1").has_value());
  EXPECT_TRUE(snap.Get("e/upper/seen/1").has_value());
  // postApply: the app must not get one; the engines do.
  EXPECT_EQ(app_.post_applies(), 0);
  EXPECT_EQ(lower_->post_applies(), 1);
  EXPECT_EQ(upper_->post_applies(), 1);
}

TEST_F(StackTest, MiddleEngineOwnFailureRollsBackItsWrites) {
  BuildStack();
  upper_->set_throw_on_apply(true);
  EXPECT_THROW(upper_->Propose(PayloadEntry("x")).Get(), DeterministicError);
  ROTxn snap = store_.Snapshot();
  // upper's own write rolled back; lower's write preserved.
  EXPECT_FALSE(snap.Get("e/upper/seen/1").has_value());
  EXPECT_TRUE(snap.Get("e/lower/seen/1").has_value());
  EXPECT_FALSE(snap.Get("app/1").has_value());
}

TEST_F(StackTest, ControlEntriesDoNotReachUpperLayers) {
  BuildStack();
  blocking_->ToggleBlock();  // a control entry at position 1
  ROTxn snap = store_.Snapshot();
  // lower (below blocking) processed it as data; upper and app never saw it.
  EXPECT_TRUE(snap.Get("e/lower/seen/1").has_value());
  EXPECT_FALSE(snap.Get("e/upper/seen/1").has_value());
  EXPECT_FALSE(snap.Get("app/1").has_value());
}

TEST_F(StackTest, TrimConstraintIsMinOfAllOpinions) {
  BuildStack();
  for (int i = 0; i < 10; ++i) {
    upper_->Propose(PayloadEntry("e")).Get();
  }
  base_->FlushNow();
  // The app (via the top) allows trimming to 8.
  upper_->SetTrimPrefix(8);
  base_->TrimNow();
  EXPECT_EQ(log_->trim_prefix(), 8u);
}

TEST_F(StackTest, DisabledEngineDoesNotMutateButPassesThrough) {
  BuildStack();
  upper_->DisableViaLog();
  upper_->Propose(PayloadEntry("while-disabled")).Get();
  ROTxn snap = store_.Snapshot();
  EXPECT_FALSE(snap.Get("e/upper/seen/2").has_value());  // no state change
  EXPECT_TRUE(snap.Get("app/2").has_value());            // entry still flowed up
  EXPECT_FALSE(upper_->enabled());

  upper_->EnableViaLog();
  EXPECT_TRUE(upper_->enabled());
  upper_->Propose(PayloadEntry("after-enable")).Get();
  EXPECT_TRUE(store_.Snapshot().Get("e/upper/seen/4").has_value());
}

TEST_F(StackTest, EnableFlagRecoversFromStore) {
  BuildStack();
  upper_->DisableViaLog();
  EXPECT_FALSE(upper_->enabled());
  // A rebuilt engine on the same store starts disabled (the flag is state,
  // not config).
  MarkerEngine rebuilt("upper", blocking_.get(), &store_);
  EXPECT_FALSE(rebuilt.enabled());
  // Restore the original upcall wiring for teardown.
  blocking_->RegisterUpcall(upper_.get());
}

// Two-phase insertion across a two-server cluster: the new engine is present
// but disabled on both servers, then enabled via a single log command; both
// servers flip at the same log position, keeping state deterministic.
TEST(TwoPhaseInsertionTest, EnableViaLogIsConsistentAcrossServers) {
  auto log = std::make_shared<InMemoryLog>();
  LocalStore store_a;
  LocalStore store_b;
  RecordingApplicator app_a;
  RecordingApplicator app_b;

  BaseEngineOptions options_a;
  options_a.server_id = "a";
  BaseEngine base_a(log, &store_a, options_a);
  BaseEngineOptions options_b;
  options_b.server_id = "b";
  BaseEngine base_b(log, &store_b, options_b);

  StackableEngine engine_a("probe", &base_a, &store_a, /*start_enabled=*/false);
  StackableEngine engine_b("probe", &base_b, &store_b, /*start_enabled=*/false);
  engine_a.RegisterUpcall(&app_a);
  engine_b.RegisterUpcall(&app_b);
  base_a.Start();
  base_b.Start();

  engine_a.Propose(PayloadEntry("pre")).Get();
  engine_a.EnableViaLog();
  engine_a.Propose(PayloadEntry("post")).Get();
  base_b.Sync().Get();
  EXPECT_TRUE(engine_a.enabled());
  EXPECT_TRUE(engine_b.enabled());
  EXPECT_EQ(store_a.Checksum(), store_b.Checksum());

  base_a.Stop();
  base_b.Stop();
}

}  // namespace
}  // namespace delos
