// SessionOrderEngine tests: in-order fast path, disorder detection with
// re-propose, exactly-once duplicate filtering, and the short-circuit
// propose completion — driven by the ReorderingLog chaos wrapper that
// manufactures the rare log-reordering events the paper describes (§4.3).
#include <gtest/gtest.h>

#include <thread>

#include "src/core/base_engine.h"
#include "src/engines/session_order_engine.h"
#include "src/sharedlog/chaos_log.h"
#include "src/sharedlog/inmemory_log.h"
#include "tests/quiesced_tail.h"

namespace delos {
namespace {

// Applicator that records the order in which payloads reach the app.
class OrderRecordingApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("app/log/" + std::to_string(pos), entry.payload);
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(entry.payload);
    return std::any(entry.payload);
  }
  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> order_;
};

LogEntry PayloadEntry(std::string payload) {
  LogEntry entry;
  entry.payload = std::move(payload);
  return entry;
}

struct SoServer {
  SoServer(const std::string& id, std::shared_ptr<ISharedLog> log) {
    BaseEngineOptions base_options;
    base_options.server_id = id;
    base = std::make_unique<BaseEngine>(std::move(log), &store, base_options);
    SessionOrderEngine::Options options;
    options.server_id = id;
    so = std::make_unique<SessionOrderEngine>(options, base.get(), &store);
    so->RegisterUpcall(&app);
    base->Start();
  }
  ~SoServer() { base->Stop(); }

  LocalStore store;
  OrderRecordingApplicator app;
  std::unique_ptr<BaseEngine> base;
  std::unique_ptr<SessionOrderEngine> so;
};

TEST(SessionOrderTest, InOrderFastPath) {
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "op" + std::to_string(i);
    EXPECT_EQ(std::any_cast<std::string>(server.so->Propose(PayloadEntry(payload)).Get()),
              payload);
  }
  EXPECT_EQ(server.so->disorder_events(), 0u);
  EXPECT_EQ(server.app.order().size(), 10u);
}

TEST(SessionOrderTest, RepairsInjectedReordering) {
  auto inner = std::make_shared<InMemoryLog>();
  // Swap ~30% of adjacent appends.
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.3, /*hold_timeout_micros=*/500);
  SoServer server("a", chaos);

  constexpr int kOps = 60;
  std::vector<Future<std::any>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(server.so->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::any_cast<std::string>(futures[i].Get()), "op" + std::to_string(i));
  }
  // The log really was reordered, and the engine really detected it.
  EXPECT_GT(chaos->swaps_performed(), 0u);
  EXPECT_GT(server.so->disorder_events(), 0u);

  // Despite the chaos, the app saw each op exactly once, in session order.
  const auto order = server.app.order();
  ASSERT_EQ(order.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(order[i], "op" + std::to_string(i));
  }
}

TEST(SessionOrderTest, ReplicasConvergeUnderReordering) {
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.4, 500);
  SoServer writer("w", chaos);
  // The follower plays the same (reordered + re-proposed) log directly.
  SoServer follower("f", inner);

  constexpr int kOps = 40;
  std::vector<Future<std::any>> futures;
  for (int i = 0; i < kOps; ++i) {
    futures.push_back(writer.so->Propose(PayloadEntry("op" + std::to_string(i))));
  }
  for (auto& future : futures) {
    future.Get();
  }
  // Delayed re-proposals can still land after every future settled, so the
  // two replicas are compared at one quiesced tail.
  std::vector<std::string> writer_order, follower_order;
  uint64_t writer_checksum = 0, follower_checksum = 0;
  ReadAtQuiescedTail(*inner, {writer.base.get(), follower.base.get()}, [&] {
    writer_order = writer.app.order();
    follower_order = follower.app.order();
    writer_checksum = writer.store.Checksum();
    follower_checksum = follower.store.Checksum();
  });
  EXPECT_EQ(writer_order, follower_order);
  EXPECT_EQ(writer_checksum, follower_checksum);
}

TEST(SessionOrderTest, MultiThreadedProposersKeepPerSessionOrder) {
  // The engine orders the server's session stream even when multiple client
  // threads propose concurrently: apply order equals stamp order.
  auto inner = std::make_shared<InMemoryLog>();
  auto chaos = std::make_shared<ReorderingLog>(inner, 0.2, 500);
  SoServer server("a", chaos);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        server.so->Propose(PayloadEntry(std::to_string(t) + "/" + std::to_string(i))).Get();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const auto order = server.app.order();
  EXPECT_EQ(order.size(), static_cast<size_t>(kThreads * kPerThread));
  // Exactly-once: no payload appears twice.
  std::set<std::string> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), order.size());
}

TEST(SessionOrderTest, SessionWriteThenReadIsOrdered) {
  // The session-ordering guarantee: issue a write, then a sync'd read
  // without waiting; the read must reflect the write once the write's
  // propose completes.
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  Future<std::any> write = server.so->Propose(PayloadEntry("w"));
  write.Get();
  ROTxn snap = server.so->Sync().Get();
  bool found = false;
  snap.Scan("app/log/", "app/log0", [&](std::string_view, std::string_view value) {
    found = found || value == "w";
    return true;
  });
  EXPECT_TRUE(found);
}

TEST(SessionOrderTest, DisabledEnginePassesThrough) {
  auto log = std::make_shared<InMemoryLog>();
  SoServer server("a", log);
  server.so->DisableViaLog();
  EXPECT_EQ(std::any_cast<std::string>(server.so->Propose(PayloadEntry("raw")).Get()), "raw");
  EXPECT_EQ(server.so->disorder_events(), 0u);
}

}  // namespace
}  // namespace delos
