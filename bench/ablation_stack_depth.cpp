// Ablation: cost of layering itself (google-benchmark).
//
// §5.1's claim is that log-structured protocols are lightweight. Here we
// stack N pass-through engines between the application and the BaseEngine
// (zero-latency log, so engine overhead is the only variable) and measure
// propose and sync cost as the stack deepens.
#include <benchmark/benchmark.h>

#include "src/core/base_engine.h"
#include "src/core/stackable_engine.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

class NoopApplicator : public IApplicator {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override {
    txn.Put("k", entry.payload);
    return std::any(Unit{});
  }
};

struct Stack {
  explicit Stack(int depth) {
    log = std::make_shared<InMemoryLog>();
    base = std::make_unique<BaseEngine>(log, &store, BaseEngineOptions{});
    IEngine* top = base.get();
    for (int i = 0; i < depth; ++i) {
      engines.push_back(
          std::make_unique<StackableEngine>("noop" + std::to_string(i), top, &store));
      top = engines.back().get();
    }
    top->RegisterUpcall(&app);
    base->Start();
    top_engine = top;
  }
  ~Stack() {
    base->Stop();
    while (!engines.empty()) {
      engines.pop_back();
    }
  }

  LocalStore store;
  NoopApplicator app;
  std::shared_ptr<ISharedLog> log;
  std::unique_ptr<BaseEngine> base;
  std::vector<std::unique_ptr<StackableEngine>> engines;
  IEngine* top_engine = nullptr;
};

void BM_ProposeThroughStack(benchmark::State& state) {
  Stack stack(static_cast<int>(state.range(0)));
  LogEntry entry;
  entry.payload = std::string(100, 'p');
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.top_engine->Propose(entry).Get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProposeThroughStack)->Arg(0)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SyncThroughStack(benchmark::State& state) {
  Stack stack(static_cast<int>(state.range(0)));
  LogEntry entry;
  entry.payload = "seed";
  stack.top_engine->Propose(entry).Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack.top_engine->Sync().Get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyncThroughStack)->Arg(0)->Arg(4)->Arg(16);

void BM_ApplyPathOnly(benchmark::State& state) {
  // Propose from a background thread at full speed; measure nothing here —
  // this variant reports the apply-side per-entry cost via busy time.
  Stack stack(static_cast<int>(state.range(0)));
  LogEntry entry;
  entry.payload = std::string(100, 'p');
  int64_t entries = 0;
  for (auto _ : state) {
    stack.top_engine->Propose(entry).Get();
    ++entries;
  }
  state.counters["apply_us_per_entry"] =
      static_cast<double>(stack.base->apply_busy_micros()) / static_cast<double>(entries);
}
BENCHMARK(BM_ApplyPathOnly)->Arg(0)->Arg(8);

}  // namespace
}  // namespace delos

BENCHMARK_MAIN();
