// Microbenchmarks (google-benchmark) for the substrates: LocalStore
// transactions and scans, serde, entry encoding, checksum, and shared-log
// appends. These establish the per-op floor the figure benches sit on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/common/serde.h"
#include "src/core/entry.h"
#include "src/localstore/localstore.h"
#include "src/sharedlog/inmemory_log.h"

namespace delos {
namespace {

void BM_LocalStorePutCommit(benchmark::State& state) {
  LocalStore store;
  const std::string value(100, 'v');
  int64_t i = 0;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    txn.Put("key" + std::to_string(i++ % 4096), value);
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalStorePutCommit);

void BM_LocalStoreBatchedCommit(benchmark::State& state) {
  // Group commit at the store level: N puts per transaction.
  LocalStore store;
  const std::string value(100, 'v');
  const int64_t batch = state.range(0);
  int64_t i = 0;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    for (int64_t j = 0; j < batch; ++j) {
      txn.Put("key" + std::to_string(i++ % 4096), value);
    }
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_LocalStoreBatchedCommit)->Arg(8)->Arg(64);

void BM_LocalStoreOverwriteHeavyCommit(benchmark::State& state) {
  // The catch-up shape: one group-commit transaction of 5,000 Puts of
  // 100-byte values over 1,000 existing keys (uniform, so each key is
  // rewritten about five times). Only Commit and the transaction's
  // destruction are timed, not the staging Puts.
  constexpr int kKeys = 1000;
  constexpr int kPuts = 5000;
  LocalStore store;
  std::vector<std::string> keys;
  for (int k = 0; k < kKeys; ++k) {
    char key[16];
    std::snprintf(key, sizeof(key), "z/n/k%04d", k);
    keys.emplace_back(key);
  }
  {
    RWTxn txn = store.BeginRW();
    for (const std::string& key : keys) {
      txn.Put(key, std::string(100, 'v'));
    }
    txn.Commit();
  }
  Rng rng(16);
  std::string value(100, 'v');
  for (auto _ : state) {
    state.PauseTiming();
    RWTxn txn = store.BeginRW();
    for (int i = 0; i < kPuts; ++i) {
      value[i % value.size()] = static_cast<char>('a' + i % 26);
      txn.Put(keys[static_cast<size_t>(rng.Uniform(0, kKeys - 1))], value);
    }
    state.ResumeTiming();
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations() * kPuts);
}
BENCHMARK(BM_LocalStoreOverwriteHeavyCommit);

void BM_LocalStoreSnapshotGet(benchmark::State& state) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    for (int i = 0; i < 4096; ++i) {
      txn.Put("key" + std::to_string(i), "value");
    }
    txn.Commit();
  }
  int64_t i = 0;
  for (auto _ : state) {
    ROTxn snap = store.Snapshot();
    benchmark::DoNotOptimize(snap.Get("key" + std::to_string(i++ % 4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalStoreSnapshotGet);

void BM_LocalStoreScan100(benchmark::State& state) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    for (int i = 0; i < 4096; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key%06d", i);
      txn.Put(key, "value");
    }
    txn.Commit();
  }
  for (auto _ : state) {
    ROTxn snap = store.Snapshot();
    benchmark::DoNotOptimize(snap.ScanPrefix("key00", 100));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_LocalStoreScan100);

void BM_SavepointRollback(benchmark::State& state) {
  LocalStore store;
  for (auto _ : state) {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "1");
    const Savepoint sp = txn.MakeSavepoint();
    for (int i = 0; i < 8; ++i) {
      txn.Put("k" + std::to_string(i), "v");
    }
    txn.RollbackTo(sp);
    txn.Commit();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SavepointRollback);

void BM_EntrySerializeRoundTrip(benchmark::State& state) {
  LogEntry entry;
  entry.payload = std::string(100, 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogEntry::Deserialize(entry.Serialize()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntrySerializeRoundTrip);

void BM_EntryDeserializeOwning(benchmark::State& state) {
  // The old decode path: materialize an owning LogEntry (copies every header
  // name, header blob, and the payload).
  LogEntry entry;
  entry.payload = std::string(static_cast<size_t>(state.range(0)), 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  const std::string bytes = entry.Serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogEntry::Deserialize(bytes));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_EntryDeserializeOwning)->Arg(100)->Arg(4096);

void BM_EntryParseView(benchmark::State& state) {
  // The apply pipeline's zero-copy peek: borrow header and payload views
  // from the log record without copying any blob.
  LogEntry entry;
  entry.payload = std::string(static_cast<size_t>(state.range(0)), 'p');
  entry.SetHeader("base", EngineHeader{0, "server0#abcdef:42"});
  entry.SetHeader("viewtracking", EngineHeader{0, "server0:12345"});
  entry.SetHeader("sessionorder", EngineHeader{0, "server0#xyz:7"});
  const std::string bytes = entry.Serialize();
  for (auto _ : state) {
    LogEntryView view = LogEntryView::Parse(bytes);
    benchmark::DoNotOptimize(view.GetHeader("base"));
    benchmark::DoNotOptimize(view.payload);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_EntryParseView)->Arg(100)->Arg(4096);

void BM_VarintRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Serializer ser;
    for (uint64_t v = 1; v < (1ULL << 40); v <<= 4) {
      ser.WriteVarint(v);
    }
    Deserializer de(ser.buffer());
    while (!de.AtEnd()) {
      benchmark::DoNotOptimize(de.ReadVarint());
    }
  }
}
BENCHMARK(BM_VarintRoundTrip);

void BM_IncrementalChecksumUpdate(benchmark::State& state) {
  IncrementalChecksum checksum;
  const std::string value(100, 'c');
  int64_t i = 0;
  for (auto _ : state) {
    checksum.Add("key" + std::to_string(i++ % 1024), value);
  }
  benchmark::DoNotOptimize(checksum.digest());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalChecksumUpdate);

void BM_InMemoryLogAppend(benchmark::State& state) {
  InMemoryLog log;
  const std::string payload(100, 'l');
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(payload).Get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InMemoryLogAppend);

}  // namespace
}  // namespace delos

BENCHMARK_MAIN();
