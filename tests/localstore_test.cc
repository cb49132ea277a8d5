// Unit + property tests for the LocalStore: transactions, MVCC snapshots,
// nested sub-transactions, checkpoints, checksums, fault injection.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>

#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/localstore/localstore.h"

namespace delos {
namespace {

TEST(LocalStoreTest, PutGetDelete) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "1");
    txn.Put("b", "2");
    txn.Commit();
  }
  ROTxn snap = store.Snapshot();
  EXPECT_EQ(snap.Get("a").value(), "1");
  EXPECT_EQ(snap.Get("b").value(), "2");
  EXPECT_FALSE(snap.Get("c").has_value());
  {
    RWTxn txn = store.BeginRW();
    txn.Delete("a");
    txn.Commit();
  }
  EXPECT_FALSE(store.Snapshot().Get("a").has_value());
  // The earlier snapshot still sees the old state (MVCC).
  EXPECT_EQ(snap.Get("a").value(), "1");
}

TEST(LocalStoreTest, ReadYourWrites) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("k", "v1");
  EXPECT_EQ(txn.Get("k").value(), "v1");
  txn.Put("k", "v2");
  EXPECT_EQ(txn.Get("k").value(), "v2");
  txn.Delete("k");
  EXPECT_FALSE(txn.Get("k").has_value());
  txn.Commit();
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
}

TEST(LocalStoreTest, AbortDiscardsWrites) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v");
    txn.Abort();
  }
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
  EXPECT_EQ(store.committed_version(), 0u);
}

TEST(LocalStoreTest, DroppedTxnActsAsAbort) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v");
  }
  EXPECT_FALSE(store.Snapshot().Get("k").has_value());
  // The writer slot is released; a new transaction can begin.
  RWTxn txn = store.BeginRW();
  txn.Commit();
}

TEST(LocalStoreTest, SavepointRollback) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("a", "1");
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("b", "2");
  txn.Put("a", "overwritten");
  txn.RollbackTo(sp);
  EXPECT_EQ(txn.Get("a").value(), "1");
  EXPECT_FALSE(txn.Get("b").has_value());
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("a").value(), "1");
  EXPECT_FALSE(store.Snapshot().Get("b").has_value());
}

TEST(LocalStoreTest, NestedSavepoints) {
  LocalStore store;
  RWTxn txn = store.BeginRW();
  txn.Put("l0", "x");
  const Savepoint sp1 = txn.MakeSavepoint();
  txn.Put("l1", "x");
  const Savepoint sp2 = txn.MakeSavepoint();
  txn.Put("l2", "x");
  txn.RollbackTo(sp2);
  EXPECT_TRUE(txn.Get("l1").has_value());
  EXPECT_FALSE(txn.Get("l2").has_value());
  txn.RollbackTo(sp1);
  EXPECT_TRUE(txn.Get("l0").has_value());
  EXPECT_FALSE(txn.Get("l1").has_value());
  txn.Commit();
}

// Group-commit batches lean on rollback being O(rolled-back ops): the
// write-index overlay must restore the *previous* in-transaction version of
// a key, not just drop the op. These cover the overlay bookkeeping.
TEST(LocalStoreTest, RollbackRestoresPriorOverlayVersion) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("k", "first");           // in-txn overlay version 1
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("k", "second");          // overlay version 2
  txn.Delete("k");                 // overlay version 3
  EXPECT_FALSE(txn.Get("k").has_value());
  txn.RollbackTo(sp);
  // Read-your-writes must see the pre-savepoint overlay, not the committed
  // value and not the rolled-back delete.
  EXPECT_EQ(txn.Get("k").value(), "first");
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("k").value(), "first");
}

TEST(LocalStoreTest, RollbackOfFirstWriteFallsThroughToCommitted) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("k", "uncommitted");
  txn.Put("fresh", "uncommitted");
  txn.RollbackTo(sp);
  // Keys first written after the savepoint leave no overlay residue.
  EXPECT_EQ(txn.Get("k").value(), "committed");
  EXPECT_FALSE(txn.Get("fresh").has_value());
  txn.Commit();
  EXPECT_EQ(store.Snapshot().Get("k").value(), "committed");
  EXPECT_FALSE(store.Snapshot().Get("fresh").has_value());
}

TEST(LocalStoreTest, InterleavedSavepointsAcrossManyKeys) {
  // Simulates a group-commit batch: records apply back-to-back in one
  // transaction, each inside its own savepoint, and some roll back.
  LocalStore store;
  RWTxn txn = store.BeginRW();
  for (int record = 0; record < 20; ++record) {
    const Savepoint sp = txn.MakeSavepoint();
    txn.Put("shared", "r" + std::to_string(record));
    txn.Put("own/" + std::to_string(record), "x");
    if (record % 3 == 1) {
      txn.RollbackTo(sp);  // this record's writes vanish
    }
  }
  txn.Commit();
  ROTxn snap = store.Snapshot();
  // Last surviving record was 18 (18 % 3 == 0).
  EXPECT_EQ(snap.Get("shared").value(), "r18");
  for (int record = 0; record < 20; ++record) {
    EXPECT_EQ(snap.Get("own/" + std::to_string(record)).has_value(), record % 3 != 1) << record;
  }
}

TEST(LocalStoreTest, ScanSeesOverlayAfterRollback) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("s/a", "1");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("s/b", "2");
  const Savepoint sp = txn.MakeSavepoint();
  txn.Put("s/c", "3");
  txn.Delete("s/a");
  txn.RollbackTo(sp);
  std::vector<std::string> keys;
  txn.Scan("s/", "s0", [&](std::string_view key, std::string_view) {
    keys.emplace_back(key);
    return true;
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"s/a", "s/b"}));
  txn.Commit();
}

TEST(LocalStoreTest, SnapshotIsolation) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v1");
    txn.Commit();
  }
  ROTxn old_snap = store.Snapshot();
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "v2");
    txn.Commit();
  }
  EXPECT_EQ(old_snap.Get("k").value(), "v1");
  EXPECT_EQ(store.Snapshot().Get("k").value(), "v2");
}

TEST(LocalStoreTest, ScanRangeAndPrefix) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("p/a", "1");
    txn.Put("p/b", "2");
    txn.Put("q/c", "3");
    txn.Commit();
  }
  ROTxn snap = store.Snapshot();
  auto pairs = snap.ScanPrefix("p/");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first, "p/a");
  EXPECT_EQ(pairs[1].first, "p/b");

  size_t count = 0;
  snap.Scan("p/a", "q/c", [&](std::string_view, std::string_view) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2u);  // end is exclusive

  // Empty end = unbounded.
  count = 0;
  snap.Scan("p/", "", [&](std::string_view, std::string_view) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 3u);
}

TEST(LocalStoreTest, RWTxnMergedScan) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("a", "committed");
    txn.Put("b", "committed");
    txn.Commit();
  }
  RWTxn txn = store.BeginRW();
  txn.Put("c", "pending");
  txn.Delete("a");
  txn.Put("b", "overlaid");
  auto pairs = txn.ScanPrefix("");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<std::string, std::string>{"b", "overlaid"}));
  EXPECT_EQ(pairs[1], (std::pair<std::string, std::string>{"c", "pending"}));
  txn.Abort();
}

TEST(LocalStoreTest, ChecksumMatchesAcrossHistories) {
  // Two stores reaching the same live state via different write orders must
  // agree on the checksum (the replica-divergence detector of §6).
  LocalStore a;
  LocalStore b;
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k1", "v1");
    txn.Commit();
  }
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k2", "v2");
    txn.Put("k3", "temp");
    txn.Commit();
  }
  {
    RWTxn txn = a.BeginRW();
    txn.Delete("k3");
    txn.Commit();
  }
  {
    RWTxn txn = b.BeginRW();
    txn.Put("k2", "v2");
    txn.Put("k1", "v1");
    txn.Commit();
  }
  EXPECT_EQ(a.Checksum(), b.Checksum());
  EXPECT_EQ(a.KeyCount(), 2u);
}

TEST(LocalStoreTest, ChecksumDetectsDivergence) {
  LocalStore a;
  LocalStore b;
  {
    RWTxn txn = a.BeginRW();
    txn.Put("k", "v1");
    txn.Commit();
  }
  {
    RWTxn txn = b.BeginRW();
    txn.Put("k", "v2");
    txn.Commit();
  }
  EXPECT_NE(a.Checksum(), b.Checksum());
}

TEST(LocalStoreTest, CheckpointRoundTrip) {
  const std::string path = testing::TempDir() + "/ckpt_roundtrip.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    RWTxn txn = store->BeginRW();
    txn.Put("a", "1");
    txn.Put("b", "2");
    txn.Commit();
    store->Flush();
    EXPECT_EQ(store->flushed_version(), store->committed_version());
  }
  auto restored = LocalStore::Open({path});
  EXPECT_EQ(restored->Snapshot().Get("a").value(), "1");
  EXPECT_EQ(restored->Snapshot().Get("b").value(), "2");
  EXPECT_EQ(restored->KeyCount(), 2u);
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, CheckpointOmitsUnflushedWrites) {
  const std::string path = testing::TempDir() + "/ckpt_unflushed.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    {
      RWTxn txn = store->BeginRW();
      txn.Put("flushed", "yes");
      txn.Commit();
    }
    store->Flush();
    {
      RWTxn txn = store->BeginRW();
      txn.Put("unflushed", "lost");
      txn.Commit();
    }
    // No flush: the second write must not survive the "crash".
  }
  auto restored = LocalStore::Open({path});
  EXPECT_TRUE(restored->Snapshot().Get("flushed").has_value());
  EXPECT_FALSE(restored->Snapshot().Get("unflushed").has_value());
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, CorruptCheckpointRejected) {
  const std::string path = testing::TempDir() + "/ckpt_corrupt.ckpt";
  std::filesystem::remove(path);
  {
    auto store = LocalStore::Open({path});
    RWTxn txn = store->BeginRW();
    txn.Put("a", "1");
    txn.Commit();
    store->Flush();
  }
  // Flip a byte of the stored checksum digest (the file's final bytes).
  {
    const auto size = std::filesystem::file_size(path);
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(size) - 1);
    const char last = static_cast<char>(file.get());
    file.seekp(static_cast<std::streamoff>(size) - 1);
    file.put(static_cast<char>(last ^ 0x7f));
  }
  EXPECT_THROW(LocalStore::Open({path}), StoreError);
  std::filesystem::remove(path);
}

TEST(LocalStoreTest, InjectedCommitFaultThrows) {
  LocalStore store;
  store.InjectCommitFault();
  RWTxn txn = store.BeginRW();
  txn.Put("k", "v");
  EXPECT_THROW(txn.Commit(), StoreError);
  // The failure consumed the injection; the store is usable again.
  RWTxn txn2 = store.BeginRW();
  txn2.Put("k", "v");
  txn2.Commit();
  EXPECT_TRUE(store.Snapshot().Get("k").has_value());
}

// The writer reads committed state through RWTxn::Get without the store's
// lock (the single-writer contract); under TSan this checks that those reads
// do not race with readers taking snapshots and scanning.
TEST(LocalStoreTest, ConcurrentReadersDuringWrites) {
  LocalStore store;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      RWTxn txn = store.BeginRW();
      const std::string key = "k" + std::to_string(i % 10);
      if (i >= 10) {
        // Committed ten transactions ago, and not yet staged in this one.
        EXPECT_EQ(txn.Get(key), std::make_optional(std::to_string(i - 10)));
      }
      EXPECT_EQ(txn.Get("absent"), std::nullopt);
      txn.Put(key, std::to_string(i));
      txn.Commit();
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ROTxn snap = store.Snapshot();
        snap.ScanPrefix("k");
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(store.committed_version(), 500u);
}

// A snapshot taken while commits overwrite a key must read the key at its
// version. Snapshot() used to read the committed version and register it
// in two steps; a commit in between compacted that version away, and the
// snapshot read a live key as absent (dozens of times per 100,000 commits).
TEST(LocalStoreTest, SnapshotTakenDuringCommitsSeesLiveKey) {
  LocalStore store;
  {
    RWTxn txn = store.BeginRW();
    txn.Put("k", "0");
    txn.Commit();
  }
  std::atomic<bool> stop{false};
  std::atomic<int> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        if (!store.Snapshot().Get("k").has_value()) {
          misses.fetch_add(1);
        }
      }
    });
  }
  for (int i = 1; i <= 50'000; ++i) {
    RWTxn txn = store.BeginRW();
    txn.Put("k", std::to_string(i));
    txn.Commit();
  }
  stop = true;
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(misses.load(), 0);
}

// Property: random transactions that rewrite and delete the same keys many
// times, delete absent keys and roll back to random savepoints, committed
// while older snapshots stay open, match a model map. After each commit the
// store's checksum and key count match the model's, and every held snapshot
// still reads exactly the state of its own version; before each commit the
// transaction's EffectiveDigest matches the model's digest.
TEST(LocalStoreProperty, RandomOpsMatchModel) {
  using Model = std::map<std::string, std::string>;
  const auto digest_of = [](const Model& model, const std::string& excluded = "") {
    IncrementalChecksum checksum;
    for (const auto& [key, value] : model) {
      if (key != excluded) {
        checksum.Add(key, value);
      }
    }
    return checksum.digest();
  };
  // Keys k0..k5 are rewritten many times per transaction; x0..x2 are only
  // ever deleted, so every delete of them is a delete of an absent key.
  std::vector<std::string> universe;
  for (int k = 0; k < 6; ++k) {
    universe.push_back("k" + std::to_string(k));
  }
  for (int x = 0; x < 3; ++x) {
    universe.push_back("x" + std::to_string(x));
  }
  const auto check_snapshot = [&](const ROTxn& snap, const Model& expected) {
    for (const std::string& key : universe) {
      auto it = expected.find(key);
      const auto got = snap.Get(key);
      if (it == expected.end()) {
        EXPECT_FALSE(got.has_value()) << key << " at version " << snap.version();
      } else {
        EXPECT_EQ(got, std::make_optional(it->second)) << key << " at version " << snap.version();
      }
    }
    const auto scanned = snap.ScanPrefix("");
    EXPECT_EQ(Model(scanned.begin(), scanned.end()), expected) << "version " << snap.version();
  };

  Rng rng(2024);
  LocalStore store;
  Model model;
  std::vector<std::pair<ROTxn, Model>> held;
  for (int round = 0; round < 400; ++round) {
    RWTxn txn = store.BeginRW();
    Model txn_model = model;
    std::vector<std::pair<Savepoint, Model>> savepoints;
    const int ops = static_cast<int>(rng.Uniform(1, 16));
    for (int i = 0; i < ops; ++i) {
      const double dice = rng.UniformDouble();
      if (dice < 0.12) {
        savepoints.emplace_back(txn.MakeSavepoint(), txn_model);
      } else if (dice < 0.24 && !savepoints.empty()) {
        // Roll back to a random open savepoint; the ones after it are gone.
        const size_t to = static_cast<size_t>(rng.Uniform(0, savepoints.size() - 1));
        txn.RollbackTo(savepoints[to].first);
        txn_model = savepoints[to].second;
        savepoints.resize(to + 1);
      } else if (dice < 0.32) {
        const std::string key = "x" + std::to_string(rng.Uniform(0, 2));
        txn.Delete(key);
      } else if (dice < 0.5) {
        const std::string key = "k" + std::to_string(rng.Uniform(0, 5));
        txn.Delete(key);
        txn_model.erase(key);
      } else {
        const std::string key = "k" + std::to_string(rng.Uniform(0, 5));
        const std::string value = rng.String(8);
        txn.Put(key, value);
        txn_model[key] = value;
      }
      const std::string probe = universe[static_cast<size_t>(rng.Uniform(0, universe.size() - 1))];
      auto it = txn_model.find(probe);
      EXPECT_EQ(txn.Get(probe),
                it == txn_model.end() ? std::nullopt : std::make_optional(it->second));
    }
    EXPECT_EQ(txn.EffectiveDigest({}), digest_of(txn_model)) << "round " << round;
    EXPECT_EQ(txn.EffectiveDigest({"k0"}), digest_of(txn_model, "k0")) << "round " << round;
    if (rng.Bernoulli(0.2)) {
      txn.Abort();
    } else {
      txn.Commit();
      model = std::move(txn_model);
    }
    EXPECT_EQ(store.Checksum(), digest_of(model)) << "round " << round;
    EXPECT_EQ(store.KeyCount(), model.size()) << "round " << round;
    for (const auto& [snap, expected] : held) {
      check_snapshot(snap, expected);
    }
    // Hold up to four snapshots across later commits, dropping them at
    // random so the oldest live version moves.
    if (!held.empty() && rng.Bernoulli(0.3)) {
      held.erase(held.begin() + rng.Uniform(0, held.size() - 1));
    }
    if (held.size() < 4 && rng.Bernoulli(0.4)) {
      held.emplace_back(store.Snapshot(), model);
    }
  }
  check_snapshot(store.Snapshot(), model);
}

TEST(KeyspaceTest, PrefixesKeys) {
  Keyspace space("e/test/");
  EXPECT_EQ(space.Key("flag"), "e/test/flag");
  EXPECT_EQ(space.prefix(), "e/test/");
}

}  // namespace
}  // namespace delos
