// LocalStore: the per-server persistent state substrate (RocksDB's role in
// the paper, §3.1/§4).
//
// Contract used by the engine stack:
//  * Exactly one writer at a time — the apply thread — via RWTxn. All apply
//    upcall mutations happen inside a RWTxn, which provides failure
//    atomicity: if the applicator throws, the transaction (or the nested
//    sub-transaction, via savepoints) is rolled back.
//  * Any number of readers via ROTxn snapshots: `sync` returns a ROTxn that
//    is a linearizable snapshot of the store (§3.1). Snapshots are MVCC:
//    the store keeps per-key version chains and compacts them once no live
//    snapshot can observe the old versions.
//  * The store is a deterministic function of the shared log. A committed
//    transaction is visible but not immediately durable; Flush() writes a
//    checkpoint (the BaseEngine flushes periodically in the background and
//    replays the log from the checkpointed cursor after a reboot).
//  * An incremental, order-independent content checksum detects replica
//    divergence (§6).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/errors.h"

namespace delos {

class LocalStore;

namespace internal {

// Registers a snapshot version with the store for MVCC garbage collection;
// unregisters on destruction. Shared by ROTxn copies.
class SnapshotHandle {
 public:
  SnapshotHandle(LocalStore* store, uint64_t version);
  ~SnapshotHandle();

  SnapshotHandle(const SnapshotHandle&) = delete;
  SnapshotHandle& operator=(const SnapshotHandle&) = delete;

  uint64_t version() const { return version_; }
  LocalStore* store() const { return store_; }

 private:
  LocalStore* store_;
  uint64_t version_;
};

}  // namespace internal

// Read-only snapshot transaction. Copyable; copies share the snapshot.
class ROTxn {
 public:
  ROTxn() = default;
  explicit ROTxn(std::shared_ptr<internal::SnapshotHandle> handle) : handle_(std::move(handle)) {}

  bool valid() const { return handle_ != nullptr; }
  uint64_t version() const { return handle_->version(); }

  std::optional<std::string> Get(std::string_view key) const;

  // In-order scan over live keys in [start, end). fn returns false to stop.
  void Scan(std::string_view start, std::string_view end,
            const std::function<bool(std::string_view key, std::string_view value)>& fn) const;

  // Convenience: collect up to `limit` pairs with the given prefix.
  std::vector<std::pair<std::string, std::string>> ScanPrefix(std::string_view prefix,
                                                              size_t limit = SIZE_MAX) const;

 private:
  std::shared_ptr<internal::SnapshotHandle> handle_;
};

// Savepoint marker for nested sub-transactions (paper §3.4: each engine's
// apply runs in a nested sub-transaction of the entry's transaction).
struct Savepoint {
  size_t op_count = 0;
};

// Read-write transaction. Move-only; at most one alive per store.
class RWTxn {
 public:
  RWTxn() = default;
  RWTxn(RWTxn&& other) noexcept;
  RWTxn& operator=(RWTxn&& other) noexcept;
  RWTxn(const RWTxn&) = delete;
  RWTxn& operator=(const RWTxn&) = delete;
  ~RWTxn();

  bool valid() const { return store_ != nullptr; }

  void Put(std::string_view key, std::string_view value);
  // Put for strings the caller owns and no longer needs: they are moved into
  // the batch instead of copied. (A Put(std::string&&, std::string&&)
  // overload would make Put("k", "v") ambiguous.)
  void PutOwned(std::string key, std::string value);
  void Delete(std::string_view key);

  // Read-your-writes: checks the write batch, then the committed state
  // (without taking the store's lock; see the single-writer argument in
  // the definition).
  std::optional<std::string> Get(std::string_view key) const;

  // Merged scan over committed state + this transaction's writes.
  void Scan(std::string_view start, std::string_view end,
            const std::function<bool(std::string_view key, std::string_view value)>& fn) const;
  std::vector<std::pair<std::string, std::string>> ScanPrefix(std::string_view prefix,
                                                              size_t limit = SIZE_MAX) const;

  // Nested sub-transaction support.
  Savepoint MakeSavepoint() const { return Savepoint{ops_.size()}; }
  void RollbackTo(const Savepoint& savepoint);

  // Commits the batch; the transaction becomes invalid. Throws StoreError if
  // a fault has been injected (models out-of-space etc.).
  void Commit();
  // Drops the batch; the transaction becomes invalid.
  void Abort();

  size_t op_count() const { return ops_.size(); }

  // State digest of "committed state + this transaction's staged writes",
  // minus the pairs for `exclude_keys`. This is the digest the store WOULD
  // report if the batch committed right now — the DigestEngine uses it to
  // compare replica states at a mid-batch log position without forcing a
  // commit (group commit means batch boundaries, and therefore the committed
  // checksum, differ across replicas at the same position). Excluded keys
  // (the group-commit cursor, whose value is the batch-boundary itself) are
  // removed from the digest entirely, staged or committed. Amortized O(ops
  // staged since the previous call with the same exclusions) — a per-txn
  // cache folds new ops incrementally, so periodic digest beacons inside one
  // large group-commit batch cost O(total ops), not O(beacons × overlay).
  // Does not perturb the transaction.
  uint64_t EffectiveDigest(const std::vector<std::string>& exclude_keys) const;

 private:
  friend class LocalStore;
  struct Op {
    std::string key;
    std::optional<std::string> value;  // nullopt = delete
  };

  RWTxn(LocalStore* store, uint64_t base_version) : store_(store), base_version_(base_version) {}
  void Release();
  // Updates write_index_/prev_index_ for the op just pushed onto ops_.
  void RecordWrite();

  LocalStore* store_ = nullptr;
  uint64_t base_version_ = 0;
  std::vector<Op> ops_;
  // Latest op index per key, for read-your-writes.
  std::map<std::string, size_t, std::less<>> write_index_;
  // prev_index_[i]: the write_index_ entry op i displaced for its key (or
  // nullopt if the key was fresh). Lets RollbackTo undo the index in
  // O(rolled-back ops) instead of rebuilding it from the whole batch — the
  // group-commit apply pipeline accumulates many entries' ops in one
  // transaction, so a mid-batch rollback must not scan the entire batch.
  std::vector<std::optional<size_t>> prev_index_;
  // EffectiveDigest incremental cache: digest of committed state plus
  // ops_[0, digest_cached_ops_) minus digest_exclude_. Invalidated when a
  // rollback pops ops below the cache point or the exclusion set changes.
  // Mutable: the digest is a read, the cache an implementation detail.
  mutable uint64_t digest_cache_ = 0;
  mutable size_t digest_cached_ops_ = 0;
  mutable bool digest_cache_valid_ = false;
  mutable std::vector<std::string> digest_exclude_;
  // Memoized PairHash per staged op (index-parallel with ops_), so the
  // digest walk XORs a displaced pair back out without rehashing its bytes.
  // An entry is written when the walk passes its op; it is only ever read
  // via prev_index_ at a later index, so stale slots left by a rollback are
  // overwritten before any read.
  mutable std::vector<uint64_t> digest_op_hash_;
};

class LocalStore {
 public:
  struct Options {
    // When non-empty, Flush() writes a checkpoint file here and Open() will
    // recover from it.
    std::string checkpoint_path;
    // When true, a corrupt checkpoint (bad magic, truncation, checksum
    // mismatch — e.g. a flush torn by a crash) is discarded on Open() and the
    // store starts cold; the engine stack then rebuilds it by full log
    // replay. Default false: corruption is surfaced as StoreError, because a
    // store that silently drops state it was asked to persist is only safe
    // when the log retains the entire prefix (the simulation harness
    // guarantees that; production configs must opt in deliberately).
    bool tolerate_torn_checkpoint = false;
  };

  // In-memory store with default options. (Defined out of line: a nested
  // class's default member initializers are not usable in the enclosing
  // class's default arguments.)
  LocalStore();
  explicit LocalStore(Options options);
  ~LocalStore();

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  // Opens a store, recovering from the checkpoint file if present. Throws
  // StoreError on a corrupt checkpoint (checksum mismatch).
  static std::unique_ptr<LocalStore> Open(Options options);

  // Begins the single write transaction. Aborts the process if a writer is
  // already active (the engine contract guarantees a single apply thread).
  RWTxn BeginRW();

  // Snapshot of the latest committed state.
  ROTxn Snapshot();

  // Writes a durable checkpoint of the current committed state and returns
  // the snapshot that was persisted. No-op (returns snapshot) for in-memory
  // stores.
  ROTxn Flush();

  uint64_t committed_version() const { return committed_version_.load(std::memory_order_acquire); }
  uint64_t flushed_version() const { return flushed_version_.load(std::memory_order_acquire); }

  // Order-independent checksum over live (key, value) pairs. Two replicas
  // that applied the same log prefix must agree on this.
  uint64_t Checksum() const;

  // Number of live keys.
  size_t KeyCount() const;

  // Test hook: the next Commit() throws StoreError (a non-deterministic
  // failure; the engine stack must crash the server).
  void InjectCommitFault() { fault_injected_.store(true, std::memory_order_release); }

  // Injection hook (simulation): the next Flush() writes only the first
  // `keep_bytes` bytes of the checkpoint — a torn write, as left behind by a
  // crash mid-flush. The flush still reports success (the crash that tears
  // the file also takes the process down before anyone reads the result);
  // the damage surfaces at the next Open().
  void InjectTornFlush(size_t keep_bytes) {
    torn_flush_bytes_.store(static_cast<int64_t>(keep_bytes), std::memory_order_release);
  }

 private:
  friend class ROTxn;
  friend class RWTxn;
  friend class internal::SnapshotHandle;

  struct VersionedValue {
    uint64_t version;
    std::optional<std::string> value;
  };
  using Chain = std::vector<VersionedValue>;

  // Applies the transaction's staged writes as one new version, consuming
  // its ops (their strings are moved into the store).
  void CommitBatch(RWTxn& txn);
  void ReleaseWriter() { writer_active_.store(false, std::memory_order_release); }
  void RegisterSnapshot(uint64_t version);
  void UnregisterSnapshot(uint64_t version);
  uint64_t MinActiveSnapshotLocked() const;
  static std::optional<std::string> ValueAt(const Chain& chain, uint64_t version);
  void CompactChainLocked(Chain& chain, uint64_t min_active);
  void LoadCheckpoint();
  void LoadCheckpointBytes(const std::string& bytes);

  Options options_;
  mutable std::shared_mutex data_mu_;
  std::map<std::string, Chain, std::less<>> data_;
  IncrementalChecksum checksum_;

  std::atomic<uint64_t> committed_version_{0};
  std::atomic<uint64_t> flushed_version_{0};
  std::atomic<bool> writer_active_{false};
  std::atomic<bool> fault_injected_{false};
  std::atomic<int64_t> torn_flush_bytes_{-1};  // -1 = no torn flush armed

  mutable std::mutex snapshots_mu_;
  std::multiset<uint64_t> active_snapshots_;
};

// Key namespace helper: each engine keeps its state under its own prefix
// (engines are "not typically allowed to access state belonging to other
// engines", §3.3 — the BrainDoctorEngine is the sanctioned exception).
class Keyspace {
 public:
  explicit Keyspace(std::string prefix) : prefix_(std::move(prefix)) {}

  std::string Key(std::string_view suffix) const {
    std::string out = prefix_;
    out.append(suffix);
    return out;
  }
  const std::string& prefix() const { return prefix_; }

 private:
  std::string prefix_;
};

}  // namespace delos
