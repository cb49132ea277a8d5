#include "src/localstore/localstore.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/logging.h"
#include "src/common/serde.h"

namespace delos {

namespace {

// Smallest string strictly greater than every string with the given prefix,
// or empty (= unbounded) if no such string exists.
std::string PrefixUpperBound(std::string_view prefix) {
  std::string upper(prefix);
  while (!upper.empty()) {
    auto& back = reinterpret_cast<unsigned char&>(upper.back());
    if (back != 0xff) {
      ++back;
      return upper;
    }
    upper.pop_back();
  }
  return upper;
}

constexpr std::string_view kCheckpointMagic = "DLSC1";

}  // namespace

namespace internal {

SnapshotHandle::SnapshotHandle(LocalStore* store, uint64_t version)
    : store_(store), version_(version) {
  store_->RegisterSnapshot(version_);
}

SnapshotHandle::~SnapshotHandle() { store_->UnregisterSnapshot(version_); }

}  // namespace internal

// --- ROTxn ---

std::optional<std::string> ROTxn::Get(std::string_view key) const {
  LocalStore* store = handle_->store();
  std::shared_lock<std::shared_mutex> lock(store->data_mu_);
  auto it = store->data_.find(key);
  if (it == store->data_.end()) {
    return std::nullopt;
  }
  return LocalStore::ValueAt(it->second, version());
}

void ROTxn::Scan(std::string_view start, std::string_view end,
                 const std::function<bool(std::string_view, std::string_view)>& fn) const {
  LocalStore* store = handle_->store();
  std::shared_lock<std::shared_mutex> lock(store->data_mu_);
  for (auto it = store->data_.lower_bound(start); it != store->data_.end(); ++it) {
    if (!end.empty() && it->first >= end) {
      break;
    }
    auto value = LocalStore::ValueAt(it->second, version());
    if (value.has_value()) {
      if (!fn(it->first, *value)) {
        break;
      }
    }
  }
}

std::vector<std::pair<std::string, std::string>> ROTxn::ScanPrefix(std::string_view prefix,
                                                                   size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  Scan(prefix, PrefixUpperBound(prefix), [&](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
    return out.size() < limit;
  });
  return out;
}

// --- RWTxn ---

RWTxn::RWTxn(RWTxn&& other) noexcept { *this = std::move(other); }

RWTxn& RWTxn::operator=(RWTxn&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    base_version_ = other.base_version_;
    ops_ = std::move(other.ops_);
    write_index_ = std::move(other.write_index_);
    prev_index_ = std::move(other.prev_index_);
    digest_cache_ = other.digest_cache_;
    digest_cached_ops_ = other.digest_cached_ops_;
    digest_cache_valid_ = other.digest_cache_valid_;
    digest_exclude_ = std::move(other.digest_exclude_);
    digest_op_hash_ = std::move(other.digest_op_hash_);
    other.store_ = nullptr;
  }
  return *this;
}

RWTxn::~RWTxn() { Release(); }

void RWTxn::Release() {
  if (store_ != nullptr) {
    store_->ReleaseWriter();
    store_ = nullptr;
  }
}

void RWTxn::Put(std::string_view key, std::string_view value) {
  ops_.push_back(Op{std::string(key), std::string(value)});
  RecordWrite();
}

void RWTxn::PutOwned(std::string key, std::string value) {
  ops_.push_back(Op{std::move(key), std::move(value)});
  RecordWrite();
}

void RWTxn::Delete(std::string_view key) {
  ops_.push_back(Op{std::string(key), std::nullopt});
  RecordWrite();
}

void RWTxn::RecordWrite() {
  const size_t index = ops_.size() - 1;
  auto [it, inserted] = write_index_.try_emplace(ops_[index].key, index);
  prev_index_.push_back(inserted ? std::nullopt : std::make_optional(it->second));
  it->second = index;
}

std::optional<std::string> RWTxn::Get(std::string_view key) const {
  auto it = write_index_.find(key);
  if (it != write_index_.end()) {
    return ops_[it->second].value;
  }
  // Committed state is read without data_mu_. BeginRW's CAS on
  // writer_active_ admits one live RWTxn per store, and only that
  // transaction's own Commit mutates data_ (Open's checkpoint load runs
  // before any transaction exists). So while this transaction lives, every
  // other thread only reads data_ (under the shared lock), and reads do not
  // race with reads. The CAS's acquire pairs with the previous writer's
  // release in ReleaseWriter, so a transaction begun on another thread sees
  // every earlier commit.
  auto chain_it = store_->data_.find(key);
  if (chain_it == store_->data_.end()) {
    return std::nullopt;
  }
  return LocalStore::ValueAt(chain_it->second, base_version_);
}

void RWTxn::Scan(std::string_view start, std::string_view end,
                 const std::function<bool(std::string_view, std::string_view)>& fn) const {
  // Merge the committed range with this transaction's overlay. Both sides
  // are already sorted (data_ and write_index_ are ordered maps), so the
  // union streams out of a two-iterator merge: no temporary map, and only
  // the overlay keys inside the range are visited (a group-commit batch can
  // stage hundreds of keys; a narrow scan must not walk them all). The
  // committed pairs are harvested under the lock first so the callback runs
  // without it, like the overlay side (ops_ needs no lock).
  std::vector<std::pair<std::string, std::string>> committed;
  {
    std::shared_lock<std::shared_mutex> lock(store_->data_mu_);
    for (auto it = store_->data_.lower_bound(start); it != store_->data_.end(); ++it) {
      if (!end.empty() && it->first >= end) {
        break;
      }
      auto value = LocalStore::ValueAt(it->second, base_version_);
      if (value.has_value()) {
        committed.emplace_back(it->first, std::move(*value));
      }
    }
  }
  auto cit = committed.begin();
  auto oit = write_index_.lower_bound(start);
  const auto overlay_done = [&] {
    return oit == write_index_.end() || (!end.empty() && oit->first >= end);
  };
  while (cit != committed.end() || !overlay_done()) {
    // Pick the smaller key; the overlay shadows committed on a tie (a
    // staged delete hides the committed pair entirely).
    const bool use_overlay =
        !overlay_done() && (cit == committed.end() || oit->first <= cit->first);
    if (use_overlay) {
      if (cit != committed.end() && cit->first == oit->first) {
        ++cit;  // shadowed
      }
      const std::optional<std::string>& staged = ops_[oit->second].value;
      const std::string& key = oit->first;
      ++oit;
      if (staged.has_value() && !fn(key, *staged)) {
        return;
      }
    } else {
      if (!fn(cit->first, cit->second)) {
        return;
      }
      ++cit;
    }
  }
}

std::vector<std::pair<std::string, std::string>> RWTxn::ScanPrefix(std::string_view prefix,
                                                                   size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  Scan(prefix, PrefixUpperBound(prefix), [&](std::string_view key, std::string_view value) {
    out.emplace_back(std::string(key), std::string(value));
    return out.size() < limit;
  });
  return out;
}

uint64_t RWTxn::EffectiveDigest(const std::vector<std::string>& exclude_keys) const {
  std::shared_lock<std::shared_mutex> lock(store_->data_mu_);
  // Incremental: the cache holds the digest of "committed state + ops_[0,
  // digest_cached_ops_) − exclude_keys", so a call only folds in the ops
  // staged since the previous one. The group-commit pipeline can put
  // thousands of records into one transaction with digest beacons every N
  // records — recomputing the whole overlay per beacon made the plane's
  // replay cost O(beacons × overlay); this walk is O(total ops) across the
  // batch. The single-writer invariant freezes committed state (and hence
  // the seed checksum and every committed chain value) for the
  // transaction's lifetime, so the cached prefix digest stays valid until a
  // rollback pops staged ops below the cache point (see RollbackTo).
  const auto committed_value = [&](std::string_view key) -> std::optional<std::string> {
    auto chain_it = store_->data_.find(key);
    if (chain_it == store_->data_.end()) {
      return std::nullopt;
    }
    return LocalStore::ValueAt(chain_it->second, base_version_);
  };
  const auto excluded = [&](std::string_view key) {
    return std::find(exclude_keys.begin(), exclude_keys.end(), key) != exclude_keys.end();
  };
  if (!digest_cache_valid_ || digest_cached_ops_ > ops_.size() ||
      digest_exclude_ != exclude_keys) {
    // (Re)seed from the committed checksum with the excluded pairs removed;
    // their staged ops are skipped in the walk, so they contribute nothing.
    digest_cache_ = store_->checksum_.digest();
    for (const std::string& key : exclude_keys) {
      if (auto value = committed_value(key); value.has_value()) {
        digest_cache_ ^= IncrementalChecksum::PairHash(key, *value);
      }
    }
    digest_cached_ops_ = 0;
    digest_exclude_ = exclude_keys;
    digest_cache_valid_ = true;
  }
  // Fold each new op: XOR out the pair it replaced (the previous staged op
  // on the key via prev_index_, else the committed value — looked up only on
  // a key's first touch) and XOR in the staged value. Per key the
  // intermediate terms telescope away, leaving exactly "committed out,
  // latest staged in". Each staged pair is hashed once and memoized in
  // digest_op_hash_: when a later op displaces it, the XOR-out reuses the
  // memo instead of rehashing the value bytes. The displaced index is always
  // < i, so its memo was filled earlier in this walk or a previous one (an
  // excluded key's ops are all skipped together, so a skipped memo is never
  // read).
  if (digest_op_hash_.size() < ops_.size()) {
    digest_op_hash_.resize(ops_.size(), 0);
  }
  for (size_t i = digest_cached_ops_; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    if (excluded(op.key)) {
      continue;
    }
    if (prev_index_[i].has_value()) {
      if (ops_[*prev_index_[i]].value.has_value()) {
        digest_cache_ ^= digest_op_hash_[*prev_index_[i]];
      }
    } else if (auto old_value = committed_value(op.key); old_value.has_value()) {
      digest_cache_ ^= IncrementalChecksum::PairHash(op.key, *old_value);
    }
    if (op.value.has_value()) {
      digest_op_hash_[i] = IncrementalChecksum::PairHash(op.key, *op.value);
      digest_cache_ ^= digest_op_hash_[i];
    }
  }
  digest_cached_ops_ = ops_.size();
  return digest_cache_;
}

void RWTxn::RollbackTo(const Savepoint& savepoint) {
  if (savepoint.op_count > ops_.size()) {
    throw StoreError("rollback to a savepoint from a different transaction");
  }
  // Undo the write index incrementally, newest op first, restoring whatever
  // entry each op displaced. Cost is proportional to the ops rolled back, so
  // a savepoint at a batch boundary (nothing after it) is free and an
  // aborted entry late in a large group-commit batch never pays for the
  // entries before it.
  for (size_t i = ops_.size(); i-- > savepoint.op_count;) {
    if (prev_index_[i].has_value()) {
      write_index_[ops_[i].key] = *prev_index_[i];
    } else {
      write_index_.erase(ops_[i].key);
    }
  }
  ops_.resize(savepoint.op_count);
  prev_index_.resize(savepoint.op_count);
  // Ops already folded into the digest cache were discarded: drop the cache
  // (a rollback that only pops ops above the cache point leaves it valid).
  if (digest_cached_ops_ > ops_.size()) {
    digest_cache_valid_ = false;
  }
}

void RWTxn::Commit() {
  if (store_ == nullptr) {
    throw StoreError("commit on an invalid transaction");
  }
  LocalStore* store = store_;
  try {
    store->CommitBatch(*this);
  } catch (...) {
    // A failed commit still ends the transaction (and frees the writer
    // slot); the batch is lost.
    Release();
    throw;
  }
  Release();
}

void RWTxn::Abort() { Release(); }

// --- LocalStore ---

LocalStore::LocalStore() : LocalStore(Options{}) {}

LocalStore::LocalStore(Options options) : options_(std::move(options)) {}

LocalStore::~LocalStore() = default;

std::unique_ptr<LocalStore> LocalStore::Open(Options options) {
  auto store = std::make_unique<LocalStore>(std::move(options));
  if (!store->options_.checkpoint_path.empty() &&
      std::filesystem::exists(store->options_.checkpoint_path)) {
    try {
      store->LoadCheckpoint();
    } catch (const StoreError&) {
      if (!store->options_.tolerate_torn_checkpoint) {
        throw;
      }
      // Torn/corrupt checkpoint: discard everything (including any pairs a
      // partial load already installed) and start cold; the engine replays
      // the log from position 1 to rebuild the state.
      {
        std::unique_lock<std::shared_mutex> lock(store->data_mu_);
        store->data_.clear();
        store->checksum_.Reset();
      }
      store->committed_version_.store(0, std::memory_order_release);
      store->flushed_version_.store(0, std::memory_order_release);
      std::error_code ec;
      std::filesystem::remove(store->options_.checkpoint_path, ec);
    }
  }
  return store;
}

RWTxn LocalStore::BeginRW() {
  bool expected = false;
  if (!writer_active_.compare_exchange_strong(expected, true, std::memory_order_acq_rel)) {
    LOG_FATAL << "second concurrent writer on LocalStore (apply-thread contract violated)";
  }
  return RWTxn(this, committed_version());
}

ROTxn LocalStore::Snapshot() {
  // Read the version and register it under the shared lock: CommitBatch
  // holds the lock exclusively from reading the oldest live snapshot to
  // publishing the new version, so a snapshot is either registered before a
  // commit compacts (and keeps its versions alive) or reads the version that
  // commit publishes. Registering after a commit had compacted away the
  // snapshot's own version made live keys read as absent.
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return ROTxn(std::make_shared<internal::SnapshotHandle>(this, committed_version()));
}

void LocalStore::CommitBatch(RWTxn& txn) {
  if (fault_injected_.exchange(false, std::memory_order_acq_rel)) {
    throw StoreError("injected commit fault (out of space)");
  }
  std::unique_lock<std::shared_mutex> lock(data_mu_);
  const uint64_t new_version = committed_version_.load(std::memory_order_relaxed) + 1;
  uint64_t min_active;
  {
    std::lock_guard<std::mutex> snap_lock(snapshots_mu_);
    min_active = MinActiveSnapshotLocked();
  }
  const uint64_t horizon = std::min(min_active, new_version);
  // Only each key's last staged op reaches the store: the earlier ones were
  // overwritten inside this version, so no snapshot can observe them, and
  // their checksum terms telescope away (XOR out the committed pair, XOR in
  // the last staged one). write_index_ maps every staged key to that op, in
  // key order, so a group-commit batch that rewrites a hot key many times
  // commits it once.
  for (const auto& [key, index] : txn.write_index_) {
    RWTxn::Op& op = txn.ops_[index];
    auto it = data_.lower_bound(key);
    if (it == data_.end() || it->first != key) {
      // A fresh key. A delete of it leaves a tombstone only while a snapshot
      // is live (CompactChainLocked below would drop it otherwise).
      if (!op.value.has_value() && horizon == new_version) {
        continue;
      }
      it = data_.emplace_hint(it, std::move(op.key), Chain{});
    }
    Chain& chain = it->second;
    if (!chain.empty() && chain.back().value.has_value()) {
      checksum_.Remove(it->first, *chain.back().value);
    }
    if (op.value.has_value()) {
      checksum_.Add(it->first, *op.value);
    }
    chain.push_back(VersionedValue{new_version, std::move(op.value)});
    CompactChainLocked(chain, horizon);
    if (chain.empty()) {
      data_.erase(it);
    }
  }
  committed_version_.store(new_version, std::memory_order_release);
}

std::optional<std::string> LocalStore::ValueAt(const Chain& chain, uint64_t version) {
  // Chains are short (compacted on write); a reverse linear scan is fastest.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (it->version <= version) {
      return it->value;
    }
  }
  return std::nullopt;
}

void LocalStore::CompactChainLocked(Chain& chain, uint64_t min_active) {
  // Keep the newest version <= min_active (some snapshot may read it) and
  // everything after; drop older ones. Drop a trailing tombstone nothing can
  // observe.
  size_t keep_from = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].version <= min_active) {
      keep_from = i;
    } else {
      break;
    }
  }
  if (keep_from > 0) {
    chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(keep_from));
  }
  if (chain.size() == 1 && !chain[0].value.has_value() && chain[0].version <= min_active) {
    chain.clear();
  }
}

void LocalStore::RegisterSnapshot(uint64_t version) {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  active_snapshots_.insert(version);
}

void LocalStore::UnregisterSnapshot(uint64_t version) {
  std::lock_guard<std::mutex> lock(snapshots_mu_);
  auto it = active_snapshots_.find(version);
  if (it != active_snapshots_.end()) {
    active_snapshots_.erase(it);
  }
}

uint64_t LocalStore::MinActiveSnapshotLocked() const {
  if (active_snapshots_.empty()) {
    return UINT64_MAX;
  }
  return *active_snapshots_.begin();
}

uint64_t LocalStore::Checksum() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  return checksum_.digest();
}

size_t LocalStore::KeyCount() const {
  std::shared_lock<std::shared_mutex> lock(data_mu_);
  size_t count = 0;
  for (const auto& [key, chain] : data_) {
    if (!chain.empty() && chain.back().value.has_value()) {
      ++count;
    }
  }
  return count;
}

ROTxn LocalStore::Flush() {
  ROTxn snapshot = Snapshot();
  if (options_.checkpoint_path.empty()) {
    flushed_version_.store(snapshot.version(), std::memory_order_release);
    return snapshot;
  }
  Serializer ser;
  ser.WriteString(kCheckpointMagic);
  ser.WriteFixed64(snapshot.version());
  std::vector<std::pair<std::string, std::string>> pairs;
  snapshot.Scan("", "", [&](std::string_view key, std::string_view value) {
    pairs.emplace_back(std::string(key), std::string(value));
    return true;
  });
  ser.WriteVarint(pairs.size());
  IncrementalChecksum check;
  for (const auto& [key, value] : pairs) {
    ser.WriteString(key);
    ser.WriteString(value);
    check.Add(key, value);
  }
  ser.WriteFixed64(check.digest());

  const std::string tmp_path = options_.checkpoint_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw StoreError("cannot open checkpoint file " + tmp_path);
    }
    const std::string& buffer = ser.buffer();
    size_t write_bytes = buffer.size();
    const int64_t torn = torn_flush_bytes_.exchange(-1, std::memory_order_acq_rel);
    if (torn >= 0) {
      write_bytes = std::min(write_bytes, static_cast<size_t>(torn));
    }
    out.write(buffer.data(), static_cast<std::streamsize>(write_bytes));
    if (!out) {
      throw StoreError("short write to checkpoint file " + tmp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, options_.checkpoint_path, ec);
  if (ec) {
    throw StoreError("checkpoint rename failed: " + ec.message());
  }
  flushed_version_.store(snapshot.version(), std::memory_order_release);
  return snapshot;
}

void LocalStore::LoadCheckpoint() {
  std::ifstream in(options_.checkpoint_path, std::ios::binary);
  if (!in) {
    throw StoreError("cannot open checkpoint " + options_.checkpoint_path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    LoadCheckpointBytes(bytes);
  } catch (const SerdeError& e) {
    // A truncated file (torn flush) fails mid-decode; surface it as the same
    // corruption class as a checksum mismatch.
    throw StoreError(std::string("truncated checkpoint ") + options_.checkpoint_path + ": " +
                     e.what());
  }
}

void LocalStore::LoadCheckpointBytes(const std::string& bytes) {
  Deserializer de(bytes);
  if (de.ReadString() != kCheckpointMagic) {
    throw StoreError("bad checkpoint magic in " + options_.checkpoint_path);
  }
  const uint64_t version = de.ReadFixed64();
  const uint64_t count = de.ReadVarint();
  IncrementalChecksum check;
  {
    std::unique_lock<std::shared_mutex> lock(data_mu_);
    for (uint64_t i = 0; i < count; ++i) {
      std::string key = de.ReadString();
      std::string value = de.ReadString();
      check.Add(key, value);
      checksum_.Add(key, value);
      data_[std::move(key)] = Chain{VersionedValue{version, std::move(value)}};
    }
  }
  const uint64_t expected = de.ReadFixed64();
  if (check.digest() != expected) {
    throw StoreError("checkpoint checksum mismatch in " + options_.checkpoint_path);
  }
  committed_version_.store(version, std::memory_order_release);
  flushed_version_.store(version, std::memory_order_release);
}

}  // namespace delos
