#include "src/apps/zelos/zelos.h"

#include <cstdio>

namespace delos::zelos {

namespace {

constexpr char kNextSessionKey[] = "z/meta/next_session";
constexpr char kPathSep = '/';
// Separates parent path from child name in the child index; sorts below any
// printable path byte so children group correctly.
constexpr char kChildSep = '\x01';

std::string PadSession(SessionId id) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%020llu", static_cast<unsigned long long>(id));
  return buffer;
}

void WriteStat(Serializer& ser, const Stat& stat) {
  ser.WriteVarint(stat.czxid);
  ser.WriteVarint(stat.mzxid);
  ser.WriteSigned(stat.version);
  ser.WriteSigned(stat.cversion);
  ser.WriteVarint(stat.ephemeral_owner);
}

Stat ReadStat(Deserializer& de) {
  Stat stat;
  stat.czxid = de.ReadVarint();
  stat.mzxid = de.ReadVarint();
  stat.version = de.ReadSigned();
  stat.cversion = de.ReadSigned();
  stat.ephemeral_owner = de.ReadVarint();
  return stat;
}

// The node record layout: data, stat, sequential-child counter. Parsed, the
// data is a view into the record's bytes.
struct NodeView {
  std::string_view data;
  Stat stat;
  uint64_t seq_counter = 0;
};

NodeView ParseNode(std::string_view bytes) {
  Deserializer de(bytes);
  NodeView node;
  node.data = de.ReadStringView();
  node.stat = ReadStat(de);
  node.seq_counter = de.ReadVarint();
  return node;
}

std::string EncodeNode(std::string_view data, const Stat& stat, uint64_t seq_counter) {
  // The five stat varints and the counter take at most 10 bytes each, so the
  // buffer is allocated once and never grows.
  Serializer ser(Serializer::StringSize(data) + 6 * 10);
  ser.WriteString(data);
  WriteStat(ser, stat);
  ser.WriteVarint(seq_counter);
  return ser.Release();
}

}  // namespace

bool IsValidPath(const std::string& path) {
  if (path.empty() || path[0] != kPathSep) {
    return false;
  }
  if (path.size() > 1 && path.back() == kPathSep) {
    return false;
  }
  if (path.find("//") != std::string::npos) {
    return false;
  }
  if (path.find(kChildSep) != std::string::npos) {
    return false;
  }
  return true;
}

std::string ParentPath(const std::string& path) {
  const size_t slash = path.rfind(kPathSep);
  if (slash == 0) {
    return "/";
  }
  return path.substr(0, slash);
}

std::string BaseName(const std::string& path) {
  return path.substr(path.rfind(kPathSep) + 1);
}

// --- key layout ---

std::string ZelosApplicator::NodeKey(const std::string& path) { return "z/n" + path; }

std::string ZelosApplicator::ChildKey(const std::string& parent, const std::string& child) {
  return ChildPrefix(parent) + child;
}

std::string ZelosApplicator::ChildPrefix(const std::string& parent) {
  return "z/c" + parent + kChildSep;
}

std::string ZelosApplicator::SessionKey(SessionId id) { return "z/s/" + PadSession(id); }

std::string ZelosApplicator::HeartbeatKey(SessionId id) { return "z/hb/" + PadSession(id); }

int64_t ZelosApplicator::DecodeSessionTimeout(std::string_view record) {
  Deserializer de(record);
  return de.ReadSigned();
}

SessionId ZelosApplicator::SessionIdFromKey(std::string_view key) {
  return std::stoull(std::string(key.substr(std::string_view(kSessionPrefix).size())));
}

std::string ZelosApplicator::EphemeralKey(SessionId id, const std::string& path) {
  return EphemeralPrefix(id) + path;
}

std::string ZelosApplicator::EphemeralPrefix(SessionId id) {
  return "z/e/" + PadSession(id) + kChildSep;
}

// --- node record ---

std::string ZelosApplicator::NodeRecord::Encode() const {
  return EncodeNode(data, stat, seq_counter);
}

ZelosApplicator::NodeRecord ZelosApplicator::NodeRecord::Decode(std::string_view bytes) {
  const NodeView node = ParseNode(bytes);
  return NodeRecord{std::string(node.data), node.stat, node.seq_counter};
}

// --- applicator internals ---

void ZelosApplicator::EnsureRoot(RWTxn& txn, LogPos pos) {
  const std::string root_key = NodeKey("/");
  if (!txn.Get(root_key).has_value()) {
    NodeRecord root;
    root.stat.czxid = pos;
    root.stat.mzxid = pos;
    txn.Put(root_key, root.Encode());
  }
}

ZelosApplicator::NodeRecord ZelosApplicator::GetNode(RWTxn& txn, const std::string& path) {
  auto bytes = txn.Get(NodeKey(path));
  if (!bytes.has_value()) {
    throw NoNodeError(path);
  }
  return NodeRecord::Decode(*bytes);
}

void ZelosApplicator::CheckSession(RWTxn& txn, SessionId session) {
  if (session == 0) {
    return;  // Session-less client (tests, internal ops).
  }
  if (!txn.Get(SessionKey(session)).has_value()) {
    throw SessionExpiredError();
  }
}

std::string ZelosApplicator::DoCreate(RWTxn& txn, LogPos pos, SessionId session,
                                      const std::string& path, const std::string& data,
                                      uint32_t flags) {
  if (!IsValidPath(path) || path == "/") {
    throw BadArgumentsError("invalid path " + path);
  }
  if ((flags & kEphemeral) != 0 && session == 0) {
    throw BadArgumentsError("ephemeral nodes need a session");
  }
  CheckSession(txn, session);
  EnsureRoot(txn, pos);

  const std::string parent = ParentPath(path);
  auto parent_bytes = txn.Get(NodeKey(parent));
  if (!parent_bytes.has_value()) {
    throw NoNodeError(parent);
  }
  NodeRecord parent_record = NodeRecord::Decode(*parent_bytes);
  if (parent_record.stat.ephemeral_owner != 0) {
    throw NoChildrenForEphemeralsError(parent);
  }

  std::string actual_path = path;
  if ((flags & kSequential) != 0) {
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "%010llu",
                  static_cast<unsigned long long>(parent_record.seq_counter));
    parent_record.seq_counter += 1;
    actual_path += suffix;
  }
  if (txn.Get(NodeKey(actual_path)).has_value()) {
    throw NodeExistsError(actual_path);
  }

  NodeRecord node;
  node.data = data;
  node.stat.czxid = pos;
  node.stat.mzxid = pos;
  if ((flags & kEphemeral) != 0) {
    node.stat.ephemeral_owner = session;
    txn.Put(EphemeralKey(session, actual_path), "");
  }
  txn.Put(NodeKey(actual_path), node.Encode());
  txn.Put(ChildKey(parent, BaseName(actual_path)), "");
  parent_record.stat.cversion += 1;
  txn.Put(NodeKey(parent), parent_record.Encode());

  pending_events_.push_back({WatchEvent::Type::kCreated, actual_path});
  pending_events_.push_back({WatchEvent::Type::kChildrenChanged, parent});
  return actual_path;
}

void ZelosApplicator::DoDelete(RWTxn& txn, const std::string& path, int64_t expected_version) {
  if (!IsValidPath(path) || path == "/") {
    throw BadArgumentsError("cannot delete " + path);
  }
  NodeRecord node = GetNode(txn, path);
  if (expected_version >= 0 && node.stat.version != expected_version) {
    throw BadVersionError(path);
  }
  // Reject non-empty nodes.
  bool has_children = false;
  txn.Scan(ChildPrefix(path), ChildPrefix(path) + "\xff",
           [&](std::string_view, std::string_view) {
             has_children = true;
             return false;
           });
  if (has_children) {
    throw NotEmptyError(path);
  }

  const std::string parent = ParentPath(path);
  NodeRecord parent_record = GetNode(txn, parent);
  txn.Delete(NodeKey(path));
  txn.Delete(ChildKey(parent, BaseName(path)));
  if (node.stat.ephemeral_owner != 0) {
    txn.Delete(EphemeralKey(node.stat.ephemeral_owner, path));
  }
  parent_record.stat.cversion += 1;
  txn.Put(NodeKey(parent), parent_record.Encode());

  pending_events_.push_back({WatchEvent::Type::kDeleted, path});
  pending_events_.push_back({WatchEvent::Type::kChildrenChanged, parent});
}

int64_t ZelosApplicator::DoSetData(RWTxn& txn, LogPos pos, const std::string& path,
                                   std::string_view data, int64_t expected_version) {
  std::string key = NodeKey(path);
  const auto bytes = txn.Get(key);
  if (!bytes.has_value()) {
    throw NoNodeError(path);
  }
  // Only the stat and the counter survive a SetData: the old data is not
  // copied, and the record is encoded afresh around the new data.
  NodeView node = ParseNode(*bytes);
  if (expected_version >= 0 && node.stat.version != expected_version) {
    throw BadVersionError(path);
  }
  node.stat.version += 1;
  node.stat.mzxid = pos;
  txn.PutOwned(std::move(key), EncodeNode(data, node.stat, node.seq_counter));
  pending_events_.push_back({WatchEvent::Type::kDataChanged, path});
  return node.stat.version;
}

void ZelosApplicator::set_metrics(MetricsRegistry* metrics) {
  open_sessions_gauge_ = metrics != nullptr ? metrics->GetGauge("zelos.open_sessions") : nullptr;
}

void ZelosApplicator::DoCloseSession(RWTxn& txn, SessionId session) {
  if (!txn.Get(SessionKey(session)).has_value()) {
    return;  // Already closed/expired: idempotent.
  }
  if (open_sessions_gauge_ != nullptr) {
    open_sessions_gauge_->Add(-1);
  }
  // Delete the session's ephemeral nodes.
  std::vector<std::string> ephemerals;
  const std::string prefix = EphemeralPrefix(session);
  txn.Scan(prefix, prefix + "\xff", [&](std::string_view key, std::string_view) {
    ephemerals.emplace_back(key.substr(prefix.size()));
    return true;
  });
  for (const std::string& path : ephemerals) {
    DoDelete(txn, path, -1);
  }
  txn.Delete(SessionKey(session));
}

std::any ZelosApplicator::Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  // Watch events accumulate across a group-commit batch (postApply only runs
  // after the whole batch commits, and the first postApply drains everything
  // pending). On a deterministic throw the record is rolled back, so its
  // events are trimmed and never fire.
  const size_t event_mark = pending_events_.size();
  try {
    std::any result = ApplyOp(txn, entry, pos);
    failure_streak_.store(0, std::memory_order_relaxed);
    return result;
  } catch (const DeterministicError&) {
    pending_events_.resize(event_mark);
    failure_streak_.fetch_add(1, std::memory_order_relaxed);
    throw;
  } catch (...) {
    pending_events_.resize(event_mark);
    throw;
  }
}

HealthReport ZelosApplicator::HealthCheck() const {
  const uint64_t streak = failure_streak_.load(std::memory_order_relaxed);
  HealthReport report{"zelos", HealthState::kOk, "", static_cast<int64_t>(streak)};
  // Thresholds: a handful of consecutive rejections is normal contention; a
  // long unbroken run means nothing is committing.
  if (streak >= 256) {
    report.state = HealthState::kUnhealthy;
    report.reason = std::to_string(streak) + " consecutive deterministic apply failures";
  } else if (streak >= 64) {
    report.state = HealthState::kDegraded;
    report.reason = std::to_string(streak) + " consecutive deterministic apply failures";
  }
  return report;
}

std::any ZelosApplicator::ApplyOp(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  if (entry.payload.empty()) {
    return std::any(Unit{});
  }
  OpReader op(entry.payload);
  switch (op.op_code()) {
    case ZelosClient::kCreateSession: {
      const int64_t timeout = op.args().ReadSigned();
      auto next_bytes = txn.Get(kNextSessionKey);
      SessionId id = 1;
      if (next_bytes.has_value()) {
        Deserializer de(*next_bytes);
        id = de.ReadVarint();
      }
      Serializer next_ser;
      next_ser.WriteVarint(id + 1);
      txn.Put(kNextSessionKey, next_ser.Release());
      Serializer session_ser;
      session_ser.WriteSigned(timeout);
      txn.Put(SessionKey(id), session_ser.Release());
      if (open_sessions_gauge_ != nullptr) {
        open_sessions_gauge_->Add(1);
      }
      return std::any(id);
    }
    case ZelosClient::kCloseSession:
    case ZelosClient::kExpireSession: {
      const SessionId session = op.args().ReadVarint();
      DoCloseSession(txn, session);
      return std::any(Unit{});
    }
    case ZelosClient::kHeartbeat: {
      const SessionId session = op.args().ReadVarint();
      CheckSession(txn, session);
      Serializer ser;
      ser.WriteVarint(pos);
      txn.Put(HeartbeatKey(session), ser.Release());
      return std::any(Unit{});
    }
    case ZelosClient::kCreate: {
      const SessionId session = op.args().ReadVarint();
      const std::string path = op.args().ReadString();
      const std::string data = op.args().ReadString();
      const auto flags = static_cast<uint32_t>(op.args().ReadVarint());
      return std::any(DoCreate(txn, pos, session, path, data, flags));
    }
    case ZelosClient::kDelete: {
      const std::string path = op.args().ReadString();
      const int64_t version = op.args().ReadSigned();
      DoDelete(txn, path, version);
      return std::any(Unit{});
    }
    case ZelosClient::kSetData: {
      const std::string path = op.args().ReadString();
      const std::string_view data = op.args().ReadStringView();
      const int64_t version = op.args().ReadSigned();
      return std::any(DoSetData(txn, pos, path, data, version));
    }
    case ZelosClient::kMulti: {
      // Atomic: any throw here unwinds to the engine below, which rolls back
      // the whole sub-transaction (§3.4).
      const uint64_t count = op.args().ReadVarint();
      std::vector<std::string> results;
      results.reserve(count);
      for (uint64_t i = 0; i < count; ++i) {
        const auto kind = static_cast<ZelosClient::Op::Kind>(op.args().ReadVarint());
        const SessionId session = op.args().ReadVarint();
        const std::string path = op.args().ReadString();
        const std::string data = op.args().ReadString();
        const auto flags = static_cast<uint32_t>(op.args().ReadVarint());
        const int64_t version = op.args().ReadSigned();
        switch (kind) {
          case ZelosClient::Op::Kind::kCreate:
            results.push_back(DoCreate(txn, pos, session, path, data, flags));
            break;
          case ZelosClient::Op::Kind::kDelete:
            DoDelete(txn, path, version);
            results.emplace_back();
            break;
          case ZelosClient::Op::Kind::kSetData:
            DoSetData(txn, pos, path, data, version);
            results.emplace_back();
            break;
          case ZelosClient::Op::Kind::kCheckVersion: {
            NodeRecord node = GetNode(txn, path);
            if (version >= 0 && node.stat.version != version) {
              throw BadVersionError(path);
            }
            results.emplace_back();
            break;
          }
        }
      }
      return std::any(std::move(results));
    }
    default:
      throw BadArgumentsError("unknown op code " + std::to_string(op.op_code()));
  }
}

void ZelosApplicator::PostApply(const LogEntry& entry, LogPos pos) {
  if (pending_events_.empty()) {
    return;
  }
  std::vector<std::pair<WatchCallback, WatchEvent>> to_fire;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    for (const WatchEvent& event : pending_events_) {
      switch (event.type) {
        case WatchEvent::Type::kCreated: {
          // Creation fires exists-watches.
          auto it = exists_watches_.find(event.path);
          if (it != exists_watches_.end()) {
            for (auto& callback : it->second) {
              to_fire.emplace_back(std::move(callback), event);
            }
            exists_watches_.erase(it);
          }
          break;
        }
        case WatchEvent::Type::kDeleted:
        case WatchEvent::Type::kDataChanged: {
          for (auto* watches : {&data_watches_, &exists_watches_}) {
            auto it = watches->find(event.path);
            if (it != watches->end()) {
              for (auto& callback : it->second) {
                to_fire.emplace_back(std::move(callback), event);
              }
              watches->erase(it);
            }
          }
          break;
        }
        case WatchEvent::Type::kChildrenChanged: {
          auto it = child_watches_.find(event.path);
          if (it != child_watches_.end()) {
            for (auto& callback : it->second) {
              to_fire.emplace_back(std::move(callback), event);
            }
            child_watches_.erase(it);
          }
          break;
        }
      }
    }
  }
  pending_events_.clear();
  for (auto& [callback, event] : to_fire) {
    callback(event);
  }
}

void ZelosApplicator::AddDataWatch(const std::string& path, WatchCallback callback) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  data_watches_[path].push_back(std::move(callback));
}

void ZelosApplicator::AddExistsWatch(const std::string& path, WatchCallback callback) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  exists_watches_[path].push_back(std::move(callback));
}

void ZelosApplicator::AddChildWatch(const std::string& path, WatchCallback callback) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  child_watches_[path].push_back(std::move(callback));
}

namespace {

// Single-allocation "<prefix><rest>" — the extractor runs once per applied
// record, so it avoids the temporary ReadString copy.
std::string PrefixedKey(std::string_view prefix, std::string_view rest) {
  std::string out;
  out.reserve(prefix.size() + rest.size());
  out.append(prefix);
  out.append(rest);
  return out;
}

}  // namespace

std::string ZelosKeyExtractor::KeyOf(std::string_view payload) const {
  if (payload.empty()) {
    return "";
  }
  try {
    Deserializer de(payload);
    switch (de.ReadVarint()) {
      case ZelosClient::kCreateSession:
        return "zelos/session";
      case ZelosClient::kCloseSession:
      case ZelosClient::kExpireSession:
      case ZelosClient::kHeartbeat:
        return "zelos/session/" + std::to_string(de.ReadVarint());
      case ZelosClient::kCreate:
        de.ReadVarint();  // session
        return PrefixedKey("zelos", de.ReadStringView());
      case ZelosClient::kDelete:
      case ZelosClient::kSetData:
        return PrefixedKey("zelos", de.ReadStringView());
      case ZelosClient::kMulti: {
        if (de.ReadVarint() == 0) {
          return "zelos/multi";
        }
        de.ReadVarint();  // first op's kind
        de.ReadVarint();  // first op's session
        return PrefixedKey("zelos", de.ReadStringView());
      }
      default:
        return "";
    }
  } catch (const std::exception&) {
    return "";
  }
}

const ZelosKeyExtractor* ZelosKeyExtractor::Instance() {
  static const ZelosKeyExtractor extractor;
  return &extractor;
}

// --- client ---

SessionId ZelosClient::CreateSession(int64_t timeout_micros) {
  OpWriter op(kCreateSession);
  op.args().WriteSigned(timeout_micros);
  return ProposeAndGet<SessionId>(std::move(op).ToEntry());
}

void ZelosClient::CloseSession(SessionId session) {
  OpWriter op(kCloseSession);
  op.args().WriteVarint(session);
  ProposeAndGet<Unit>(std::move(op).ToEntry());
}

void ZelosClient::ExpireSession(SessionId session) {
  OpWriter op(kExpireSession);
  op.args().WriteVarint(session);
  ProposeAndGet<Unit>(std::move(op).ToEntry());
}

void ZelosClient::Heartbeat(SessionId session) {
  OpWriter op(kHeartbeat);
  op.args().WriteVarint(session);
  ProposeAndGet<Unit>(std::move(op).ToEntry());
}

std::string ZelosClient::Create(SessionId session, const std::string& path,
                                const std::string& data, uint32_t flags) {
  OpWriter op(kCreate);
  op.args().WriteVarint(session);
  op.args().WriteString(path);
  op.args().WriteString(data);
  op.args().WriteVarint(flags);
  return ProposeAndGet<std::string>(std::move(op).ToEntry());
}

void ZelosClient::Delete(const std::string& path, int64_t expected_version) {
  OpWriter op(kDelete);
  op.args().WriteString(path);
  op.args().WriteSigned(expected_version);
  ProposeAndGet<Unit>(std::move(op).ToEntry());
}

int64_t ZelosClient::SetData(const std::string& path, const std::string& data,
                             int64_t expected_version) {
  OpWriter op(kSetData);
  op.args().WriteString(path);
  op.args().WriteString(data);
  op.args().WriteSigned(expected_version);
  return ProposeAndGet<int64_t>(std::move(op).ToEntry());
}

std::vector<std::string> ZelosClient::Multi(const std::vector<Op>& ops) {
  OpWriter op(kMulti);
  op.args().WriteVarint(ops.size());
  for (const Op& sub : ops) {
    op.args().WriteVarint(static_cast<uint64_t>(sub.kind));
    op.args().WriteVarint(sub.session);
    op.args().WriteString(sub.path);
    op.args().WriteString(sub.data);
    op.args().WriteVarint(sub.flags);
    op.args().WriteSigned(sub.version);
  }
  return ProposeAndGet<std::vector<std::string>>(std::move(op).ToEntry());
}

std::optional<std::pair<std::string, Stat>> ZelosClient::GetData(const std::string& path,
                                                                 WatchCallback watch) {
  ROTxn snapshot = SyncRead();
  auto bytes = snapshot.Get(ZelosApplicator::NodeKey(path));
  if (watch != nullptr) {
    // Registered after the snapshot: an intervening change may fire
    // immediately after registration rather than be missed.
    applicator_->AddDataWatch(path, std::move(watch));
  }
  if (!bytes.has_value()) {
    return std::nullopt;
  }
  auto record = ZelosApplicator::NodeRecord::Decode(*bytes);
  return std::make_pair(record.data, record.stat);
}

std::optional<Stat> ZelosClient::Exists(const std::string& path, WatchCallback watch) {
  ROTxn snapshot = SyncRead();
  auto bytes = snapshot.Get(ZelosApplicator::NodeKey(path));
  if (watch != nullptr) {
    applicator_->AddExistsWatch(path, std::move(watch));
  }
  if (!bytes.has_value()) {
    return std::nullopt;
  }
  return ZelosApplicator::NodeRecord::Decode(*bytes).stat;
}

std::vector<std::string> ZelosClient::GetChildren(const std::string& path, WatchCallback watch) {
  ROTxn snapshot = SyncRead();
  if (watch != nullptr) {
    applicator_->AddChildWatch(path, std::move(watch));
  }
  const std::string prefix = ZelosApplicator::ChildPrefix(path);
  std::vector<std::string> children;
  for (const auto& [key, unused] : snapshot.ScanPrefix(prefix)) {
    children.push_back(key.substr(prefix.size()));
  }
  return children;
}

}  // namespace delos::zelos
