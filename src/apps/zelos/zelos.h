// Zelos: the ZooKeeper clone built on the Delos stack (§4.3).
//
// Reproduces the ZooKeeper data model over the log-structured protocol
// stack: a hierarchical namespace of znodes with versioned data, ephemeral
// and sequential nodes, sessions, one-shot watches, and atomic multi-ops.
//
//  * Writes are ops proposed through the top engine; in the production-shaped
//    stack they pass through the BatchingEngine (group commit) and the
//    SessionOrderEngine (ZooKeeper's session-ordering guarantee, §4.3).
//  * Reads are served from sync snapshots (strongly consistent).
//  * Watches are replica-local soft state, triggered from postApply — the
//    reason Zelos postApply shows significant work in Figure 7.
//  * A multi-op is atomic "for free": a deterministic error thrown mid-way
//    rolls back the whole apply sub-transaction (§3.4).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/app_base.h"
#include "src/common/metrics.h"
#include "src/common/workload.h"
#include "src/core/engine.h"
#include "src/core/health.h"

namespace delos::zelos {

// --- Deterministic application errors (ZooKeeper error codes) ---

class ZelosError : public DeterministicError {
 public:
  explicit ZelosError(const std::string& what) : DeterministicError(what) {}
};
class NoNodeError : public ZelosError {
 public:
  explicit NoNodeError(const std::string& path) : ZelosError("no node: " + path) {}
};
class NodeExistsError : public ZelosError {
 public:
  explicit NodeExistsError(const std::string& path) : ZelosError("node exists: " + path) {}
};
class BadVersionError : public ZelosError {
 public:
  explicit BadVersionError(const std::string& path) : ZelosError("bad version: " + path) {}
};
class NotEmptyError : public ZelosError {
 public:
  explicit NotEmptyError(const std::string& path) : ZelosError("not empty: " + path) {}
};
class SessionExpiredError : public ZelosError {
 public:
  explicit SessionExpiredError() : ZelosError("session expired") {}
};
class NoChildrenForEphemeralsError : public ZelosError {
 public:
  explicit NoChildrenForEphemeralsError(const std::string& path)
      : ZelosError("ephemerals cannot have children: " + path) {}
};
class BadArgumentsError : public ZelosError {
 public:
  explicit BadArgumentsError(const std::string& what) : ZelosError("bad arguments: " + what) {}
};

// --- Data model ---

using SessionId = uint64_t;

enum CreateFlags : uint32_t {
  kPersistent = 0,
  kEphemeral = 1,
  kSequential = 2,
};

struct Stat {
  LogPos czxid = 0;   // log position of the creating entry
  LogPos mzxid = 0;   // log position of the last data change
  int64_t version = 0;
  int64_t cversion = 0;  // child-list version
  SessionId ephemeral_owner = 0;
};

struct WatchEvent {
  enum class Type { kCreated, kDeleted, kDataChanged, kChildrenChanged };
  Type type;
  std::string path;
};
using WatchCallback = std::function<void(const WatchEvent&)>;

// --- Applicator ---

class ZelosApplicator : public IApplicator, public IHealthCheckable {
 public:
  std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) override;

  // IHealthCheckable: a single deterministic failure is a normal client
  // error (bad version, no node); a long unbroken streak of them means every
  // write is bouncing — systematic misuse or corrupt state. Registered with
  // the server's watchdog via RegisterHealthTarget.
  HealthReport HealthCheck() const override;
  // Triggers one-shot watches for the entry's effects (soft state).
  void PostApply(const LogEntry& entry, LogPos pos) override;

  // Local watch registration (one-shot, ZooKeeper-style).
  void AddDataWatch(const std::string& path, WatchCallback callback);
  void AddExistsWatch(const std::string& path, WatchCallback callback);
  void AddChildWatch(const std::string& path, WatchCallback callback);

  // Publishes a "zelos.open_sessions" gauge to `metrics` (create / close /
  // expire all travel through apply, so the gauge tracks committed state).
  void set_metrics(MetricsRegistry* metrics);

  // Key layout (shared with the read path).
  static std::string NodeKey(const std::string& path);
  static std::string ChildKey(const std::string& parent, const std::string& child);
  static std::string ChildPrefix(const std::string& parent);
  static std::string SessionKey(SessionId id);
  static std::string HeartbeatKey(SessionId id);
  static std::string EphemeralKey(SessionId id, const std::string& path);
  static std::string EphemeralPrefix(SessionId id);
  // Decodes the timeout stored in a session record.
  static int64_t DecodeSessionTimeout(std::string_view record);
  // Parses the id out of a session key ("z/s/<zero-padded id>").
  static SessionId SessionIdFromKey(std::string_view key);
  static constexpr char kSessionPrefix[] = "z/s/";

  // Node record serialization (shared with the read path).
  struct NodeRecord {
    std::string data;
    Stat stat;
    uint64_t seq_counter = 0;  // for sequential children
    std::string Encode() const;
    static NodeRecord Decode(std::string_view bytes);
  };

 private:
  struct MultiOp;  // forward decl for the multi decoder

  void EnsureRoot(RWTxn& txn, LogPos pos);
  NodeRecord GetNode(RWTxn& txn, const std::string& path);
  std::string DoCreate(RWTxn& txn, LogPos pos, SessionId session, const std::string& path,
                       const std::string& data, uint32_t flags);
  void DoDelete(RWTxn& txn, const std::string& path, int64_t expected_version);
  int64_t DoSetData(RWTxn& txn, LogPos pos, const std::string& path, std::string_view data,
                    int64_t expected_version);
  void DoCloseSession(RWTxn& txn, SessionId session);
  void CheckSession(RWTxn& txn, SessionId session);
  std::any ApplyOp(RWTxn& txn, const LogEntry& entry, LogPos pos);

  // Apply-thread scratch: watch events for applied-but-not-yet-notified
  // entries. Accumulates across a group-commit batch; drained by the first
  // postApply after the batch commits.
  std::vector<WatchEvent> pending_events_;

  Gauge* open_sessions_gauge_ = nullptr;

  // Consecutive deterministic apply failures (reset on any success); read by
  // HealthCheck from the watchdog thread.
  std::atomic<uint64_t> failure_streak_{0};

  std::mutex watch_mu_;
  std::map<std::string, std::vector<WatchCallback>> data_watches_;
  std::map<std::string, std::vector<WatchCallback>> exists_watches_;
  std::map<std::string, std::vector<WatchCallback>> child_watches_;
};

// --- Wrapper ---

class ZelosClient : public AppWrapperBase {
 public:
  // `applicator` is this server's local applicator (watch registration).
  ZelosClient(IEngine* top, ZelosApplicator* applicator)
      : AppWrapperBase(top), applicator_(applicator) {}

  // Session lifecycle (replicated through the log).
  SessionId CreateSession(int64_t timeout_micros = 10'000'000);
  void CloseSession(SessionId session);
  // Proposed by a failure detector that saw no heartbeat; same effect as
  // close but kept distinct for observability.
  void ExpireSession(SessionId session);
  void Heartbeat(SessionId session);

  // Writes. Returns the actual path (differs for sequential nodes).
  std::string Create(SessionId session, const std::string& path, const std::string& data,
                     uint32_t flags = kPersistent);
  void Delete(const std::string& path, int64_t expected_version = -1);
  // Returns the new data version.
  int64_t SetData(const std::string& path, const std::string& data,
                  int64_t expected_version = -1);

  // Atomic multi-op. Each element is (op, path, data, flags/version).
  struct Op {
    enum class Kind { kCreate, kDelete, kSetData, kCheckVersion } kind;
    std::string path;
    std::string data;
    uint32_t flags = 0;
    int64_t version = -1;
    SessionId session = 0;
  };
  // Returns the created path for each kCreate (empty string otherwise).
  std::vector<std::string> Multi(const std::vector<Op>& ops);

  // Reads (strongly consistent; optional one-shot watch registration).
  std::optional<std::pair<std::string, Stat>> GetData(const std::string& path,
                                                      WatchCallback watch = nullptr);
  std::optional<Stat> Exists(const std::string& path, WatchCallback watch = nullptr);
  std::vector<std::string> GetChildren(const std::string& path, WatchCallback watch = nullptr);

  // Op codes.
  enum OpCode : uint64_t {
    kCreateSession = 1,
    kCloseSession = 2,
    kExpireSession = 3,
    kHeartbeat = 4,
    kCreate = 10,
    kDelete = 11,
    kSetData = 12,
    kMulti = 13,
  };

 private:
  ZelosApplicator* applicator_;
};

// Workload-attribution hook: data ops map to "zelos<path>" (paths begin with
// '/'), session-lifecycle ops to "zelos/session[/<id>]", multis to their
// first constituent's path. Malformed payloads yield "".
class ZelosKeyExtractor : public IKeyExtractor {
 public:
  std::string KeyOf(std::string_view payload) const override;
  static const ZelosKeyExtractor* Instance();
};

// Path helpers shared by applicator, client, and tests.
bool IsValidPath(const std::string& path);
std::string ParentPath(const std::string& path);
std::string BaseName(const std::string& path);

}  // namespace delos::zelos
