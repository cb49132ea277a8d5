// LogBackupEngine (paper §4.2, 2019; production in both databases).
//
// Coordinates the nodes of a cluster to upload disjoint segments of the
// shared log to a backup store before the log is trimmed, enabling
// Point-in-Time restore. The log itself is the coordination mechanism:
//
//  * The replicated state is a map of segment bids. When playback crosses a
//    segment boundary, every server proposes a BID for the segment; the
//    first bid in the log wins deterministically.
//  * The winner uploads the segment (on a background worker, off the apply
//    thread) and proposes COMPLETE when done.
//  * The engine's trim opinion is the end of the last contiguous completed
//    segment, so the BaseEngine never trims entries that are not yet backed
//    up (setTrimPrefix min-relay, §3.3).
#pragma once

#include <atomic>
#include <string>
#include <thread>

#include "src/backup/backup_store.h"
#include "src/common/blocking_queue.h"
#include "src/core/stackable_engine.h"

namespace delos {

class LogBackupEngine : public StackableEngine {
 public:
  struct Options {
    std::string server_id;
    BackupStore* backup_store = nullptr;
    // The shared log to read segments from (wired to BaseEngine's log — on a
    // ClusterServer that is the per-server ReadCachingLog, so segment
    // uploads of recently applied positions are served from cache instead of
    // re-fetching them from the loglet).
    ISharedLog* log = nullptr;
    // Segment size in log positions. Segment s covers
    // [s * size + 1, (s + 1) * size].
    uint64_t segment_size = 64;
    bool start_enabled = true;
  };

  LogBackupEngine(Options options, IEngine* downstream, LocalStore* store);
  ~LogBackupEngine() override;

  // End of the last contiguous backed-up prefix (0 = nothing backed up).
  LogPos BackedUpPrefix() const;

  // Object name for a segment in the backup store.
  static std::string SegmentObjectName(uint64_t segment);
  static constexpr char kSegmentPrefix[] = "logseg/";

 protected:
  void OnPropose(LogEntry* entry) override {}
  std::any ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) override;
  std::any ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                        LogPos pos) override;
  void PostApplyData(const LogEntry& entry, LogPos pos) override;
  void PostApplyControl(const EngineHeaderView& header, const LogEntry& entry, LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeBid = 1;
  static constexpr uint64_t kMsgTypeComplete = 2;

  void MaybeBid(LogPos pos);
  void UploadWorkerMain();
  void RecomputeBackedPrefix(RWTxn& txn);

  Options options_;
  std::atomic<LogPos> backed_prefix_{0};
  // Segments this server won and must upload.
  BlockingQueue<uint64_t> upload_queue_;
  std::thread upload_worker_;
  // Apply-thread-only scratch parked per position: segment won by us in an
  // applied entry (kNoSegment if none).
  static constexpr uint64_t kNoSegment = UINT64_MAX;
  ApplyCarry<uint64_t> won_segment_carry_;
  // Apply-thread-only: first segment whose bid we have not yet checked.
  uint64_t next_bid_check_ = 0;
};

}  // namespace delos
