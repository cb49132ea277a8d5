// BrainDoctorEngine (paper §4.2, 2019; production in both databases).
//
// A pass-through engine with one addition: an external call that proposes a
// list of raw LocalStore writes into the log; when the control command is
// applied, the writes are applied directly to the store, bypassing all
// application logic. Used for emergency "brain surgery" on a running
// database (the motivating incident was repairing secondary indices written
// incorrectly by a DelosTable bug). This engine is the sanctioned exception
// to keyspace isolation: it may write any key.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/stackable_engine.h"

namespace delos {

class BrainDoctorEngine : public StackableEngine {
 public:
  struct Options {
    bool start_enabled = true;
  };

  // One raw write: value present = put, absent = delete.
  using RawWrite = std::pair<std::string, std::optional<std::string>>;

  BrainDoctorEngine(Options options, IEngine* downstream, LocalStore* store);

  // Proposes the writes through the log; every replica applies them directly
  // to its LocalStore. Resolves to the number of writes applied.
  Future<std::any> ApplyRawWrites(std::vector<RawWrite> writes);

 protected:
  std::any ApplyControl(RWTxn& txn, const EngineHeaderView& header, const LogEntry& entry,
                        LogPos pos) override;

 private:
  static constexpr uint64_t kMsgTypeWriteBatch = 1;
};

}  // namespace delos
