// Test helper: compare replicas at one log position.
//
// Two replicas' states can only be compared when both have applied the same
// log prefix. Syncing them one after the other does not give that while
// anything still appends (heartbeats, delayed re-proposals): the second sync
// can play records the first replica has not applied yet.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/core/base_engine.h"
#include "src/sharedlog/shared_log.h"

namespace delos {

// Waits until every replica has applied exactly the records below the log's
// tail, and runs `read` while the tail stays put, so whatever `read` observes
// on each replica (checksums, app state) reflects that one prefix. A window
// in which something appended is retried. Returns the tail, or 0 (after a
// test failure) if no quiet window came within `timeout`.
template <typename Read>
LogPos ReadAtQuiescedTail(ISharedLog& log, const std::vector<BaseEngine*>& replicas, Read read,
                          std::chrono::milliseconds timeout = std::chrono::seconds(30)) {
  const auto all_applied_below = [&](LogPos tail) {
    for (BaseEngine* replica : replicas) {
      if (replica->applied_position() + 1 != tail) {
        return false;
      }
    }
    return true;
  };
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    for (BaseEngine* replica : replicas) {
      replica->Sync().Get();
    }
    const LogPos tail = log.CheckTail().Get();
    if (!all_applied_below(tail)) {
      continue;
    }
    read();
    // Nothing at or past `tail` existed before this second CheckTail, so no
    // replica can have committed a later record while `read` ran.
    if (all_applied_below(tail) && log.CheckTail().Get() == tail) {
      return tail;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "the log never stayed quiet while every replica caught up";
  return 0;
}

}  // namespace delos
