// ObserverEngine (paper §4.1, 2018; production in both databases).
//
// A stateless protocol layer that measures end-to-end propose/sync latency
// of the sub-stack below it and records it into named histograms
// ("<label>.propose.latency_us", matching the production dashboard names in
// Figure 11). Standard practice is to layer one observer above each engine,
// separating monitoring from core logic. The histograms live in the
// server's registry, inherited from the engine below (required).
#pragma once

#include "src/common/metrics.h"
#include "src/core/stackable_engine.h"

namespace delos {

class ObserverEngine : public StackableEngine {
 public:
  struct Options {
    // Names the layer being observed (the engine directly below); becomes
    // the metric prefix.
    std::string label;
  };

  ObserverEngine(Options options, IEngine* downstream, LocalStore* store);

  Future<std::any> Propose(LogEntry entry) override;
  Future<ROTxn> Sync() override;

 private:
  Histogram* propose_hist_;
  Histogram* sync_hist_;
};

}  // namespace delos
