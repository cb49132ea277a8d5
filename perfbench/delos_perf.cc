// One round of a benchmark workload against a 3-replica Delos cluster.
//
//   delos_perf --workload <zelos_light|zelos_peak|zelos_catchup|table_light>
//              --seed <n> --round <n> --workdir <dir> [--trace <0|1>]
//
// A round builds a fresh cluster over the quorum loglet (SimNetwork, fixed
// one-way latency, no jitter, no drops) from the production stacks in
// src/engines/stacks with the real Zelos or DelosTable applicator, does a
// fixed amount of work, checks the outputs against the generator's own
// model, and prints one JSON object. run.py runs rounds in separate
// processes so that each round's peak RSS is its own.
//
// Per-layer figures (--trace 1) are measured from outside the program: a
// timing wrapper around the ISharedLog each ClusterServer is given, a timing
// wrapper around the app's IApplicator, a span observer on the program's
// Tracer, and the counters the program already exposes (ApplyProfiler,
// BaseEngine, SimNetwork, the read-cache metrics).
#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/stats.h"
#include "src/apps/app_base.h"
#include "src/apps/delostable/table_db.h"
#include "src/apps/zelos/zelos.h"
#include "src/common/blocking_queue.h"
#include "src/core/apply_profiler.h"
#include "src/core/cluster.h"
#include "src/engines/stacks.h"

namespace perfbench {
namespace {

using delos::ClusterServer;
using delos::Future;
using delos::ISharedLog;
using delos::LogPos;
using delos::LogRecord;
using delos::Result;
namespace zelos = delos::zelos;
namespace table = delos::table;

// --- Inputs (README.md lists them with the reasons) ---
constexpr int kReplicas = 3;
constexpr int64_t kOneWayMicros = 100;
constexpr size_t kKeys = 1000;
constexpr size_t kValueBytes = 100;
constexpr size_t kLoadThreads = 4;
constexpr size_t kPreloadChunk = 100;
// Open loops (zelos_light, table_light).
constexpr size_t kLightOps = 600;
constexpr double kLightRatePerSec = 300;
// Closed loops (zelos_peak, and the zelos_catchup backlog).
constexpr size_t kPeakWrites = 100'000;
constexpr size_t kBacklogWrites = 150'000;
// Outstanding proposals per load thread: 4 x 256 sits on the throughput
// plateau of a window sweep (README.md).
constexpr size_t kWindowPerThread = 256;
// Reads issued after a closed loop, one at a time.
constexpr size_t kProbeReads = 200;
// Latency samples a round reports per kind (every n-th beyond this), for
// run.py to pool over rounds.
constexpr size_t kMaxReportedSamples = 4096;
// DelosTable secondary-index fan-out.
constexpr int kTags = 16;
constexpr char kTable[] = "bench";

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string KeyPath(size_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "/k%04zu", key);
  return buf;
}

// A distinct 100-byte value per write, so a read-back names the write it saw.
std::string ValueFor(uint64_t tag, uint64_t op) {
  std::string value = std::to_string(tag) + ":" + std::to_string(op) + ":";
  value.resize(kValueBytes, static_cast<char>('a' + op % 26));
  return value;
}

// --- sharedlog layer: timing wrapper around the ISharedLog a server is given ---

struct LogStats {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_bytes{0};
  std::atomic<uint64_t> check_tails{0};
  std::atomic<uint64_t> read_records{0};
  std::atomic<int64_t> read_nanos{0};
  std::mutex mu;
  std::vector<int64_t> append_micros;      // traced only
  std::vector<int64_t> check_tail_micros;  // traced only
};

class TimingLog : public ISharedLog {
 public:
  TimingLog(std::shared_ptr<ISharedLog> inner, std::shared_ptr<LogStats> stats, bool timed)
      : inner_(std::move(inner)), stats_(std::move(stats)), timed_(timed) {}

  Future<LogPos> Append(std::string payload) override {
    stats_->appends.fetch_add(1, std::memory_order_relaxed);
    stats_->append_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
    if (!timed_) {
      return inner_->Append(std::move(payload));
    }
    const int64_t start = NowMicros();
    Future<LogPos> result = inner_->Append(std::move(payload));
    // The continuation holds the stats, not this wrapper: it may run on the
    // network thread after the server is gone.
    result.Then([stats = stats_, start](Result<LogPos>) {
      std::lock_guard<std::mutex> lock(stats->mu);
      stats->append_micros.push_back(NowMicros() - start);
    });
    return result;
  }

  Future<LogPos> CheckTail() override {
    stats_->check_tails.fetch_add(1, std::memory_order_relaxed);
    if (!timed_) {
      return inner_->CheckTail();
    }
    const int64_t start = NowMicros();
    Future<LogPos> result = inner_->CheckTail();
    result.Then([stats = stats_, start](Result<LogPos>) {
      std::lock_guard<std::mutex> lock(stats->mu);
      stats->check_tail_micros.push_back(NowMicros() - start);
    });
    return result;
  }

  std::vector<LogRecord> ReadRange(LogPos lo, LogPos hi) override {
    const int64_t start = NowNanos();
    std::vector<LogRecord> records = inner_->ReadRange(lo, hi);
    stats_->read_nanos.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    stats_->read_records.fetch_add(records.size(), std::memory_order_relaxed);
    return records;
  }

  void Trim(LogPos prefix) override { inner_->Trim(prefix); }
  LogPos trim_prefix() const override { return inner_->trim_prefix(); }
  void Seal() override { inner_->Seal(); }

 private:
  std::shared_ptr<ISharedLog> inner_;
  std::shared_ptr<LogStats> stats_;
  bool timed_;
};

// --- apps layer: timing wrapper around the app's applicator ---

class TimingApplicator : public delos::IApplicator {
 public:
  explicit TimingApplicator(delos::IApplicator* inner) : inner_(inner) {}

  std::any Apply(delos::RWTxn& txn, const delos::LogEntry& entry, LogPos pos) override {
    const int64_t start = NowNanos();
    struct Charge {
      TimingApplicator* self;
      int64_t start;
      ~Charge() {
        self->apply_nanos.fetch_add(NowNanos() - start, std::memory_order_relaxed);
        self->apply_ops.fetch_add(1, std::memory_order_relaxed);
      }
    } charge{this, start};
    return inner_->Apply(txn, entry, pos);
  }

  void PostApply(const delos::LogEntry& entry, LogPos pos) override {
    const int64_t start = NowNanos();
    inner_->PostApply(entry, pos);
    postapply_nanos.fetch_add(NowNanos() - start, std::memory_order_relaxed);
    postapply_ops.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> apply_ops{0};
  std::atomic<int64_t> apply_nanos{0};
  std::atomic<uint64_t> postapply_ops{0};
  std::atomic<int64_t> postapply_nanos{0};

 private:
  delos::IApplicator* inner_;
};

// --- engines layer: propose-path stage spans from the program's Tracer ---

class StageRecorder {
 public:
  void Observe(const delos::TraceSpan& span) {
    if (span.name == "batching.queue" || span.name == "sessionorder.seq" ||
        span.name == "base.append") {
      std::lock_guard<std::mutex> lock(mu_);
      durations_[span.name].push_back(span.end_micros - span.start_micros);
    }
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    durations_.clear();
  }
  std::vector<int64_t> Durations(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return durations_[name];
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<int64_t>> durations_;
};

// --- the cluster ---

enum class App { kZelos, kTable };

struct Replica {
  std::shared_ptr<LogStats> log_stats = std::make_shared<LogStats>();
  std::unique_ptr<zelos::ZelosApplicator> zelos_app;
  std::unique_ptr<table::TableApplicator> table_app;
  std::unique_ptr<delos::WorkloadTapApplicator> tap;
  std::unique_ptr<TimingApplicator> timing_app;
  std::unique_ptr<ClusterServer> server;
  std::unique_ptr<zelos::ZelosClient> zelos;
  std::unique_ptr<table::TableClient> table;
};

class Rig {
 public:
  // `traced` times the sharedlog and app layers. `spans` also turns on the
  // program's Tracer for the propose-path stage spans; the closed loops run
  // without it, because it serialises every span of every proposal under one
  // mutex and would measure a different regime (README.md). A non-empty
  // `checkpoint_path` gives replica 2 a durable checkpoint so it can be
  // stopped and restarted (zelos_catchup).
  Rig(App app, bool traced, bool spans, std::string checkpoint_path)
      : app_(app), traced_(traced), checkpoint_path_(std::move(checkpoint_path)) {
    delos::NetworkConfig net;
    net.default_one_way_latency_micros = kOneWayMicros;
    net.jitter_micros = 0;
    net.drop_probability = 0.0;
    network_ = std::make_unique<delos::SimNetwork>(net);
    ensemble_ = std::make_unique<delos::QuorumEnsemble>(network_.get(), loglet_);
    if (traced_ && spans) {
      tracer_ = std::make_unique<delos::Tracer>();
      observer_id_ = tracer_->AddObserver(
          [this](const delos::TraceSpan& span) { stages_.Observe(span); });
    }
    for (int i = 0; i < kReplicas; ++i) {
      Start(i);
    }
  }

  ~Rig() {
    // Servers first (they drain their appends), then the network thread,
    // and only then the ensemble its handlers call into.
    for (auto& replica : replicas_) {
      replica.reset();
    }
    if (tracer_ != nullptr) {
      tracer_->RemoveObserver(observer_id_);
    }
    network_.reset();
    ensemble_.reset();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Replica& at(int i) { return *replicas_[i]; }
  bool running(int i) const { return replicas_[i] != nullptr; }
  bool traced() const { return traced_; }
  delos::SimNetwork& network() { return *network_; }
  StageRecorder& stages() { return stages_; }

  void Stop(int i) { replicas_[i].reset(); }

  void Start(int i) {
    auto replica = std::make_unique<Replica>();
    const std::string id = "server" + std::to_string(i);
    auto client = std::make_shared<delos::QuorumLogletClient>(network_.get(), id, loglet_,
                                                              i % loglet_.num_acceptors);
    auto log = std::make_shared<TimingLog>(client, replica->log_stats, traced_);
    delos::LocalStore::Options store_options;
    if (i == kReplicas - 1) {
      store_options.checkpoint_path = checkpoint_path_;
    }
    delos::BaseEngineOptions base_options;
    base_options.tracer = tracer_.get();
    replica->server = std::make_unique<ClusterServer>(
        id, std::move(log), delos::LocalStore::Open(store_options), base_options);
    delos::IApplicator* app = nullptr;
    const delos::IKeyExtractor* extractor = nullptr;
    if (app_ == App::kZelos) {
      delos::BuildStack(*replica->server, delos::ZelosStackConfig(nullptr));
      replica->zelos_app = std::make_unique<zelos::ZelosApplicator>();
      app = replica->zelos_app.get();
      extractor = zelos::ZelosKeyExtractor::Instance();
    } else {
      delos::BuildStack(*replica->server, delos::DelosTableStackConfig(nullptr));
      replica->table_app = std::make_unique<table::TableApplicator>();
      app = replica->table_app.get();
      extractor = table::TableKeyExtractor::Instance();
    }
    if (traced_) {
      // The same wiring RegisterApplicator builds (the workload apply tap
      // around the app), with the timing wrapper outside the tap, so the tap
      // counts in the app layer and not in the top engine.
      replica->tap = std::make_unique<delos::WorkloadTapApplicator>(
          app, replica->server->workload(), extractor);
      replica->timing_app = std::make_unique<TimingApplicator>(replica->tap.get());
      replica->server->top()->RegisterUpcall(replica->timing_app.get());
    } else {
      replica->server->RegisterApplicator(app, extractor);
    }
    replica->server->Start();
    if (app_ == App::kZelos) {
      replica->zelos =
          std::make_unique<zelos::ZelosClient>(replica->server->top(), replica->zelos_app.get());
      replica->zelos->set_client_id(100 + i);
    } else {
      replica->table = std::make_unique<table::TableClient>(replica->server->top());
      replica->table->set_client_id(100 + i);
    }
    replicas_[i] = std::move(replica);
  }

  // Waits until every running replica has applied the same log prefix.
  void Quiesce() {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      std::vector<LogPos> applied;
      for (int i = 0; i < kReplicas; ++i) {
        if (running(i)) {
          at(i).server->top()->Sync().Get();
          applied.push_back(at(i).server->base()->applied_position());
        }
      }
      if (std::equal(applied.begin() + 1, applied.end(), applied.begin())) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("replicas did not converge on one applied position");
  }

 private:
  App app_;
  bool traced_;
  std::string checkpoint_path_;
  delos::QuorumLogletConfig loglet_;
  std::unique_ptr<delos::SimNetwork> network_;
  std::unique_ptr<delos::QuorumEnsemble> ensemble_;
  std::unique_ptr<delos::Tracer> tracer_;
  uint64_t observer_id_ = 0;
  StageRecorder stages_;
  std::array<std::unique_ptr<Replica>, kReplicas> replicas_;
};

// --- per-layer counters, read before and after the measured phase ---

struct LayerCounters {
  uint64_t appends = 0, append_bytes = 0, check_tails = 0, read_records = 0;
  int64_t read_nanos = 0;
  uint64_t net_messages = 0;
  std::map<std::string, int64_t> profiler;  // inclusive micros per label
  int64_t busy_micros = 0;                  // apply thread, beginTX to settlement
  uint64_t records = 0, batches = 0;
  int64_t read_stall_micros = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t app_ops = 0, app_postapply_ops = 0;
  int64_t app_nanos = 0, app_postapply_nanos = 0;
  std::vector<std::string> engines;  // middle engines, bottom-up
};

LayerCounters ReadCounters(Rig& rig, const std::vector<int>& replicas) {
  LayerCounters c;
  c.net_messages = rig.network().MessageCount();
  for (int i : replicas) {
    if (!rig.running(i)) {
      continue;
    }
    Replica& r = rig.at(i);
    c.appends += r.log_stats->appends.load();
    c.append_bytes += r.log_stats->append_bytes.load();
    c.check_tails += r.log_stats->check_tails.load();
    c.read_records += r.log_stats->read_records.load();
    c.read_nanos += r.log_stats->read_nanos.load();
    for (const auto& [label, micros] : r.server->profiler()->InclusiveMicros()) {
      c.profiler[label] += micros;
    }
    c.busy_micros += r.server->profiler()->TotalBusyMicros();
    c.records += r.server->base()->apply_records();
    c.batches += r.server->base()->apply_batches();
    c.read_stall_micros += r.server->base()->read_stall_micros();
    c.cache_hits += r.server->metrics()->GetCounter("read.cache.hits")->value();
    c.cache_misses += r.server->metrics()->GetCounter("read.cache.misses")->value();
    if (r.timing_app != nullptr) {
      c.app_ops += r.timing_app->apply_ops.load();
      c.app_nanos += r.timing_app->apply_nanos.load();
      c.app_postapply_ops += r.timing_app->postapply_ops.load();
      c.app_postapply_nanos += r.timing_app->postapply_nanos.load();
    }
    c.engines.clear();
    for (auto* engine : r.server->engines()) {
      c.engines.push_back(engine->name());
    }
  }
  return c;
}

void ClearSamples(Rig& rig) {
  for (int i = 0; i < kReplicas; ++i) {
    if (rig.running(i)) {
      std::lock_guard<std::mutex> lock(rig.at(i).log_stats->mu);
      rig.at(i).log_stats->append_micros.clear();
      rig.at(i).log_stats->check_tail_micros.clear();
    }
  }
  rig.stages().Clear();
}

// What the measured phase did, in client operations.
struct PhaseOps {
  double ops = 0;
  double writes = 0;
  double reads = 0;
};

std::map<std::string, double> LayerMetrics(Rig& rig, const std::vector<int>& replicas,
                                           const LayerCounters& before,
                                           const LayerCounters& after, const PhaseOps& phase,
                                           const std::vector<int64_t>& late_micros) {
  std::map<std::string, double> m;
  std::vector<int64_t> append_micros, check_tail_micros;
  for (int i : replicas) {
    if (rig.running(i)) {
      std::lock_guard<std::mutex> lock(rig.at(i).log_stats->mu);
      const LogStats& s = *rig.at(i).log_stats;
      append_micros.insert(append_micros.end(), s.append_micros.begin(), s.append_micros.end());
      check_tail_micros.insert(check_tail_micros.end(), s.check_tail_micros.begin(),
                               s.check_tail_micros.end());
    }
  }
  const double appends = static_cast<double>(after.appends - before.appends);
  const double records = static_cast<double>(after.records - before.records);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double read_records = static_cast<double>(after.read_records - before.read_records);
  m["sharedlog.append_p50_us"] = Percentile(append_micros, 50);
  m["sharedlog.appends_per_write"] = Ratio(appends, phase.writes);
  m["sharedlog.bytes_per_append"] =
      Ratio(static_cast<double>(after.append_bytes - before.append_bytes), appends);
  m["sharedlog.check_tail_p50_us"] = Percentile(check_tail_micros, 50);
  m["sharedlog.reads_per_check_tail"] =
      Ratio(phase.reads, static_cast<double>(after.check_tails - before.check_tails));
  m["sharedlog.read_range_us_per_record"] =
      Ratio(static_cast<double>(after.read_nanos - before.read_nanos) / 1000.0, read_records);
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
  m["readcache.hit_ratio"] = Ratio(hits, hits + misses);
  m["net.messages_per_op"] =
      Ratio(static_cast<double>(after.net_messages - before.net_messages), phase.ops);

  const auto delta = [&](const std::string& label) {
    const auto a = after.profiler.find(label);
    const auto b = before.profiler.find(label);
    return static_cast<double>((a == after.profiler.end() ? 0 : a->second) -
                               (b == before.profiler.end() ? 0 : b->second));
  };
  // Inclusive apply / postApply time per layer, bottom-up: base, each middle
  // engine, then the app. A layer's own time is its inclusive time minus the
  // inclusive time of the layer above it. The base's inclusive apply time is
  // the apply thread's whole busy time (beginTX to promise settlement) less
  // the transaction and postApply, so its own share covers the per-record
  // parse, savepoint, cursor put, publish and settlement.
  const double txn = delta("base.beginTX") + delta("base.commitTX");
  const double busy = static_cast<double>(after.busy_micros - before.busy_micros);
  std::vector<std::string> layers = {"base"};
  std::vector<double> apply_incl = {busy - txn - delta("postApply")};
  std::vector<double> post_incl = {delta("postApply")};
  for (const std::string& engine : after.engines) {
    layers.push_back(engine);
    apply_incl.push_back(delta(engine + ".apply"));
    post_incl.push_back(delta(engine + ".postApply"));
  }
  const double app_apply = static_cast<double>(after.app_nanos - before.app_nanos) / 1000.0;
  const double app_post =
      static_cast<double>(after.app_postapply_nanos - before.app_postapply_nanos) / 1000.0;
  apply_incl.push_back(app_apply);
  post_incl.push_back(app_post);
  std::map<std::string, std::pair<double, double>> own;  // layer -> (apply, postApply)
  for (size_t i = 0; i < layers.size(); ++i) {
    own[layers[i]] = {apply_incl[i] - apply_incl[i + 1], post_incl[i] - post_incl[i + 1]};
  }
  m["base.apply_us_per_record"] = Ratio(own["base"].first, records);
  m["base.postapply_us_per_record"] = Ratio(own["base"].second, records);
  m["base.records_per_batch"] = Ratio(records, batches);
  m["base.txn_us_per_batch"] = Ratio(txn, batches);
  m["base.read_stall_us_per_record"] =
      Ratio(static_cast<double>(after.read_stall_micros - before.read_stall_micros), records);
  for (const char* engine : {"digest", "braindoctor", "viewtracking", "sessionorder", "batching"}) {
    const auto it = own.find(engine);
    const std::pair<double, double> t = it == own.end() ? std::pair<double, double>{0, 0}
                                                        : it->second;
    m[std::string("engine.") + engine + ".apply_us_per_record"] = Ratio(t.first, records);
    m[std::string("engine.") + engine + ".postapply_us_per_record"] = Ratio(t.second, records);
  }
  m["stage.batching.queue_p50_us"] = Percentile(rig.stages().Durations("batching.queue"), 50);
  m["stage.sessionorder.seq_p50_us"] = Percentile(rig.stages().Durations("sessionorder.seq"), 50);
  m["stage.base.append_p50_us"] = Percentile(rig.stages().Durations("base.append"), 50);
  m["app.apply_us_per_op"] =
      Ratio(app_apply, static_cast<double>(after.app_ops - before.app_ops));
  m["app.postapply_us_per_op"] =
      Ratio(app_post, static_cast<double>(after.app_postapply_ops - before.app_postapply_ops));
  m["loadgen.late_p99_us"] = Percentile(late_micros, 99);
  return m;
}

// --- one round's result ---

struct RoundResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> op_errors;
  Violations violations;
  double setup_s = 0;
  std::vector<int64_t> write_micros;
  std::vector<int64_t> read_micros;
  double ops_per_s = 0;
  double log_bytes_per_write = 0;
  std::map<std::string, double> layers;

  void Fail(const std::string& what) {
    ++failed;
    if (op_errors.size() < kMaxViolations) {
      op_errors.push_back(what);
    }
  }
};

std::vector<int> AllReplicas() { return {0, 1, 2}; }

uint64_t TotalAppendBytes(Rig& rig) {
  uint64_t bytes = 0;
  for (int i = 0; i < kReplicas; ++i) {
    if (rig.running(i)) {
      bytes += rig.at(i).log_stats->append_bytes.load();
    }
  }
  return bytes;
}

// --- Zelos ---

// Creates the znodes. Every replica proposes a share of the preload, so no
// replica sits idle outside the ViewTracking view while the others write:
// a replica that has never proposed can have the log trimmed past it.
void PreloadZelos(Rig& rig) {
  const zelos::SessionId session = rig.at(0).zelos->CreateSession();
  for (size_t chunk = 0; chunk * kPreloadChunk < kKeys; ++chunk) {
    std::vector<zelos::ZelosClient::Op> ops;
    for (size_t key = chunk * kPreloadChunk; key < std::min(kKeys, (chunk + 1) * kPreloadChunk);
         ++key) {
      zelos::ZelosClient::Op op{zelos::ZelosClient::Op::Kind::kCreate, KeyPath(key),
                                ValueFor(0, key)};
      op.session = session;
      ops.push_back(std::move(op));
    }
    rig.at(static_cast<int>(chunk % kReplicas)).zelos->Multi(ops);
  }
}

// Every key's (data, version) as one replica's synced snapshot holds it.
std::vector<KeyState> ReadZelosState(Replica& replica) {
  delos::ROTxn snapshot = replica.server->top()->Sync().Get();
  std::vector<KeyState> state(kKeys);
  for (size_t key = 0; key < kKeys; ++key) {
    const auto bytes = snapshot.Get(zelos::ZelosApplicator::NodeKey(KeyPath(key)));
    if (bytes.has_value()) {
      const auto record = zelos::ZelosApplicator::NodeRecord::Decode(*bytes);
      state[key] = KeyState{true, record.data, record.stat.version};
    }
  }
  return state;
}

// The generator's model of the znodes: each key's base version, the versions
// its writes returned, and the data of the highest one.
struct ZelosModel {
  std::vector<int64_t> base;
  std::vector<std::vector<int64_t>> returned = std::vector<std::vector<int64_t>>(kKeys);
  std::vector<int64_t> writes = std::vector<int64_t>(kKeys, 0);
  std::vector<KeyState> expected;

  explicit ZelosModel(const std::vector<KeyState>& initial) : expected(initial) {
    for (const KeyState& s : initial) {
      base.push_back(s.version);
    }
  }
  void Acked(size_t key, int64_t version, const std::string& data) {
    returned[key].push_back(version);
    if (version > expected[key].version) {
      expected[key].version = version;
      expected[key].data = data;
    }
  }
};

void CheckZelosFinal(Rig& rig, const ZelosModel& model, RoundResult& out) {
  out.violations.Merge(CheckVersionRuns(model.base, model.returned, model.writes));
  std::vector<std::vector<KeyState>> replicas;
  for (int i = 0; i < kReplicas; ++i) {
    replicas.push_back(ReadZelosState(rig.at(i)));
  }
  out.violations.Merge(CheckReplicaStates(model.expected, replicas));
}

// --- load loops ---

struct OpenOp {
  int64_t due_micros = 0;  // offset from the start of the loop
  int kind = 0;            // workload-defined
  size_t key = 0;
  int replica = 0;
  int arg = 0;
};

struct OpenLoopTimes {
  std::vector<int64_t> latency_micros;  // from the due time; -1 when the op failed
  std::vector<int64_t> late_micros;     // due time to the start of the call
  double elapsed_s = 0;
  uint64_t completed = 0;
};

// Issues `ops` on their schedule whatever the cluster does (an open loop):
// the next idle load thread takes each op when it falls due. An op that
// finds every thread busy starts late, and that lateness counts in its
// latency.
OpenLoopTimes RunOpenLoop(const std::vector<OpenOp>& ops,
                          const std::function<void(size_t worker, size_t index)>& execute,
                          RoundResult& out) {
  OpenLoopTimes t;
  t.latency_micros.assign(ops.size(), -1);
  t.late_micros.assign(ops.size(), 0);
  std::mutex fail_mu;
  delos::BlockingQueue<size_t> queue;
  const int64_t start = NowMicros() + 1000;
  std::atomic<int64_t> last_done{start};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kLoadThreads; ++w) {
    workers.emplace_back([&, w] {
      while (auto index = queue.Pop()) {
        const int64_t due = start + ops[*index].due_micros;
        t.late_micros[*index] = NowMicros() - due;
        try {
          execute(w, *index);
          const int64_t done = NowMicros();
          t.latency_micros[*index] = done - due;
          completed.fetch_add(1);
          int64_t prev = last_done.load();
          while (done > prev && !last_done.compare_exchange_weak(prev, done)) {
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(fail_mu);
          out.Fail(e.what());
        }
      }
    });
  }
  const auto epoch = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(start - NowMicros());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::this_thread::sleep_until(epoch + std::chrono::microseconds(ops[i].due_micros));
    queue.Push(i);
  }
  queue.Close();
  for (auto& worker : workers) {
    worker.join();
  }
  t.completed = completed.load();
  t.elapsed_s = static_cast<double>(last_done.load() - start) / 1e6;
  return t;
}

std::vector<OpenOp> MakeSchedule(std::mt19937_64& rng, int kinds) {
  std::vector<OpenOp> ops(kLightOps);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].due_micros = static_cast<int64_t>(static_cast<double>(i) * 1e6 / kLightRatePerSec);
    ops[i].kind = static_cast<int>(rng() % kinds);
    ops[i].key = rng() % kKeys;
    ops[i].replica = static_cast<int>(rng() % kReplicas);
    ops[i].arg = static_cast<int>(rng() % kTags);
  }
  return ops;
}

// Many proposals outstanding per load thread, each a ZelosClient-encoded
// SetData proposed straight to the top engine (ZelosClient itself blocks, so
// four threads of it could not load the cluster past its knee).
std::vector<int64_t> RunClosedLoopWrites(Rig& rig, const std::vector<int>& replicas,
                                         const std::vector<size_t>& keys, uint64_t tag,
                                         ZelosModel& model, RoundResult& out) {
  struct Window {
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
  };
  std::array<Window, kLoadThreads> windows;
  std::vector<int64_t> versions(keys.size(), -1);
  std::vector<int64_t> issued(keys.size(), 0);
  std::vector<int64_t> latency(keys.size(), -1);
  std::vector<std::string> errors(keys.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      Window& window = windows[t];
      for (size_t i = t; i < keys.size(); i += kLoadThreads) {
        {
          std::unique_lock<std::mutex> lock(window.mu);
          window.cv.wait(lock, [&] { return window.outstanding < kWindowPerThread; });
          ++window.outstanding;
        }
        delos::OpWriter op(zelos::ZelosClient::kSetData);
        op.args().WriteString(KeyPath(keys[i]));
        op.args().WriteString(ValueFor(tag, i));
        op.args().WriteSigned(-1);
        delos::LogEntry entry = std::move(op).ToEntry();
        delos::SetClientIds(&entry, {200 + t});
        issued[i] = NowMicros();
        const int replica = replicas[i % replicas.size()];
        rig.at(replica).server->top()->Propose(std::move(entry)).Then(
            [&, i](Result<std::any> result) {
              if (result.ok()) {
                versions[i] = std::any_cast<int64_t>(result.value());
                latency[i] = NowMicros() - issued[i];
              } else {
                try {
                  std::rethrow_exception(result.error());
                } catch (const std::exception& e) {
                  errors[i] = e.what();
                }
              }
              std::lock_guard<std::mutex> lock(window.mu);
              --window.outstanding;
              window.cv.notify_all();
            });
      }
      std::unique_lock<std::mutex> lock(window.mu);
      window.cv.wait(lock, [&] { return window.outstanding == 0; });
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::vector<int64_t> acked_latency;
  for (size_t i = 0; i < keys.size(); ++i) {
    ++model.writes[keys[i]];
    if (versions[i] >= 0) {
      model.Acked(keys[i], versions[i], ValueFor(tag, i));
      acked_latency.push_back(latency[i]);
    } else {
      out.Fail(errors[i]);
    }
  }
  out.attempted += keys.size();
  return acked_latency;
}

// Reads after the load has stopped: each must return exactly the model's
// final state.
void ProbeReads(Rig& rig, std::mt19937_64& rng, const ZelosModel& model, RoundResult& out) {
  for (size_t n = 0; n < kProbeReads; ++n) {
    const size_t key = rng() % kKeys;
    const int replica = static_cast<int>(rng() % kReplicas);
    ++out.attempted;
    try {
      const int64_t start = NowMicros();
      const auto got = rig.at(replica).zelos->GetData(KeyPath(key));
      out.read_micros.push_back(NowMicros() - start);
      const KeyState& want = model.expected[key];
      if (!got.has_value() || got->first != want.data || got->second.version != want.version) {
        out.violations.Add("probe read of key " + std::to_string(key) + " on replica " +
                           std::to_string(replica) + " does not return the last write");
      }
    } catch (const std::exception& e) {
      out.Fail(e.what());
    }
  }
}

// --- workloads ---

struct RoundInput {
  std::mt19937_64 rng;
  uint64_t tag = 0;  // distinguishes this round's written values
  bool traced = false;
  std::string workdir;
};

RoundResult ZelosLight(RoundInput& in) {
  RoundResult out;
  const int64_t setup_start = NowMicros();
  Rig rig(App::kZelos, in.traced, in.traced, "");
  PreloadZelos(rig);
  rig.Quiesce();
  out.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

  ZelosModel model(ReadZelosState(rig.at(0)));
  const std::vector<OpenOp> ops = MakeSchedule(in.rng, 2);  // kind 0 SetData, 1 GetData
  std::vector<int64_t> acked(kKeys);  // highest version acknowledged per key
  std::vector<std::mutex> key_locks(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    acked[i] = model.base[i];
  }
  std::array<std::vector<ReadObservation>, kLoadThreads> observations;
  std::array<std::vector<std::pair<size_t, int64_t>>, kLoadThreads> returned;  // (op, version)
  for (const OpenOp& op : ops) {
    model.writes[op.key] += op.kind == 0 ? 1 : 0;
  }

  const LayerCounters before = ReadCounters(rig, AllReplicas());
  const uint64_t bytes_before = TotalAppendBytes(rig);
  ClearSamples(rig);
  const OpenLoopTimes times = RunOpenLoop(
      ops,
      [&](size_t worker, size_t i) {
        const OpenOp& op = ops[i];
        zelos::ZelosClient& client = *rig.at(op.replica).zelos;
        if (op.kind == 0) {
          const int64_t version = client.SetData(KeyPath(op.key), ValueFor(in.tag, i));
          returned[worker].emplace_back(i, version);
          std::lock_guard<std::mutex> lock(key_locks[op.key]);
          acked[op.key] = std::max(acked[op.key], version);
        } else {
          int64_t floor = 0;
          {
            std::lock_guard<std::mutex> lock(key_locks[op.key]);
            floor = acked[op.key];
          }
          const auto got = client.GetData(KeyPath(op.key));
          observations[worker].push_back(
              {op.key, floor, got.has_value() ? got->second.version : -1});
        }
      },
      out);
  const LayerCounters after = ReadCounters(rig, AllReplicas());
  const uint64_t writes = static_cast<uint64_t>(
      std::count_if(ops.begin(), ops.end(), [](const OpenOp& op) { return op.kind == 0; }));
  out.attempted += ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (times.latency_micros[i] >= 0) {
      (ops[i].kind == 0 ? out.write_micros : out.read_micros).push_back(times.latency_micros[i]);
    }
  }
  out.ops_per_s = Ratio(static_cast<double>(times.completed), times.elapsed_s);
  out.log_bytes_per_write =
      Ratio(static_cast<double>(TotalAppendBytes(rig) - bytes_before), static_cast<double>(writes));
  if (rig.traced()) {
    out.layers = LayerMetrics(rig, AllReplicas(), before, after,
                              {static_cast<double>(ops.size()), static_cast<double>(writes),
                               static_cast<double>(ops.size() - writes)},
                              times.late_micros);
  }

  for (const auto& per_worker : returned) {
    for (const auto& [i, version] : per_worker) {
      model.Acked(ops[i].key, version, ValueFor(in.tag, i));
    }
  }
  std::vector<ReadObservation> reads;
  for (const auto& per_worker : observations) {
    reads.insert(reads.end(), per_worker.begin(), per_worker.end());
  }
  out.violations.Merge(CheckReadsSeeAckedWrites(reads));
  rig.Quiesce();
  CheckZelosFinal(rig, model, out);
  return out;
}

RoundResult ZelosPeak(RoundInput& in) {
  RoundResult out;
  const int64_t setup_start = NowMicros();
  Rig rig(App::kZelos, in.traced, false, "");
  PreloadZelos(rig);
  rig.Quiesce();
  out.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

  ZelosModel model(ReadZelosState(rig.at(0)));
  std::vector<size_t> keys(kPeakWrites);
  for (size_t& key : keys) {
    key = in.rng() % kKeys;
  }
  const LayerCounters before = ReadCounters(rig, AllReplicas());
  const uint64_t bytes_before = TotalAppendBytes(rig);
  ClearSamples(rig);
  const int64_t start = NowMicros();
  out.write_micros = RunClosedLoopWrites(rig, AllReplicas(), keys, in.tag, model, out);
  const double elapsed_s = static_cast<double>(NowMicros() - start) / 1e6;
  const LayerCounters after = ReadCounters(rig, AllReplicas());
  const double acked = static_cast<double>(out.write_micros.size());
  out.ops_per_s = Ratio(acked, elapsed_s);
  out.log_bytes_per_write =
      Ratio(static_cast<double>(TotalAppendBytes(rig) - bytes_before), acked);
  if (rig.traced()) {
    out.layers = LayerMetrics(rig, AllReplicas(), before, after, {acked, acked, 0}, {});
  }
  rig.Quiesce();
  CheckZelosFinal(rig, model, out);
  ProbeReads(rig, in.rng, model, out);
  return out;
}

RoundResult ZelosCatchup(RoundInput& in) {
  RoundResult out;
  const std::string checkpoint =
      in.workdir + "/catchup-" + std::to_string(::getpid()) + ".ckpt";
  std::filesystem::remove(checkpoint);
  const int64_t setup_start = NowMicros();
  {
    Rig rig(App::kZelos, in.traced, false, checkpoint);
    PreloadZelos(rig);
    rig.Quiesce();
    out.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

    // Replica 2 has proposed (its share of the preload), so it stays in the
    // view and holds trim back while it is down: its restart replays only a
    // log no replica may have trimmed.
    ZelosModel model(ReadZelosState(rig.at(0)));
    rig.at(2).server->base()->FlushNow();
    rig.Stop(2);

    std::vector<size_t> keys(kBacklogWrites);
    for (size_t& key : keys) {
      key = in.rng() % kKeys;
    }
    const uint64_t bytes_before = TotalAppendBytes(rig);
    out.write_micros = RunClosedLoopWrites(rig, {0, 1}, keys, in.tag, model, out);
    out.log_bytes_per_write = Ratio(static_cast<double>(TotalAppendBytes(rig) - bytes_before),
                                    static_cast<double>(out.write_micros.size()));
    rig.Quiesce();

    const LayerCounters before = ReadCounters(rig, {2});
    ClearSamples(rig);
    const int64_t start = NowMicros();
    rig.Start(2);
    rig.at(2).server->top()->Sync().Get();
    const double elapsed_s = static_cast<double>(NowMicros() - start) / 1e6;
    const LayerCounters after = ReadCounters(rig, {2});
    const double backlog = static_cast<double>(out.write_micros.size());
    out.ops_per_s = Ratio(backlog, elapsed_s);
    if (rig.traced()) {
      out.layers = LayerMetrics(rig, {2}, before, after, {backlog, 0, 1}, {});
    }

    rig.Quiesce();
    std::vector<uint64_t> checksums;
    for (int i = 0; i < kReplicas; ++i) {
      checksums.push_back(rig.at(i).server->store()->Checksum());
    }
    out.violations.Merge(CheckChecksums(checksums));
    CheckZelosFinal(rig, model, out);
    ProbeReads(rig, in.rng, model, out);
  }
  std::filesystem::remove(checkpoint);
  return out;
}

table::Row MakeRow(size_t key, const RowModel& row) {
  return table::Row{{"id", delos::table::Value(static_cast<int64_t>(key))},
                    {"val", delos::table::Value(row.val)},
                    {"tag", delos::table::Value(row.tag)}};
}

RowModel ModelOf(const table::Row& row) {
  return RowModel{std::get<std::string>(row.at("val")), std::get<std::string>(row.at("tag"))};
}

std::string TagName(int tag) { return "t" + std::to_string(tag); }

RoundResult TableLight(RoundInput& in) {
  RoundResult out;
  const int64_t setup_start = NowMicros();
  Rig rig(App::kTable, in.traced, in.traced, "");
  // Every replica proposes a share of the preload (see PreloadZelos).
  std::vector<RowModel> model(kKeys);
  rig.at(0).table->CreateTable(table::TableSchema{
      kTable,
      {{"id", delos::table::ValueType::kInt64},
       {"val", delos::table::ValueType::kString},
       {"tag", delos::table::ValueType::kString}},
      "id",
      {"tag"}});
  for (size_t chunk = 0; chunk * kPreloadChunk < kKeys; ++chunk) {
    std::vector<table::TableClient::BatchOp> batch;
    for (size_t key = chunk * kPreloadChunk; key < std::min(kKeys, (chunk + 1) * kPreloadChunk);
         ++key) {
      model[key] = RowModel{ValueFor(0, key), TagName(static_cast<int>(key % kTags))};
      batch.push_back({table::TableClient::BatchOp::Kind::kUpsert, kTable, MakeRow(key, model[key]),
                       delos::table::Value()});
    }
    rig.at(static_cast<int>(chunk % kReplicas)).table->ApplyBatch(batch);
  }
  rig.Quiesce();
  out.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

  // kinds 0-3 Upsert, 4-6 Get, 7 IndexLookup.
  const std::vector<OpenOp> ops = MakeSchedule(in.rng, 8);
  const auto is_write = [](const OpenOp& op) { return op.kind < 4; };
  // One load thread at a time writes or reads a row, so the generator knows
  // every row's last value.
  std::vector<std::mutex> key_locks(kKeys);
  const LayerCounters before = ReadCounters(rig, AllReplicas());
  const uint64_t bytes_before = TotalAppendBytes(rig);
  ClearSamples(rig);
  std::mutex violations_mu;
  const OpenLoopTimes times = RunOpenLoop(
      ops,
      [&](size_t worker, size_t i) {
        const OpenOp& op = ops[i];
        table::TableClient& client = *rig.at(op.replica).table;
        if (is_write(op)) {
          const RowModel row{ValueFor(in.tag, i), TagName(op.arg)};
          std::lock_guard<std::mutex> lock(key_locks[op.key]);
          client.Upsert(kTable, MakeRow(op.key, row));
          model[op.key] = row;
        } else if (op.kind < 7) {
          // Upserts and Gets of one key hold its lock, so the row must be
          // exactly its last acknowledged upsert.
          std::lock_guard<std::mutex> lock(key_locks[op.key]);
          const auto got = client.Get(kTable, delos::table::Value(static_cast<int64_t>(op.key)));
          if (!got.has_value() || !(ModelOf(*got) == model[op.key])) {
            std::lock_guard<std::mutex> lock(violations_mu);
            out.violations.Add("get of row " + std::to_string(op.key) +
                               " does not return its last acknowledged upsert");
          }
        } else {
          client.IndexLookup(kTable, "tag", delos::table::Value(TagName(op.arg)));
        }
      },
      out);
  const LayerCounters after = ReadCounters(rig, AllReplicas());
  const uint64_t writes = static_cast<uint64_t>(std::count_if(ops.begin(), ops.end(), is_write));
  out.attempted += ops.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (times.latency_micros[i] >= 0) {
      (is_write(ops[i]) ? out.write_micros : out.read_micros).push_back(times.latency_micros[i]);
    }
  }
  out.ops_per_s = Ratio(static_cast<double>(times.completed), times.elapsed_s);
  out.log_bytes_per_write =
      Ratio(static_cast<double>(TotalAppendBytes(rig) - bytes_before), static_cast<double>(writes));
  if (rig.traced()) {
    out.layers = LayerMetrics(rig, AllReplicas(), before, after,
                              {static_cast<double>(ops.size()), static_cast<double>(writes),
                               static_cast<double>(ops.size() - writes)},
                              times.late_micros);
  }

  // After the load: every replica's rows and every tag's index lookup must
  // match the model.
  rig.Quiesce();
  for (int r = 0; r < kReplicas; ++r) {
    table::TableClient& client = *rig.at(r).table;
    std::vector<std::optional<RowModel>> rows(kKeys);
    for (const table::Row& row : client.Scan(kTable, std::nullopt, std::nullopt)) {
      const int64_t id = std::get<int64_t>(row.at("id"));
      if (id >= 0 && static_cast<size_t>(id) < kKeys) {
        rows[id] = ModelOf(row);
      } else {
        out.violations.Add("unexpected row " + std::to_string(id));
      }
    }
    out.violations.Merge(CheckTableGets(model, rows));
    for (int tag = 0; tag < kTags; ++tag) {
      std::vector<int64_t> ids;
      for (const table::Row& row :
           client.IndexLookup(kTable, "tag", delos::table::Value(TagName(tag)))) {
        ids.push_back(std::get<int64_t>(row.at("id")));
      }
      out.violations.Merge(CheckIndexLookup(model, TagName(tag), ids));
    }
  }
  return out;
}

// --- output ---

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A JSON list of the samples in issue order, every n-th one where there are
// more than kMaxReportedSamples.
std::string SampleList(const std::vector<int64_t>& samples) {
  const size_t step = (samples.size() + kMaxReportedSamples - 1) / kMaxReportedSamples;
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); i += step) {
    out += (i > 0 ? ", " : "") + std::to_string(samples[i]);
  }
  return out + "]";
}

void PrintResult(const RoundResult& r, bool traced) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::map<std::string, double> m = {
      {"setup_s", r.setup_s},
      {"ops_per_s", r.ops_per_s},
      {"log_bytes_per_write", r.log_bytes_per_write},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0},
  };
  std::string json = "{\"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"violations\": " + std::to_string(r.violations.count()) +
                     ", \"traced\": " + (traced ? "true" : "false") + ", \"messages\": [";
  std::vector<std::string> messages = r.violations.messages();
  messages.insert(messages.end(), r.op_errors.begin(), r.op_errors.end());
  for (size_t i = 0; i < messages.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonString(messages[i]);
  }
  json += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    json += (first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}, \"layers\": {";
  first = true;
  for (const auto& [name, value] : r.layers) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    json += (first ? "" : ", ") + JsonString(name) + ": " + buf;
    first = false;
  }
  json += "}, \"samples\": {\"write\": " + SampleList(r.write_micros) +
          ", \"read\": " + SampleList(r.read_micros) + "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  const std::map<std::string, RoundResult (*)(RoundInput&)> workloads = {
      {"zelos_light", ZelosLight},
      {"zelos_peak", ZelosPeak},
      {"zelos_catchup", ZelosCatchup},
      {"table_light", TableLight},
  };
  const auto workload = workloads.find(args["workload"]);
  if (workload == workloads.end() || args.count("seed") == 0 || args.count("round") == 0 ||
      args.count("workdir") == 0) {
    std::fprintf(stderr,
                 "usage: delos_perf --workload <zelos_light|zelos_peak|zelos_catchup|table_light>"
                 " --seed <n> --round <n> --workdir <dir> [--trace 0|1]\n");
    return 2;
  }
  const uint64_t seed = std::stoull(args["seed"]);
  const uint64_t round = std::stoull(args["round"]);
  RoundInput in;
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(round)};
  in.rng.seed(seq);
  in.tag = seed * 100'000 + round + 1;
  in.traced = args["trace"] == "1";
  in.workdir = args["workdir"];
  try {
    const RoundResult result = workload->second(in);
    PrintResult(result, in.traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "round failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
