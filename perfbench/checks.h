// Output checks for the benchmark workloads.
//
// Every check compares what the cluster returned against the load
// generator's own model of what it sent — never against saved output of an
// earlier run. Each returns the list of violations found (empty = correct),
// capped so a systematic fault does not flood the report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMaxViolations = 8;

class Violations {
 public:
  void Add(std::string message) {
    ++count_;
    if (messages_.size() < kMaxViolations) {
      messages_.push_back(std::move(message));
    }
  }
  bool ok() const { return count_ == 0; }
  size_t count() const { return count_; }
  const std::vector<std::string>& messages() const { return messages_; }
  void Merge(const Violations& other) {
    for (const std::string& m : other.messages_) {
      Add(m);
    }
    count_ += other.count_ - other.messages_.size();
  }

 private:
  size_t count_ = 0;
  std::vector<std::string> messages_;
};

// One znode's (or row's) state as read back from a replica.
struct KeyState {
  bool present = false;
  std::string data;
  int64_t version = 0;
};

// For each key, the versions the writes returned must be exactly
// {base+1, ..., base+n}, n being the generator's own count of writes to it.
inline Violations CheckVersionRuns(const std::vector<int64_t>& base_versions,
                                   const std::vector<std::vector<int64_t>>& returned,
                                   const std::vector<int64_t>& write_counts) {
  Violations v;
  for (size_t key = 0; key < base_versions.size(); ++key) {
    std::vector<int64_t> got = returned[key];
    std::sort(got.begin(), got.end());
    bool exact = static_cast<int64_t>(got.size()) == write_counts[key];
    for (size_t i = 0; exact && i < got.size(); ++i) {
      exact = got[i] == base_versions[key] + static_cast<int64_t>(i) + 1;
    }
    if (!exact) {
      v.Add("key " + std::to_string(key) + ": " + std::to_string(got.size()) +
            " writes returned versions not equal to " + std::to_string(base_versions[key] + 1) +
            ".." + std::to_string(base_versions[key] + write_counts[key]));
    }
  }
  return v;
}

// A read issued after a write was acknowledged must see at least that
// write's version.
struct ReadObservation {
  size_t key = 0;
  int64_t acked_before_issue = 0;
  int64_t observed = 0;
};

inline Violations CheckReadsSeeAckedWrites(const std::vector<ReadObservation>& reads) {
  Violations v;
  for (const ReadObservation& r : reads) {
    if (r.observed < r.acked_before_issue) {
      v.Add("key " + std::to_string(r.key) + ": read saw version " + std::to_string(r.observed) +
            " after version " + std::to_string(r.acked_before_issue) + " was acknowledged");
    }
  }
  return v;
}

// Every replica must hold exactly the expected data and version for every
// key.
inline Violations CheckReplicaStates(const std::vector<KeyState>& expected,
                                     const std::vector<std::vector<KeyState>>& replicas) {
  Violations v;
  for (size_t r = 0; r < replicas.size(); ++r) {
    for (size_t key = 0; key < expected.size(); ++key) {
      const KeyState& want = expected[key];
      const KeyState& got = replicas[r][key];
      if (got.present != want.present || got.data != want.data || got.version != want.version) {
        v.Add("replica " + std::to_string(r) + " key " + std::to_string(key) + ": version " +
              std::to_string(got.version) + (got.data == want.data ? "" : " (data differs)") +
              ", expected version " + std::to_string(want.version));
      }
    }
  }
  return v;
}

// Replicas that applied the same log prefix must agree on the store
// checksum.
inline Violations CheckChecksums(const std::vector<uint64_t>& checksums) {
  Violations v;
  for (size_t r = 1; r < checksums.size(); ++r) {
    if (checksums[r] != checksums[0]) {
      v.Add("replica " + std::to_string(r) + " checksum " + std::to_string(checksums[r]) +
            " != replica 0 checksum " + std::to_string(checksums[0]));
    }
  }
  return v;
}

// DelosTable: the generator's model of one row (its last upserted value and
// secondary-index tag).
struct RowModel {
  std::string val;
  std::string tag;
  bool operator==(const RowModel& other) const = default;
};

// Every Get after load stops must return the row's last written value.
inline Violations CheckTableGets(const std::vector<RowModel>& model,
                                 const std::vector<std::optional<RowModel>>& observed) {
  Violations v;
  for (size_t key = 0; key < model.size(); ++key) {
    if (!observed[key].has_value()) {
      v.Add("row " + std::to_string(key) + ": missing");
    } else if (!(*observed[key] == model[key])) {
      v.Add("row " + std::to_string(key) + ": value or tag differs from the last upsert");
    }
  }
  return v;
}

// An IndexLookup on `tag` must return exactly the rows the model puts under
// that tag.
inline Violations CheckIndexLookup(const std::vector<RowModel>& model, const std::string& tag,
                                   const std::vector<int64_t>& returned_keys) {
  Violations v;
  std::set<int64_t> want;
  for (size_t key = 0; key < model.size(); ++key) {
    if (model[key].tag == tag) {
      want.insert(static_cast<int64_t>(key));
    }
  }
  const std::set<int64_t> got(returned_keys.begin(), returned_keys.end());
  if (got != want || got.size() != returned_keys.size()) {
    v.Add("tag " + tag + ": lookup returned " + std::to_string(returned_keys.size()) +
          " rows, model has " + std::to_string(want.size()));
  }
  return v;
}

}  // namespace perfbench
