// Tests for the benchmark's per-round statistics and output checks: the
// percentile math against hand-computed samples, and each check catching a
// planted wrong version, value or checksum while passing the right one.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/stats.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using namespace perfbench;

void TestPercentile() {
  // Nearest rank: the smallest sample with at least q% at or below it.
  const std::vector<int64_t> ten = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  EXPECT(Percentile(ten, 50) == 5);   // rank ceil(5) = 5 -> 5
  EXPECT(Percentile(ten, 90) == 9);   // rank 9
  EXPECT(Percentile(ten, 99) == 10);  // rank ceil(9.9) = 10
  EXPECT(Percentile(ten, 100) == 10);
  EXPECT(Percentile(ten, 1) == 1);    // rank ceil(0.1) = 1
  const std::vector<int64_t> three = {30, 10, 20};
  EXPECT(Percentile(three, 50) == 20);  // rank ceil(1.5) = 2
  EXPECT(Percentile({42}, 99) == 42);
  EXPECT(Percentile({}, 50) == 0);
  std::vector<int64_t> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  EXPECT(Percentile(hundred, 99) == 99);
  EXPECT(Percentile(hundred, 50) == 50);
  EXPECT(Ratio(3, 0) == 0);
  EXPECT(Ratio(3, 2) == 1.5);
}

void TestVersionRuns() {
  const std::vector<int64_t> base = {0, 5};
  const std::vector<int64_t> counts = {3, 1};
  EXPECT(CheckVersionRuns(base, {{2, 1, 3}, {6}}, counts).ok());
  // A planted wrong version: a duplicate where 3 should be.
  EXPECT(!CheckVersionRuns(base, {{1, 2, 2}, {6}}, counts).ok());
  // A version off the base.
  EXPECT(!CheckVersionRuns(base, {{1, 2, 3}, {7}}, counts).ok());
  // One write never reported.
  EXPECT(CheckVersionRuns(base, {{1, 2}, {6}}, counts).count() == 1);
}

void TestReadsSeeAckedWrites() {
  EXPECT(CheckReadsSeeAckedWrites({{0, 3, 3}, {1, 3, 4}}).ok());
  EXPECT(!CheckReadsSeeAckedWrites({{0, 3, 2}}).ok());
}

void TestReplicaStates() {
  const std::vector<KeyState> expected = {{true, "a", 1}, {true, "b", 2}};
  EXPECT(CheckReplicaStates(expected, {expected, expected, expected}).ok());
  std::vector<KeyState> wrong_version = expected;
  wrong_version[1].version = 1;
  EXPECT(CheckReplicaStates(expected, {expected, wrong_version, expected}).count() == 1);
  std::vector<KeyState> wrong_value = expected;
  wrong_value[0].data = "z";
  EXPECT(!CheckReplicaStates(expected, {expected, expected, wrong_value}).ok());
  std::vector<KeyState> missing = expected;
  missing[0].present = false;
  EXPECT(!CheckReplicaStates(expected, {missing, expected, expected}).ok());
}

void TestChecksums() {
  EXPECT(CheckChecksums({7, 7, 7}).ok());
  EXPECT(!CheckChecksums({7, 7, 8}).ok());
}

void TestTable() {
  const std::vector<RowModel> model = {{"v0", "t0"}, {"v1", "t1"}, {"v2", "t0"}};
  std::vector<std::optional<RowModel>> rows(model.begin(), model.end());
  EXPECT(CheckTableGets(model, rows).ok());
  rows[1] = RowModel{"stale", "t1"};
  EXPECT(!CheckTableGets(model, rows).ok());
  rows[1].reset();
  EXPECT(!CheckTableGets(model, rows).ok());

  EXPECT(CheckIndexLookup(model, "t0", {2, 0}).ok());
  EXPECT(!CheckIndexLookup(model, "t0", {0}).ok());        // a row missing
  EXPECT(!CheckIndexLookup(model, "t0", {0, 1, 2}).ok());  // a row under the wrong tag
  EXPECT(!CheckIndexLookup(model, "t0", {0, 0, 2}).ok());  // a row returned twice
  EXPECT(CheckIndexLookup(model, "t9", {}).ok());
}

void TestViolationsCap() {
  Violations v;
  for (int i = 0; i < 20; ++i) {
    v.Add("x");
  }
  EXPECT(v.count() == 20);
  EXPECT(v.messages().size() == kMaxViolations);
  Violations merged;
  merged.Add("y");
  merged.Merge(v);
  EXPECT(merged.count() == 21);
  EXPECT(merged.messages().size() == kMaxViolations);
}

}  // namespace

int main() {
  TestPercentile();
  TestVersionRuns();
  TestReadsSeeAckedWrites();
  TestReplicaStates();
  TestChecksums();
  TestTable();
  TestViolationsCap();
  if (failures == 0) {
    std::printf("perfbench checks: all passed\n");
  }
  return failures == 0 ? 0 : 1;
}
