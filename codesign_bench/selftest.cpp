// Self-tests for the benchmark's own math: median, Kendall tau-b with ties,
// and self time from nested spans. Exits non-zero on the first failure;
// run.py runs it after every build, before any workload.
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.h"

namespace cb = codesign_bench;

namespace {

int failures = 0;

void expectNear(const char* what, double got, double want, double tol = 1e-12) {
  if (!(std::fabs(got - want) <= tol)) {
    std::fprintf(stderr, "selftest FAIL: %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void testMedian() {
  expectNear("median of odd count", cb::median({3, 1, 2}), 2);
  expectNear("median of even count", cb::median({4, 1, 3, 2}), 2.5);
  expectNear("median of one", cb::median({7.25}), 7.25);
  expectNear("median of none", cb::median({}), 0);
}

void testKendall() {
  expectNear("tau-b identical order", cb::kendallTauB({1, 2, 3, 4}, {10, 20, 30, 40}), 1);
  expectNear("tau-b reversed order", cb::kendallTauB({1, 2, 3, 4}, {4, 3, 2, 1}), -1);
  // Ties in both samples, one pair tied in both: nc = 2, nd = 6, 2 pairs
  // tied in x, 1 in y -> -4 / sqrt(8 * 9) (scipy.stats.kendalltau agrees).
  expectNear("tau-b with ties", cb::kendallTauB({12, 2, 1, 12, 2}, {1, 4, 7, 1, 0}),
             -4.0 / std::sqrt(72.0));
  if (!std::isnan(cb::kendallTauB({1, 1, 1}, {1, 2, 3}))) {
    std::fprintf(stderr, "selftest FAIL: tau-b of a constant sample must be NaN\n");
    ++failures;
  }
}

void testSelfTime() {
  // root [0,100] with children a [10,40] (itself holding b [20,30]) and
  // c [50,60]; an overlapping child d [35,45] of root shares 5 ns with a.
  std::vector<cb::SpanRecord> spans = {
      {"sweep.run", 0, 100, -1},  {"vm.profile", 10, 40, 0}, {"trace.replay", 20, 30, 1},
      {"bet.build", 50, 60, 0},   {"vm.compile", 35, 45, 0},
  };
  auto self = cb::selfTimesNs(spans);
  expectNear("root self time", static_cast<double>(self[0]), 100 - 35 - 10);
  expectNear("nested child self time", static_cast<double>(self[1]), 30 - 10);
  expectNear("leaf self time", static_cast<double>(self[2]), 10);
  auto byLayer = cb::selfMsByLayer(spans);
  expectNear("vm layer self ms", byLayer["vm"], (20 + 10) / 1e6);
  expectNear("layer self times sum to the root span", byLayer["sweep"] + byLayer["vm"] +
                 byLayer["trace"] + byLayer["bet"], 100 / 1e6 + 5 / 1e6);

  // A live log nests by call order.
  cb::SpanLog log(true);
  {
    cb::SpanScope outer(log, "search.run");
    cb::SpanScope inner(log, "sweep.run");
  }
  cb::SpanLog off(false);
  { cb::SpanScope ignored(off, "sweep.run"); }
  if (log.spans().size() != 2 || log.spans()[1].parent != 0 || !off.spans().empty() ||
      log.spans()[0].endNs < log.spans()[1].endNs) {
    std::fprintf(stderr, "selftest FAIL: span nesting\n");
    ++failures;
  }
}

}  // namespace

int main() {
  testMedian();
  testKendall();
  testSelfTime();
  if (failures == 0) std::printf("selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
