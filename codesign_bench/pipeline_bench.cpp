// pipeline_bench — the co-design pipeline benchmark harness.
//
// One process runs one workload as a closed-loop batch: a pass builds each
// program's front-end and runs the workload's back-end on it, and the next
// pass starts when the previous one ends. Passes repeat until --seconds
// have elapsed (and at least kMinPasses ran); the end-to-end metrics are
// the fastest pass and the median set-up time. With --trace 1 the process
// instead runs one reference pass, one traced pass with spans around every
// call into a layer, one pass with the program's own telemetry on, and a
// probe phase that calls each back-end layer directly, and reports
// per-layer costs.
// README.md in this directory lists the workloads and metrics; run.py
// builds this binary and is the command to run.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "artifact/cache.h"
#include "bet/builder.h"
#include "cachemodel/layercond.h"
#include "core/backend.h"
#include "core/frontend.h"
#include "expr/expr.h"
#include "hotspot/hotspot.h"
#include "hotspot/quality.h"
#include "machine/grid.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "parallel/pool.h"
#include "roofline/estimate.h"
#include "search/report.h"
#include "search/search.h"
#include "search/space.h"
#include "sim/profile_report.h"
#include "sim/simulator.h"
#include "spans.h"
#include "support/diagnostics.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "telemetry/telemetry.h"
#include "trace/cache_model.h"
#include "trace/replay.h"
#include "trace/trace.h"
#include "translate/annotate.h"
#include "translate/translate.h"
#include "vm/compiler.h"
#include "vm/profile.h"
#include "workloads/workloads.h"

#ifndef CODESIGN_BENCH_BUILD_TYPE
#define CODESIGN_BENCH_BUILD_TYPE "unknown"
#endif

using namespace skope;
namespace cb = codesign_bench;

namespace {

using Clock = std::chrono::steady_clock;
using FrontendPtr = std::shared_ptr<const core::WorkloadFrontend>;

// After one warm-up pass (a process's first pass pays page faults and lazy
// set-up the later ones do not), a run times at least this many passes, so
// every median has more than one sample, and at most kMaxPasses, so a fast
// workload stays bounded.
constexpr size_t kMinPasses = 2;
constexpr size_t kMaxPasses = 200;

// Timed passes run the pool on one thread. On a few cores of a shared host a
// pass at nproc threads waits for its slowest worker, so any core another
// tenant takes stretches the whole pass; one thread leaves the other cores
// free and times the pipeline's work, not the scheduler. The traced run
// keeps nproc threads for the pool and 1-vs-N metrics.
constexpr int kTimedThreads = 1;

// The hot-spot criteria the skopec and sweep CLIs default to.
const hotspot::SelectionCriteria kCriteria{0.90, 0.45};

// analytic-sweep: 4 x 4 x 4 = 64 configs around the BG/Q base (constant
// miss ratios, so the back-end is the batched roofline alone).
constexpr const char* kAnalyticGrid =
    "base=bgq; membw=15:60:15; memlat=90:270:60; freq=1.2,1.6,2.0,2.4";
// ground-truth / warm-restart: two L1 geometries (both on the exact-replay
// tier), so a one-thread ground-truth pass stays near 3.5 s and a run times
// several passes.
constexpr const char* kCacheGrid = "base=bgq; l1kb=16,32; llcmb=4";
// design-search: 8 x 4 x 8 x 4 x 4 x 4 = 16 384 lattice points with a cost
// model, searched exhaustively and by successive halving. The back-end is
// ~70% of a pass; a 65 536-point lattice held ~440 MB per pass, and its
// pass times swung by a third within one process.
constexpr const char* kSearchSpace =
    "base=bgq; freq=1.0:2.4:0.2; mlp=1:8:*2; memlat=60:270:30; issuewidth=1:8:*2; "
    "l1kb=8,16,32,64; llcmb=2,4,8,16; "
    "cost = freq*4 + issuewidth*2 + mlp + 600/memlat + l1kb/16 + llcmb/2";
// Lattice points the design-search probes sample (roofline, hot spots,
// pool, layer conditions).
constexpr size_t kSearchProbeConfigs = 64;

enum class Kind { AnalyticSweep, DesignSearch, GroundTruth, WarmRestart };

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// Everything one run is configured with, derived from the command line.
struct Setup {
  Kind kind = Kind::AnalyticSweep;
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool prefill = false;
  int threads = 1;
  std::string workdir;
  std::vector<const workloads::Workload*> programs;
  MachineGrid grid;                    // analytic / cache grid
  std::vector<MachineConfig> configs;  // the grid expanded, or search probe points
  search::DesignSpace space;           // design-search only
  std::optional<artifact::ArtifactCache> artifacts;  // warm-restart only

  /// The VM rand() seed of program i: the workload seed feeds every input.
  [[nodiscard]] uint64_t vmSeed(size_t i) const { return mix64(seed * 8 + i); }
  [[nodiscard]] uint64_t halvingSeed() const { return mix64(seed ^ 0x5eedULL); }
  [[nodiscard]] bool coldFrontends() const { return kind != Kind::WarmRestart; }
};

/// What one pass produced.
struct Pass {
  double setupS = 0;   // front-end builds (cold) or loads (warm)
  size_t configs = 0;  // configs evaluated
  size_t notOk = 0;    // configs whose status is not ok
  std::string report;  // every deterministic report, concatenated
  std::vector<double> qualityPct;        // per (program, config), ground truth on
  std::vector<double> tau;               // per (program, engine), NaN if undefined
  std::vector<double> replaySeconds;     // replay measured_s per (program, config)
  std::vector<double> simSeconds;        // simulator measured_s, same order
  std::optional<double> searchGapPct;    // halving best vs exhaustive best
  std::optional<double> searchEvalFrac;  // halving evaluations / lattice
  size_t searchEvals = 0;
  uint64_t vmOps = 0;
  size_t artifactHits = 0;
  std::vector<FrontendPtr> frontends;  // kept only when asked
  std::vector<std::string> problems;   // failed output checks
};

// --------------------------------------------------------------------------
// The pass: front-end per program, then the workload's back-end on it.

sweep::SweepOptions sweepOptions(int threads) {
  sweep::SweepOptions o;
  o.threads = threads;
  o.criteria = kCriteria;
  return o;
}

void absorbSweep(const sweep::SweepResult& r, Pass& pass, std::vector<double>* measured) {
  pass.configs += r.outcomes.size();
  pass.notOk += r.outcomes.size() - r.countWithStatus(sweep::ConfigStatus::Ok);
  pass.report += sweep::toCsv(r);
  if (measured == nullptr) return;
  std::vector<double> model;
  std::vector<double> truth;
  for (const sweep::ConfigOutcome& o : r.outcomes) {
    if (o.quality) pass.qualityPct.push_back(*o.quality * 100);
    if (o.measuredSeconds) {
      model.push_back(o.projectedSeconds);
      truth.push_back(*o.measuredSeconds);
      measured->push_back(*o.measuredSeconds);
    }
  }
  pass.tau.push_back(cb::kendallTauB(model, truth));
}

void absorbSearch(const search::SearchResult& r, Pass& pass) {
  pass.configs += r.evals();
  for (const search::EvaluatedPoint& p : r.evaluated) {
    if (p.status != sweep::ConfigStatus::Ok) ++pass.notOk;
  }
  pass.report += search::searchToCsv(r);
}

void runBackend(const Setup& s, const core::WorkloadFrontend& fe, int threads,
                cb::SpanLog& log, Pass& pass) {
  sweep::SweepOptions o = sweepOptions(threads);
  switch (s.kind) {
    case Kind::AnalyticSweep: {
      sweep::SweepResult r;
      {
        cb::SpanScope span(log, "sweep.run");
        r = sweep::runSweep(fe, s.grid, o);
      }
      absorbSweep(r, pass, nullptr);
      return;
    }
    case Kind::DesignSearch: {
      search::SearchOptions ex;
      ex.algorithm = search::SearchAlgorithm::Exhaustive;
      ex.sweep = o;
      ex.sweep.cacheModel = sweep::CacheModelMode::LayerCond;
      search::SearchOptions sh = ex;
      sh.algorithm = search::SearchAlgorithm::SuccessiveHalving;
      sh.seed = s.halvingSeed();
      search::SearchResult exR;
      search::SearchResult shR;
      {
        cb::SpanScope span(log, "search.exhaustive");
        exR = search::runSearch(fe, s.space, ex);
      }
      {
        cb::SpanScope span(log, "search.shalving");
        shR = search::runSearch(fe, s.space, sh);
      }
      absorbSearch(exR, pass);
      absorbSearch(shR, pass);
      pass.searchEvals += shR.evals();
      if (exR.bestIndex && shR.bestIndex) {
        const double best = exR.evaluated[*exR.bestIndex].projectedSeconds;
        const double found = shR.evaluated[*shR.bestIndex].projectedSeconds;
        pass.searchGapPct = (found / best - 1) * 100;
      } else {
        pass.problems.push_back("search found no usable point");
      }
      pass.searchEvalFrac =
          static_cast<double>(shR.evals()) / static_cast<double>(s.space.gridCount());
      return;
    }
    case Kind::GroundTruth:
    case Kind::WarmRestart: {
      sweep::SweepOptions replay = o;
      replay.groundTruth = true;
      replay.cacheModel = sweep::CacheModelMode::ReuseDist;
      replay.traceInformedRoofline = true;
      if (s.artifacts) replay.artifacts = &*s.artifacts;
      sweep::SweepResult r;
      {
        cb::SpanScope span(log, "sweep.replay");
        r = sweep::runSweep(fe, s.grid, replay);
      }
      absorbSweep(r, pass, &pass.replaySeconds);
      if (s.kind == Kind::WarmRestart) return;
      sweep::SweepOptions layer = o;
      layer.groundTruth = true;
      layer.cacheModel = sweep::CacheModelMode::LayerCond;
      {
        cb::SpanScope span(log, "sweep.layer-cond");
        r = sweep::runSweep(fe, s.grid, layer);
      }
      absorbSweep(r, pass, &pass.simSeconds);
      return;
    }
  }
}

FrontendPtr buildFrontend(const Setup& s, size_t i) {
  const workloads::Workload& w = *s.programs[i];
  core::FrontendOptions fopts;
  if (s.artifacts) fopts.artifacts = &*s.artifacts;
  return std::make_shared<const core::WorkloadFrontend>(w.name, w.source, w.params,
                                                        s.vmSeed(i), fopts);
}

/// Work counts of the front-end stages, summed over programs.
struct FrontendCounts {
  uint64_t vmOps = 0;
  uint64_t traceRefs = 0;
  uint64_t traceBytes = 0;
  uint64_t betNodes = 0;
};

/// The front-end's stages called one layer at a time, each under a span: the
/// same work WorkloadFrontend's constructor does. The back-end keeps running
/// on `reference` (the entry point's build of the same program); every count
/// must match it.
void layeredFrontend(const Setup& s, size_t i, const core::WorkloadFrontend& reference,
                     cb::SpanLog& log, Pass& pass, FrontendCounts& counts) {
  const workloads::Workload& w = *s.programs[i];
  const uint64_t seed = s.vmSeed(i);
  std::unique_ptr<minic::Program> prog;
  {
    cb::SpanScope span(log, "minic.parse");
    prog = minic::parseProgram(w.source, w.name);
    minic::analyzeOrThrow(*prog);
  }
  vm::Module mod;
  {
    cb::SpanScope span(log, "vm.compile");
    mod = vm::compile(*prog);
  }
  vm::ProfileData profile;
  trace::MemoryTrace trace;
  if (s.artifacts) {
    cb::SpanScope span(log, "artifact.load");
    const std::string key = artifact::ArtifactCache::frontendKey(
        w.source, w.params, seed, 0, true, trace::kDefaultMaxRefs);
    auto loaded = s.artifacts->loadFrontend(key);
    if (!loaded) throw Error("warm front-end missing from the artifact store: " + w.name);
    profile = std::move(loaded->profile);
    trace = std::move(loaded->trace);
  } else {
    cb::SpanScope span(log, "vm.profile");
    trace::TraceRecorder recorder;
    profile = vm::profileRun(mod, w.params, seed, &recorder, 0,
                             [&](const vm::Vm& vm) { trace = recorder.finish(vm); });
  }
  skel::SkeletonProgram skeleton;
  {
    cb::SpanScope span(log, "translate.skeleton");
    skeleton = translate::translateProgram(*prog);
    translate::annotate(skeleton, profile);
  }
  bet::Bet bet;
  {
    cb::SpanScope span(log, "bet.build");
    ParamEnv input(w.params);
    bet = bet::buildBet(skeleton, input);
  }
  const uint64_t ops = profile.opCounters.grandTotal();
  if (ops != reference.profile().opCounters.grandTotal()) {
    pass.problems.push_back(w.name + ": vm.ops differs from the front-end's recorded count");
  }
  if (trace.recordedRefs != reference.memoryTrace().recordedRefs) {
    pass.problems.push_back(w.name + ": trace.refs differs from the front-end's trace");
  }
  if (bet.size() != reference.bet().size()) {
    pass.problems.push_back(w.name + ": bet.nodes differs from the front-end's BET");
  }
  counts.vmOps += ops;
  counts.traceRefs += trace.recordedRefs;
  counts.traceBytes += trace.sizeBytes();
  counts.betNodes += bet.size();
}

/// One pass. With `reuse`, the front-end runs layer by layer under spans
/// and the back-end runs on the reused front-ends; otherwise the front-end
/// is built through the WorkloadFrontend entry point.
Pass runPass(const Setup& s, int threads, cb::SpanLog& log, bool keepFrontends,
             const std::vector<FrontendPtr>* reuse = nullptr,
             FrontendCounts* counts = nullptr) {
  Pass pass;
  for (size_t i = 0; i < s.programs.size(); ++i) {
    FrontendPtr fe;
    auto t0 = Clock::now();
    if (reuse != nullptr) {
      layeredFrontend(s, i, *(*reuse)[i], log, pass, *counts);
      fe = (*reuse)[i];
    } else {
      fe = buildFrontend(s, i);
    }
    pass.setupS += since(t0);
    if (fe->artifactProvenance() == "hit") ++pass.artifactHits;
    pass.vmOps += fe->profile().opCounters.grandTotal();
    runBackend(s, *fe, threads, log, pass);
    if (keepFrontends) pass.frontends.push_back(std::move(fe));
  }
  return pass;
}

// --------------------------------------------------------------------------
// Output checks shared by both modes.

/// Batched and scalar roofline totals must be bitwise equal; checked on one
/// seed-chosen config of the workload's config list.
bool batchedMatchesScalar(const Setup& s, const core::WorkloadFrontend& fe) {
  std::vector<roofline::Roofline> models;
  for (const MachineConfig& c : s.configs) models.emplace_back(c.machine, roofline::RooflineParams{});
  const auto& mixes = core::WorkloadFrontend::libProfile().mixes;
  roofline::BatchedEstimator est(fe.bet(), &fe.module(), &mixes);
  const auto batched = est.estimateGrid(models);
  const size_t k = static_cast<size_t>(mix64(s.seed + 17) % models.size());
  const double scalar =
      roofline::estimate(fe.bet(), models[k], &fe.module(), &mixes, nullptr).totalSeconds;
  return std::memcmp(&batched[k].totalSeconds, &scalar, sizeof(double)) == 0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string coldReportPath(const Setup& s) { return s.workdir + "/cold_report.csv"; }

/// Checks one pass against the first (same seed, same answer) and, on
/// warm-restart, against the cold reports the prefill step wrote.
void checkPass(const Setup& s, const Pass& first, Pass& pass, const std::string& cold) {
  if (pass.report != first.report) pass.problems.push_back("report differs between passes");
  if (pass.vmOps != first.vmOps) pass.problems.push_back("vm.ops differs between passes");
  if (s.kind == Kind::WarmRestart) {
    if (pass.report != cold) pass.problems.push_back("warm report differs from the cold one");
    if (pass.artifactHits != s.programs.size()) {
      pass.problems.push_back("a warm front-end missed the artifact store");
    }
  }
}

// --------------------------------------------------------------------------
// Host record.

/// ns per iteration of a fixed dependent xorshift + FP chain: a same-process
/// yardstick for reading unit costs relative to runner speed.
double calibrationNs() {
  static volatile double sink = 0;
  constexpr int kIters = 4'000'000;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t x = 88172645463325252ULL + static_cast<uint64_t>(rep);
    double acc = 0;
    auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-9;
    }
    samples.push_back(since(t0) * 1e9 / kIters);
    sink = sink + acc;
  }
  return cb::median(samples);
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void printHost(int threads, double calibNs) {
  const std::string buildType = CODESIGN_BENCH_BUILD_TYPE;
  std::printf("host: nproc=%u threads=%d cpu=\"%s\" build=%s%s calib_ns=%.4f\n",
              std::thread::hardware_concurrency(), threads, cpuModel().c_str(),
              buildType.c_str(), buildType == "Release" ? "" : " (NOT Release)", calibNs);
}

// --------------------------------------------------------------------------
// Result line.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints every metric by name and unit, then the one-line JSON result of
/// `metrics` (the `answers` are printed only).
void printResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics, const std::vector<Metric>& answers) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : answers) {
    std::printf("answer %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + jsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The answer-quality figures of a pass; 0 where the workload has none.
std::vector<Metric> answerMetrics(const Pass& p, size_t attempted, size_t failed) {
  double qMean = 0;
  double qMin = 0;
  if (!p.qualityPct.empty()) {
    for (double q : p.qualityPct) qMean += q;
    qMean /= static_cast<double>(p.qualityPct.size());
    qMin = *std::min_element(p.qualityPct.begin(), p.qualityPct.end());
  }
  double tauSum = 0;
  size_t tauN = 0;
  for (double t : p.tau) {
    if (std::isnan(t)) continue;
    tauSum += t;
    ++tauN;
  }
  return {
      {"quality_mean_pct", qMean, "%"},
      {"quality_min_pct", qMin, "%"},
      {"rank_tau", tauN > 0 ? tauSum / static_cast<double>(tauN) : 0, "tau"},
      {"search_gap_pct", p.searchGapPct.value_or(0), "%"},
      {"search_eval_frac", p.searchEvalFrac.value_or(0), "ratio"},
      {"failed_frac",
       attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
       "ratio"},
  };
}

// --------------------------------------------------------------------------
// Untraced mode: the end-to-end metrics.

int runMeasured(const Setup& s) {
  const double calibNs = calibrationNs();
  printHost(kTimedThreads, calibNs);
  (void)core::WorkloadFrontend::libProfile();  // process-wide, built once

  const std::string cold = s.kind == Kind::WarmRestart ? readFile(coldReportPath(s)) : "";
  cb::SpanLog off(false);
  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> rates;
  // The warm-up pass is checked like the others but stays out of the medians.
  Pass first = runPass(s, kTimedThreads, off, /*keepFrontends=*/false);
  checkPass(s, first, first, cold);
  size_t attempted = first.configs;
  size_t failed = first.notOk;
  std::vector<std::string> problems = first.problems;
  const auto start = Clock::now();
  while (walls.size() < kMaxPasses &&
         (walls.size() < kMinPasses || since(start) < s.seconds)) {
    auto t0 = Clock::now();
    Pass p = runPass(s, kTimedThreads, off, /*keepFrontends=*/false);
    const double wall = since(t0);
    walls.push_back(wall);
    setups.push_back(p.setupS);
    rates.push_back(static_cast<double>(p.configs) / (wall - p.setupS));
    checkPass(s, first, p, cold);
    attempted += p.configs;
    failed += p.notOk;
    problems.insert(problems.end(), p.problems.begin(), p.problems.end());
  }

  // Bitwise batched-vs-scalar roofline check on one seed-chosen program.
  const size_t pick = static_cast<size_t>(mix64(s.seed + 3) % s.programs.size());
  if (!batchedMatchesScalar(s, *buildFrontend(s, pick))) {
    problems.push_back("batched and scalar roofline totals differ");
  }
  failed += problems.size();
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  std::printf("workload=%s seed=%llu passes=%zu report_fnv1a=%016llx configs_per_pass=%zu\n",
              s.name.c_str(), static_cast<unsigned long long>(s.seed), walls.size(),
              static_cast<unsigned long long>(fnv1a(first.report)), first.configs);
  std::printf("timed passes, wall_s/setup_s:");
  for (size_t i = 0; i < walls.size(); ++i) std::printf(" %.4f/%.4f", walls[i], setups[i]);
  std::printf("\n");
  // Every timed pass does the same work, so what spreads their times is the
  // host: other tenants slow this one by a fifth or more for seconds to
  // minutes at a time, on the CPU, not in the scheduler (CPU time tracks
  // wall time). The fastest pass is the pipeline's cost with the least of
  // that; the median pass time spread three times as much between runs.
  const std::vector<Metric> metrics = {
      {"best_wall_s", *std::min_element(walls.begin(), walls.end()), "s"},
      {"setup_s", cb::median(setups), "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::vector<Metric> answers = {{"wall_s", cb::median(walls), "s"},
                                 {"configs_per_s", cb::median(rates), "1/s"}};
  for (Metric& m : answerMetrics(first, attempted, failed)) answers.push_back(std::move(m));
  const bool correct = failed == 0;
  printResult(correct, attempted, failed, metrics, answers);
  return correct ? 0 : 1;
}

// --------------------------------------------------------------------------
// Traced mode: per-layer metrics.

/// Sampled lattice points of the design space (seed-chosen stride offset).
std::vector<MachineConfig> sampleSpace(const search::DesignSpace& space, uint64_t seed,
                                       size_t count) {
  std::vector<MachineConfig> out;
  const size_t n = space.gridCount();
  const size_t stride = std::max<size_t>(n / count, 1);
  for (size_t j = static_cast<size_t>(seed % stride); j < n && out.size() < count; j += stride) {
    if (auto cfg = space.materialize(space.decode(j))) out.push_back(std::move(*cfg));
  }
  return out;
}

using GeometryKey = std::tuple<uint64_t, uint32_t, uint32_t>;

GeometryKey geometryOf(const CacheLevelDesc& level) {
  return {level.sizeBytes, level.lineBytes, level.assoc};
}

/// Unit-cost totals from direct calls into the back-end layers.
struct ProbeTotals {
  double factorizeS = 0;
  double combineS = 0;
  double combineTermConfigs = 0;
  double selectS = 0;
  size_t selectConfigs = 0;
  double busyS = 0;
  double poolCapacityS = 0;
  double layerBuildS = 0;
  double layerEvalS = 0;
  size_t layerEvals = 0;
  size_t layerFallbacks = 0;
  double reuseS = 0;
  uint64_t reuseRefs = 0;
  double exactS = 0;
  double exactRefGeoms = 0;
  double replayS = 0;
  size_t replays = 0;
  double qualityS = 0;
  size_t qualities = 0;
  double simS = 0;
  size_t sims = 0;
  uint64_t simOps = 0;
  double profileUntracedS = 0;
  double storeS = 0;
  double searchSweepS = 0;
};

/// Calls each back-end layer the workload uses directly on one reference
/// front-end, under spans in `log` (kept apart from the traced pass's).
void probeProgram(const Setup& s, const core::WorkloadFrontend& fe, cb::SpanLog& log,
                  ProbeTotals& t) {
  const std::vector<MachineConfig>& configs = s.configs;
  const auto& mixes = core::WorkloadFrontend::libProfile().mixes;
  const size_t totalInstrs = fe.module().totalStaticInstrs();
  auto timed = [&](const char* name, auto&& fn) {
    auto t0 = Clock::now();
    {
      cb::SpanScope span(log, name);
      fn();
    }
    return since(t0);
  };

  // roofline: factorization once, then the per-(term, config) combine.
  std::vector<roofline::Roofline> models;
  for (const MachineConfig& c : configs) models.emplace_back(c.machine, roofline::RooflineParams{});
  std::optional<roofline::BatchedEstimator> est;
  t.factorizeS += timed("roofline.factorize",
                        [&] { est.emplace(fe.bet(), &fe.module(), &mixes); });
  std::vector<roofline::ModelResult> results;
  t.combineS += timed("roofline.combine", [&] { results = est->estimateGrid(models); });
  t.combineTermConfigs += static_cast<double>(est->termCount() * models.size());

  // hotspot: ranking + greedy selection per config.
  std::vector<hotspot::Selection> selections;
  t.selectS += timed("hotspot.select", [&] {
    for (const auto& r : results) {
      selections.push_back(
          hotspot::selectHotSpots(hotspot::rankingFromModel(r), totalInstrs, kCriteria));
    }
  });
  t.selectConfigs += results.size();

  // parallel: the sweep's per-config finish tasks fanned out over the pool.
  {
    std::vector<MachineModel> machines;
    for (const MachineConfig& c : configs) machines.push_back(c.machine);
    core::BackendOptions bo;
    bo.criteria = kCriteria;
    core::GridBackend backend(fe, machines, bo);
    parallel::WorkStealingPool pool(s.threads);
    std::vector<double> busy(machines.size(), 0);
    const double wall = timed("parallel.fanout", [&] {
      pool.run(machines.size(), [&](size_t u) {
        auto t0 = Clock::now();
        (void)backend.evaluate(u);
        busy[u] = since(t0);
      });
    });
    for (double b : busy) t.busyS += b;
    t.poolCapacityS += wall * pool.threadCount();
  }

  // cachemodel: the analytic layer-condition model, where the workload uses it.
  if (s.kind == Kind::DesignSearch || s.kind == Kind::GroundTruth) {
    std::optional<cachemodel::LayerConditionModel> lc;
    t.layerBuildS += timed("cachemodel.build", [&] {
      lc.emplace(fe.program(), fe.bet(), fe.params());
    });
    if (!lc->usable()) ++t.layerFallbacks;
    std::map<std::pair<GeometryKey, GeometryKey>, const MachineModel*> geometries;
    for (const MachineConfig& c : configs) {
      geometries.emplace(std::make_pair(geometryOf(c.machine.l1), geometryOf(c.machine.llc)),
                         &c.machine);
    }
    t.layerEvalS += timed("cachemodel.eval", [&] {
      for (const auto& [key, machine] : geometries) (void)lc->evaluate(*machine);
    });
    t.layerEvals += geometries.size();
  }

  // trace + hotspot quality: replay ground truth, where the workload uses it.
  if (s.kind == Kind::GroundTruth || s.kind == Kind::WarmRestart) {
    std::unique_ptr<trace::ReuseCacheHook> hook;
    if (s.artifacts) hook = s.artifacts->makeReuseHook(fe.artifactKey());
    trace::CacheModel cm(fe.memoryTrace(), s.threads, {}, hook.get());
    std::set<uint32_t> lines;
    std::set<GeometryKey> exact;
    for (const MachineConfig& c : configs) {
      for (const CacheLevelDesc* level : {&c.machine.l1, &c.machine.llc}) {
        lines.insert(level->lineBytes);
        if (trace::CacheModel::usesExactReplay(*level)) exact.insert(geometryOf(*level));
      }
    }
    if (s.coldFrontends()) {
      t.reuseS += timed("trace.reuse", [&] {
        for (uint32_t line : lines) (void)cm.analyzer().histograms(line);
      });
      t.reuseRefs += fe.memoryTrace().recordedRefs * lines.size();
      t.exactS += timed("trace.exact", [&] { cm.prepare(configs); });
      t.exactRefGeoms +=
          static_cast<double>(fe.memoryTrace().recordedRefs) * static_cast<double>(exact.size());
    } else {
      cm.prepare(configs);  // served from the artifact store
    }
    std::vector<sim::SimResult> replayed;
    t.replayS += timed("trace.replay", [&] {
      trace::ReplayInputs in{fe.memoryTrace(), cm, fe.profile(), &mixes};
      for (const MachineConfig& c : configs) {
        replayed.push_back(trace::replaySimulate(fe.program(), c.machine, in));
      }
    });
    t.replays += configs.size();
    t.qualityS += timed("hotspot.quality", [&] {
      for (size_t k = 0; k < replayed.size(); ++k) {
        auto report = sim::makeReport(replayed[k], fe.module());
        auto ranking = hotspot::rankingFromProfile(report);
        auto profSel = hotspot::selectHotSpots(ranking, totalInstrs, kCriteria);
        (void)hotspot::selectionQuality(selections[k], profSel,
                                        hotspot::fractionsByOrigin(ranking));
      }
    });
    t.qualities += replayed.size();
  }

  // sim: one simulator run (the first config) per program.
  if (s.kind == Kind::GroundTruth) {
    sim::SimResult r;
    t.simS += timed("sim.run", [&] {
      sim::Simulator simulator(fe.program(), fe.module(), configs.front().machine, &mixes);
      r = simulator.run(fe.params(), fe.seed());
    });
    ++t.sims;
    t.simOps += r.dynamicInstrs;
  }

  // vm: the profiling run without the trace recorder, for its overhead.
  if (s.kind == Kind::AnalyticSweep || s.kind == Kind::DesignSearch) {
    t.profileUntracedS += timed("vm.profile-untraced", [&] {
      (void)vm::profileRun(fe.module(), fe.params(), fe.seed());
    });
  }

  // artifact: one front-end store into a scratch store.
  if (s.kind == Kind::WarmRestart) {
    artifact::ArtifactCache scratch(s.workdir + "/probe-store");
    t.storeS += timed("artifact.store", [&] {
      scratch.storeFrontend(fe.artifactKey(), fe.profile(), fe.memoryTrace());
    });
  }

  // sweep under search: runSweep over the exhaustive search's whole lattice.
  if (s.kind == Kind::DesignSearch) {
    std::vector<MachineConfig> lattice;
    for (size_t j = 0; j < s.space.gridCount(); ++j) {
      if (auto cfg = s.space.materialize(s.space.decode(j))) lattice.push_back(std::move(*cfg));
    }
    sweep::SweepOptions o = sweepOptions(s.threads);
    o.cacheModel = sweep::CacheModelMode::LayerCond;
    o.baseline = s.space.base;
    t.searchSweepS += timed("sweep.run", [&] { (void)sweep::runSweep(fe, lattice, o); });
  }
}

/// Writes out a span log, one span per line: index, parent, start and end
/// (ms since the log opened), self time (ms) and name.
void printSpans(const char* label, const cb::SpanLog& log) {
  const auto& spans = log.spans();
  const auto self = cb::selfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::printf("span %s %zu parent=%d start_ms=%.3f end_ms=%.3f self_ms=%.3f %s\n", label, i,
                spans[i].parent, static_cast<double>(spans[i].startNs) / 1e6,
                static_cast<double>(spans[i].endNs) / 1e6, static_cast<double>(self[i]) / 1e6,
                spans[i].name.c_str());
  }
}

uint64_t counterValue(const telemetry::MetricsSnapshot& snap, const char* name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int runTraced(const Setup& s) {
  const double calibNs = calibrationNs();
  printHost(s.threads, calibNs);
  (void)core::WorkloadFrontend::libProfile();
  const std::string cold = s.kind == Kind::WarmRestart ? readFile(coldReportPath(s)) : "";
  std::vector<std::string> problems;

  // 1. Warm-up: one untraced pass through the entry points (the first pass
  //    of a process pays page faults the later ones do not). Its front-ends
  //    serve the traced pass's back-end and the probes.
  cb::SpanLog off(false);
  Pass ref = runPass(s, s.threads, off, /*keepFrontends=*/true);
  checkPass(s, ref, ref, cold);

  // 2. Traced: the front-end layer by layer, the back-end entry points, all
  //    under spans. Same work as an untraced pass.
  cb::SpanLog log(true);
  FrontendCounts counts;
  auto t0 = Clock::now();
  Pass traced = runPass(s, s.threads, log, false, &ref.frontends, &counts);
  const double tracedWall = since(t0);
  checkPass(s, ref, traced, cold);

  // 3. Untraced reference for the tracing overhead.
  t0 = Clock::now();
  Pass untraced = runPass(s, s.threads, off, false);
  const double refWall = since(t0);
  checkPass(s, ref, untraced, cold);

  // 4. The program's own telemetry registry on; its counters give the memo
  //    hit ratio and a cross-check of vm.ops.
  auto& registry = telemetry::Registry::global();
  registry.clear();
  registry.setEnabled(true);
  t0 = Clock::now();
  Pass tel = runPass(s, s.threads, off, false);
  const double telWall = since(t0);
  registry.setEnabled(false);
  const auto snap = registry.metrics();
  registry.clear();
  checkPass(s, ref, tel, cold);
  if (s.coldFrontends() && counterValue(snap, "vm/ops") < ref.vmOps) {
    problems.push_back("telemetry vm/ops counter is below the front-ends' op count");
  }

  // 5. The back-end again on one thread: parallel efficiency, and the report
  //    must not depend on the thread count.
  Pass serial;
  t0 = Clock::now();
  for (const FrontendPtr& fe : ref.frontends) runBackend(s, *fe, 1, off, serial);
  const double serialBackend = since(t0);
  if (serial.report != ref.report) problems.push_back("1-thread report differs from N-thread");
  const double parallelBackend = refWall - untraced.setupS;

  // 6. Probes.
  cb::SpanLog probeLog(true);
  ProbeTotals pt;
  for (const FrontendPtr& fe : ref.frontends) probeProgram(s, *fe, probeLog, pt);
  const size_t pick = static_cast<size_t>(mix64(s.seed + 3) % ref.frontends.size());
  if (!batchedMatchesScalar(s, *ref.frontends[pick])) {
    problems.push_back("batched and scalar roofline totals differ");
  }

  for (const Pass* p : {&ref, &traced, &untraced, &tel}) {
    problems.insert(problems.end(), p->problems.begin(), p->problems.end());
  }
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());

  // Self time per layer over the traced pass, and named stage totals.
  const auto selfMs = cb::selfMsByLayer(log.spans());
  const auto stageS = cb::totalSecondsByName(log.spans());
  auto self = [&](const char* layer) {
    auto it = selfMs.find(layer);
    return it == selfMs.end() ? 0.0 : it->second;
  };
  auto stage = [&](const char* name) {
    auto it = stageS.find(name);
    return it == stageS.end() ? 0.0 : it->second;
  };
  double frontendSelfS = 0;
  for (const char* layer : {"minic", "vm", "translate", "bet", "artifact"}) {
    frontendSelfS += self(layer) / 1e3;
  }
  const double profileS = stage("vm.profile");
  double sweepS = stage("sweep.run") + stage("sweep.replay") + stage("sweep.layer-cond");
  if (s.kind == Kind::DesignSearch) sweepS = pt.searchSweepS;
  const double memoHits = static_cast<double>(counterValue(snap, "sweep/memo-hit"));
  const double memoMisses = static_cast<double>(counterValue(snap, "sweep/memo-miss"));
  double maxGapPct = 0;
  for (size_t k = 0; k < ref.simSeconds.size() && k < ref.replaySeconds.size(); ++k) {
    maxGapPct = std::max(maxGapPct, std::fabs(ref.replaySeconds[k] - ref.simSeconds[k]) /
                                        ref.simSeconds[k] * 100);
  }
  const double storeBytes =
      s.artifacts ? static_cast<double>(s.artifacts->store().storeBytes()) : 0;

  printSpans("pass", log);
  printSpans("probe", probeLog);
  std::printf("traced: untraced pass %.4f s (setup %.4f s), traced pass %.4f s, "
              "front-end self total %.4f s, telemetry pass %.4f s\n",
              refWall, untraced.setupS, tracedWall, frontendSelfS, telWall);

  const std::vector<Metric> metrics = {
      // Self time per layer in the traced pass. Layers that the sweep and
      // search entry points call internally have no span of their own here;
      // their costs are the probe unit costs below.
      {"minic.self_ms", self("minic"), "ms"},
      {"vm.self_ms", self("vm"), "ms"},
      {"translate.self_ms", self("translate"), "ms"},
      {"bet.self_ms", self("bet"), "ms"},
      {"artifact.self_ms", self("artifact"), "ms"},
      {"sweep.self_ms", self("sweep"), "ms"},
      {"search.self_ms", self("search"), "ms"},
      {"bench.frontend_self_s", frontendSelfS, "s"},
      {"bench.untraced_setup_s", untraced.setupS, "s"},
      {"bench.trace_overhead_pct", (tracedWall - refWall) / refWall * 100, "%"},
      // Front-end.
      {"minic.parse_ms", stage("minic.parse") * 1e3, "ms"},
      {"vm.compile_ms", stage("vm.compile") * 1e3, "ms"},
      {"vm.ops", static_cast<double>(counts.vmOps), "count"},
      {"vm.profile_s", profileS, "s"},
      {"vm.ns_per_op", profileS > 0 ? ratio(profileS * 1e9, static_cast<double>(counts.vmOps)) : 0,
       "ns"},
      {"trace.record_overhead_pct",
       pt.profileUntracedS > 0 ? (profileS - pt.profileUntracedS) / pt.profileUntracedS * 100 : 0,
       "%"},
      {"trace.refs", static_cast<double>(counts.traceRefs), "count"},
      {"trace.bytes", static_cast<double>(counts.traceBytes), "bytes"},
      {"translate.skeleton_ms", stage("translate.skeleton") * 1e3, "ms"},
      {"bet.build_ms", stage("bet.build") * 1e3, "ms"},
      {"bet.nodes", static_cast<double>(counts.betNodes), "count"},
      // Back-end.
      {"roofline.factorize_ms", pt.factorizeS * 1e3, "ms"},
      {"roofline.combine_ns", ratio(pt.combineS * 1e9, pt.combineTermConfigs), "ns"},
      {"cachemodel.build_ms", pt.layerBuildS * 1e3, "ms"},
      {"cachemodel.eval_us", ratio(pt.layerEvalS * 1e6, static_cast<double>(pt.layerEvals)), "us"},
      {"cachemodel.fallbacks", static_cast<double>(pt.layerFallbacks), "count"},
      {"hotspot.select_us", ratio(pt.selectS * 1e6, static_cast<double>(pt.selectConfigs)), "us"},
      {"sweep.run_s", sweepS, "s"},
      {"sweep.configs_per_s", ratio(static_cast<double>(untraced.configs), parallelBackend),
       "1/s"},
      {"sweep.memo_hit_ratio", ratio(memoHits, memoHits + memoMisses), "ratio"},
      {"sweep.parallel_eff", ratio(serialBackend, s.threads * parallelBackend), "ratio"},
      {"parallel.idle_frac", pt.poolCapacityS > 0 ? 1 - pt.busyS / pt.poolCapacityS : 0, "ratio"},
      {"search.exhaustive_s", stage("search.exhaustive"), "s"},
      {"search.shalving_s", stage("search.shalving"), "s"},
      {"search.evals", static_cast<double>(traced.searchEvals), "count"},
      {"search.overhead_s",
       s.kind == Kind::DesignSearch ? stage("search.exhaustive") - pt.searchSweepS : 0, "s"},
      // Ground truth.
      {"trace.reuse_s", pt.reuseS, "s"},
      {"trace.reuse_ns_per_ref", ratio(pt.reuseS * 1e9, static_cast<double>(pt.reuseRefs)), "ns"},
      {"trace.exact_ns_per_ref_geom", ratio(pt.exactS * 1e9, pt.exactRefGeoms), "ns"},
      {"trace.replay_us", ratio(pt.replayS * 1e6, static_cast<double>(pt.replays)), "us"},
      {"sim.run_s", ratio(pt.simS, static_cast<double>(pt.sims)), "s"},
      {"sim.ops", static_cast<double>(pt.simOps), "count"},
      {"sim.ns_per_op", ratio(pt.simS * 1e9, static_cast<double>(pt.simOps)), "ns"},
      {"hotspot.quality_us", ratio(pt.qualityS * 1e6, static_cast<double>(pt.qualities)), "us"},
      {"trace.replay_vs_sim_err_pct", maxGapPct, "%"},
      // Artifact cache.
      {"artifact.store_ms", pt.storeS * 1e3, "ms"},
      {"artifact.load_ms", stage("artifact.load") * 1e3, "ms"},
      {"artifact.bytes", storeBytes, "bytes"},
      {"artifact.hit_ratio",
       s.artifacts ? static_cast<double>(ref.artifactHits) / static_cast<double>(s.programs.size())
                   : 0,
       "ratio"},
      // Cross-cutting.
      {"telemetry.overhead_pct", (telWall - refWall) / refWall * 100, "%"},
      {"host.calib_ns", calibNs, "ns"},
  };
  size_t attempted = serial.configs;
  size_t failed = serial.notOk + problems.size();
  for (const Pass* p : {&ref, &traced, &untraced, &tel}) {
    attempted += p->configs;
    failed += p->notOk;
  }
  std::vector<Metric> all = metrics;
  for (Metric& m : answerMetrics(ref, attempted, failed)) all.push_back(std::move(m));
  const bool correct = failed == 0;
  printResult(correct, attempted, failed, all, {});
  return correct ? 0 : 1;
}

// --------------------------------------------------------------------------
// Warm-restart prefill: the cold replay half, storing every artifact.

int runPrefill(const Setup& s) {
  cb::SpanLog off(false);
  Pass cold = runPass(s, s.threads, off, false);
  if (cold.notOk != 0 || !cold.problems.empty()) {
    std::fprintf(stderr, "pipeline_bench: the cold prefill pass failed\n");
    return 1;
  }
  std::ofstream out(coldReportPath(s), std::ios::binary);
  out << cold.report;
  if (!out) throw Error("cannot write " + coldReportPath(s));
  std::printf("prefill: %zu programs stored (cold setup %.3f s)\n", s.programs.size(),
              cold.setupS);
  return 0;
}

// --------------------------------------------------------------------------

Setup parseArgs(int argc, char** argv) {
  Setup s;
  s.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      s.name = value();
    } else if (a == "--seed") {
      s.seed = std::stoull(value());
    } else if (a == "--seconds") {
      s.seconds = std::stod(value());
    } else if (a == "--trace") {
      s.trace = value() == "1";
    } else if (a == "--workdir") {
      s.workdir = value();
    } else if (a == "--prefill") {
      s.prefill = true;
    } else {
      throw Error("unknown argument " + a);
    }
  }
  if (s.workdir.empty()) throw Error("missing --workdir");
  const auto all = workloads::allWorkloads();
  if (s.name == "analytic-sweep") {
    s.kind = Kind::AnalyticSweep;
    s.programs = all;
    s.grid = parseGridSpec(kAnalyticGrid);
  } else if (s.name == "design-search") {
    s.kind = Kind::DesignSearch;
    s.programs = {&workloads::chargei()};
    s.space = search::parseDesignSpace(kSearchSpace);
  } else if (s.name == "ground-truth") {
    // SORD and STASSUIJ would make up ~70% of a pass; without them a run
    // times several passes instead of two, and still covers the regular
    // (SRAD), gather/scatter (CHARGEI) and indirect-index (CFD) patterns.
    s.kind = Kind::GroundTruth;
    s.programs = {&workloads::chargei(), &workloads::srad(), &workloads::cfd()};
    s.grid = parseGridSpec(kCacheGrid);
  } else if (s.name == "warm-restart") {
    s.kind = Kind::WarmRestart;
    s.programs = all;
    s.grid = parseGridSpec(kCacheGrid);
  } else {
    throw Error("unknown workload '" + s.name +
                "' (analytic-sweep, design-search, ground-truth, warm-restart)");
  }
  s.configs = s.kind == Kind::DesignSearch ? sampleSpace(s.space, s.seed, kSearchProbeConfigs)
                                           : s.grid.expand();
  if (s.kind == Kind::WarmRestart) s.artifacts.emplace(s.workdir + "/artifacts");
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Setup s = parseArgs(argc, argv);
    if (s.prefill) return runPrefill(s);
    return s.trace ? runTraced(s) : runMeasured(s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 2;
  }
}
