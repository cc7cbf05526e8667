//===- bench/bench_scale.cpp - Pipeline scaling curves ---------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how every pipeline phase scales with program size, using the
/// workload synthesizer (workload/Synthesizer.h) as the size dial: four
/// shape specs spanning roughly 1k to well past 100k VFG nodes, each run
/// through four analysis configurations:
///
///   andersen-global       the reference pipeline (serial, O1 preset),
///   andersen-global-j2    the same pipeline on a 2-worker pool,
///   unify-global          the near-linear unification solver rung,
///   andersen-global-o0im  the reference pipeline at the paper's O0+IM
///                         preset, where Opt II has real work (at O1
///                         mem2reg leaves it almost nothing to redirect).
///
/// Per size and configuration the JSON (schema usher-bench-scale-v1,
/// validated by tools/check_bench_json.py) records wall time for parse,
/// the preset's transforms (mem2reg_ms), and each runUsher phase (pointer
/// analysis, memory SSA, VFG, definedness, Opt II), plus peak RSS — the
/// raw data behind the scaling-curve analysis in EXPERIMENTS.md.
///
/// Configurations of one preset analyze the *same* program, so the
/// harness cross-checks answers, not just times: the serial and --jobs=2
/// runs must produce identical fingerprints (plan counts + VFG shape), and
/// the unify rung — a sound over-approximation — must report the same
/// runtime warnings with at least as many planned checks. Any mismatch
/// aborts: a curve bought with a different answer is a bug, not a result.
/// The O0+IM configuration analyzes a differently transformed module and
/// is only checked for reproducibility across iterations.
///
/// Usage: bench_scale [--smoke] [--out=FILE]
///   --smoke     two smallest sizes, single iteration; used by the
///               bench-smoke ctest.
///   --out=FILE  where to write the JSON (default: BENCH_scale.json).
///
//===----------------------------------------------------------------------===//

#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "support/ThreadPool.h"
#include "transforms/Transforms.h"
#include "workload/Synthesizer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace usher;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// One size rung of the scaling ladder. The smallest rung uses a shallow
/// shape: the default 6-deep/3-wide call graph has a ~25-function skeleton
/// whose VFG floor is ~9k nodes, so "about 1k nodes" needs fewer
/// functions, not just a smaller target.
struct SizeSpec {
  const char *Name;
  workload::ShapeSpec Shape;
};

std::vector<SizeSpec> sizeLadder() {
  std::vector<SizeSpec> Sizes;
  {
    workload::ShapeSpec S;
    S.TargetNodes = 2'000;
    S.CallDepth = 2;
    S.Fanout = 2;
    S.RecursionRings = 1;
    S.RingSize = 2;
    Sizes.push_back({"tiny", S});
  }
  {
    workload::ShapeSpec S;
    S.TargetNodes = 10'000;
    Sizes.push_back({"small", S});
  }
  {
    workload::ShapeSpec S;
    S.TargetNodes = 40'000;
    Sizes.push_back({"medium", S});
  }
  {
    // Calibrated to land comfortably past the 100k-node mark (the dial
    // undershoots by ~3% at this scale).
    workload::ShapeSpec S;
    S.TargetNodes = 150'000;
    Sizes.push_back({"large", S});
  }
  return Sizes;
}

/// Everything the analysis decided plus everything the instrumented run
/// observed. Configurations that must agree compare the whole struct;
/// the unify rung compares only the Run* members (its plan is allowed to
/// be coarser, its answers are not).
struct Fingerprint {
  uint64_t Checks = 0;
  uint64_t ShadowOps = 0;
  uint64_t VFGNodes = 0;
  uint64_t VFGEdges = 0;
  uint64_t Redirected = 0;
  int64_t RunResult = 0;
  std::vector<std::string> RunWarnings; ///< Sorted warningSiteKey()s.
  bool operator==(const Fingerprint &O) const = default;
  bool sameRun(const Fingerprint &O) const {
    return RunResult == O.RunResult && RunWarnings == O.RunWarnings;
  }
};

struct ConfigRow {
  std::string Name;
  double ParseMs = 0;
  double Mem2RegMs = 0;
  double AnalyzeMs = 0; ///< runUsher wall time (sum of the phases).
  double PtaMs = 0;
  double SsaMs = 0;
  double VfgMs = 0;
  double DefinednessMs = 0;
  double Opt2Ms = 0;
  uint64_t PeakRSSBytes = 0;
  Fingerprint FP;
};

struct SizeRow {
  std::string Name;
  unsigned TargetNodes = 0;
  double SynthesizeMs = 0;
  uint64_t Functions = 0;
  uint64_t Instructions = 0;
  std::vector<ConfigRow> Configs;
};

struct Config {
  const char *Name;
  analysis::SolverKind Solver;
  unsigned Jobs;
  transforms::OptPreset Preset;
};

constexpr Config Configs[] = {
    {"andersen-global", analysis::SolverKind::Optimized, 1,
     transforms::OptPreset::O1},
    {"andersen-global-j2", analysis::SolverKind::Optimized, 2,
     transforms::OptPreset::O1},
    {"unify-global", analysis::SolverKind::Unify, 1,
     transforms::OptPreset::O1},
    {"andersen-global-o0im", analysis::SolverKind::Optimized, 1,
     transforms::OptPreset::O0IM},
};

double phaseMs(const core::UsherResult &UR, const char *Key) {
  auto It = UR.Stats.PhaseSeconds.find(Key);
  return It == UR.Stats.PhaseSeconds.end() ? 0.0 : It->second * 1000.0;
}

/// One full pipeline + instrumented execution of \p Source under \p C.
/// Parses fresh per iteration (the preset and heap cloning mutate the
/// module); times are best-of-\p Iters, the fingerprint must reproduce.
ConfigRow runConfig(const std::string &Source, const Config &C,
                    unsigned Iters) {
  ConfigRow Row;
  Row.Name = C.Name;
  double BestTotal = 1e100;
  for (unsigned It = 0; It != Iters; ++It) {
    auto T0 = Clock::now();
    parser::ParseResult PR = parser::parseModule(Source);
    double ParseMs = msSince(T0);
    if (!PR.succeeded()) {
      std::fprintf(stderr, "FATAL: synthesized program failed to parse\n");
      std::abort();
    }

    std::unique_ptr<ThreadPool> Pool;
    if (C.Jobs > 1)
      Pool = std::make_unique<ThreadPool>(C.Jobs);
    T0 = Clock::now();
    transforms::runPreset(*PR.M, C.Preset, Pool.get());
    double Mem2RegMs = msSince(T0);

    core::UsherOptions Opts;
    Opts.Variant = core::ToolVariant::UsherFull;
    Opts.Pta.Solver = C.Solver;
    Opts.Jobs = C.Jobs;
    T0 = Clock::now();
    core::UsherResult UR = core::runUsher(*PR.M, Opts);
    double AnalyzeMs = msSince(T0);
    if (UR.Degradation.Degraded) {
      std::fprintf(stderr, "FATAL: %s degraded with no budget armed\n",
                   C.Name);
      std::abort();
    }

    runtime::ExecutionReport Rep =
        runtime::Interpreter(*PR.M, &UR.Plan).run();
    if (Rep.Reason != runtime::ExitReason::Finished) {
      std::fprintf(stderr, "FATAL: %s: run did not finish: %s\n", C.Name,
                   Rep.TrapMessage.c_str());
      std::abort();
    }

    Fingerprint FP;
    FP.Checks = UR.Plan.countChecks();
    FP.ShadowOps = UR.Plan.countShadowOps();
    FP.VFGNodes = UR.Stats.NumVFGNodes;
    FP.VFGEdges = UR.Stats.NumVFGEdges;
    FP.Redirected = UR.Stats.NumRedirectedNodes;
    FP.RunResult = Rep.MainResult;
    for (const runtime::Warning &W : Rep.ToolWarnings)
      FP.RunWarnings.push_back(workload::warningSiteKey(W.At));
    std::sort(FP.RunWarnings.begin(), FP.RunWarnings.end());
    if (It > 0 && !(FP == Row.FP)) {
      std::fprintf(stderr,
                   "FATAL: %s: analysis not reproducible across iterations\n",
                   C.Name);
      std::abort();
    }
    Row.FP = std::move(FP);

    if (AnalyzeMs < BestTotal) {
      BestTotal = AnalyzeMs;
      Row.ParseMs = ParseMs;
      Row.Mem2RegMs = Mem2RegMs;
      Row.AnalyzeMs = AnalyzeMs;
      Row.PtaMs = phaseMs(UR, "1.pointer-analysis");
      Row.SsaMs = phaseMs(UR, "2.memory-ssa");
      Row.VfgMs = phaseMs(UR, "3.vfg");
      Row.DefinednessMs = phaseMs(UR, "4.definedness");
      Row.Opt2Ms = phaseMs(UR, "5.opt2");
      Row.PeakRSSBytes = UR.Stats.PeakRSSBytes;
    }
  }
  return Row;
}

void printConfigJson(std::FILE *F, const ConfigRow &R, bool Last) {
  std::fprintf(
      F,
      "        {\"name\": \"%s\", \"parse_ms\": %.4f, \"mem2reg_ms\": %.4f, "
      "\"analyze_ms\": %.4f, \"peak_rss_bytes\": %llu,\n"
      "         \"phases\": {\"pointer_analysis_ms\": %.4f, "
      "\"memory_ssa_ms\": %.4f, \"vfg_ms\": %.4f, "
      "\"definedness_ms\": %.4f, \"opt2_ms\": %.4f},\n"
      "         \"vfg_nodes\": %llu, \"vfg_edges\": %llu, "
      "\"checks\": %llu, \"shadow_ops\": %llu, "
      "\"warning_sites\": %zu}%s\n",
      R.Name.c_str(), R.ParseMs, R.Mem2RegMs, R.AnalyzeMs,
      static_cast<unsigned long long>(R.PeakRSSBytes), R.PtaMs, R.SsaMs,
      R.VfgMs, R.DefinednessMs, R.Opt2Ms,
      static_cast<unsigned long long>(R.FP.VFGNodes),
      static_cast<unsigned long long>(R.FP.VFGEdges),
      static_cast<unsigned long long>(R.FP.Checks),
      static_cast<unsigned long long>(R.FP.ShadowOps),
      R.FP.RunWarnings.size(), Last ? "" : ",");
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_scale.json";
  for (int I = 1; I != argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0) {
      Smoke = true;
    } else if (std::strncmp(argv[I], "--out=", 6) == 0) {
      OutPath = argv[I] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=FILE]\n", argv[0]);
      return 2;
    }
  }

  const unsigned Iters = Smoke ? 1 : 2;
  std::vector<SizeSpec> Sizes = sizeLadder();
  if (Smoke)
    Sizes.resize(2); // tiny + small: the curve's shape, not its reach.

  std::vector<SizeRow> Rows;
  for (const SizeSpec &S : Sizes) {
    SizeRow Row;
    Row.Name = S.Name;
    Row.TargetNodes = S.Shape.TargetNodes;

    auto T0 = Clock::now();
    std::string Source = workload::synthesizeProgram(S.Shape);
    Row.SynthesizeMs = msSince(T0);

    {
      parser::ParseResult PR = parser::parseModule(Source);
      if (!PR.succeeded()) {
        std::fprintf(stderr, "FATAL: %s failed to parse\n", S.Name);
        return 1;
      }
      workload::ShapeMetrics Met = workload::measureShape(*PR.M);
      Row.Functions = Met.NumFunctions;
      Row.Instructions = Met.NumInstructions;
    }

    for (const Config &C : Configs)
      Row.Configs.push_back(runConfig(Source, C, Iters));

    // Answer cross-checks within the O1 preset. Index 0 is the reference
    // configuration.
    const Fingerprint &Ref = Row.Configs[0].FP;
    if (!(Row.Configs[1].FP == Ref)) {
      std::fprintf(stderr, "FATAL: %s: --jobs=2 diverged from serial\n",
                   S.Name);
      std::abort();
    }
    const Fingerprint &Unify = Row.Configs[2].FP;
    if (!Unify.sameRun(Ref) || Unify.Checks < Ref.Checks) {
      std::fprintf(stderr,
                   "FATAL: %s: unify rung changed the answer "
                   "(or elided checks unsoundly)\n",
                   S.Name);
      std::abort();
    }

    std::printf("%-8s %8llu instrs %9llu nodes", Row.Name.c_str(),
                static_cast<unsigned long long>(Row.Instructions),
                static_cast<unsigned long long>(Ref.VFGNodes));
    for (const ConfigRow &C : Row.Configs)
      std::printf("  %s=%.0fms", C.Name.c_str(), C.AnalyzeMs);
    std::printf("\n");
    Rows.push_back(std::move(Row));
  }

  // The ladder must actually climb: strictly more VFG nodes per rung.
  for (size_t I = 1; I != Rows.size(); ++I) {
    if (Rows[I].Configs[0].FP.VFGNodes <=
        Rows[I - 1].Configs[0].FP.VFGNodes) {
      std::fprintf(stderr, "FATAL: size ladder is not monotone\n");
      std::abort();
    }
  }

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F, "{\n  \"schema\": \"usher-bench-scale-v1\",\n");
  std::fprintf(F, "  \"smoke\": %s,\n", Smoke ? "true" : "false");
  std::fprintf(F, "  \"iterations\": %u,\n", Iters);
  std::fprintf(F, "  \"hardware_concurrency\": %u,\n",
               ThreadPool::defaultJobs());
  std::fprintf(F, "  \"sizes\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SizeRow &Row = Rows[I];
    std::fprintf(F,
                 "    {\"name\": \"%s\", \"target_nodes\": %u, "
                 "\"synthesize_ms\": %.4f, \"functions\": %llu, "
                 "\"instructions\": %llu,\n"
                 "     \"fingerprints_equal\": true, "
                 "\"warnings_equal_all_configs\": true,\n"
                 "     \"configs\": [\n",
                 Row.Name.c_str(), Row.TargetNodes, Row.SynthesizeMs,
                 static_cast<unsigned long long>(Row.Functions),
                 static_cast<unsigned long long>(Row.Instructions));
    for (size_t J = 0; J != Row.Configs.size(); ++J)
      printConfigJson(F, Row.Configs[J], J + 1 == Row.Configs.size());
    std::fprintf(F, "    ]}%s\n", I + 1 != Rows.size() ? "," : "");
  }
  std::fprintf(F, "  ],\n");
  std::fprintf(F,
               "  \"summary\": {\"min_vfg_nodes\": %llu, "
               "\"max_vfg_nodes\": %llu}\n}\n",
               static_cast<unsigned long long>(
                   Rows.front().Configs[0].FP.VFGNodes),
               static_cast<unsigned long long>(
                   Rows.back().Configs[0].FP.VFGNodes));
  std::fclose(F);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
