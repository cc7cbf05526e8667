//===- tests/ReresolutionTest.cpp - Base-relative Opt II re-resolution ----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Opt II re-resolves definedness on the redirected graph relative to the
/// base Gamma: redirects only delete dependency edges, so the resolution
/// walks only the nodes bottom in the base. These tests pin that the
/// shortcut is invisible: over the SPEC-like suite, the tests/inputs
/// corpus and synthesized programs (all at O0+IM), the base-relative
/// Gamma equals a resolution over the whole redirected graph bit for bit
/// and charges the same number of budget steps. A run must see redirects
/// on enough inputs that the comparison cannot pass vacuously. Injected
/// Opt II exhaustion lands on the pinned ladder rungs.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/Definedness.h"
#include "core/OptII.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace usher;

namespace {

/// Budget steps charged by one resolution, counted by an armed token
/// whose limit is never reached.
struct Counted {
  std::unique_ptr<core::Definedness> Gamma;
  uint64_t Steps = 0;
};

Counted resolve(const vfg::VFG &G, const core::RedirectOverlay &Redirects) {
  BudgetLimits Unreachable;
  Unreachable.MaxStepsPerPhase = ~0ull >> 1;
  Budget B(Unreachable);
  B.beginPhase(BudgetPhase::OptII);
  Counted C;
  C.Gamma = std::make_unique<core::Definedness>(
      G, core::DefinednessOptions(), &Redirects, &B);
  C.Steps = B.stepsUsed();
  EXPECT_FALSE(C.Gamma->wasPessimized());
  return C;
}

/// Runs the pipeline on \p Source up to Opt II and compares the
/// base-relative re-resolution with the unrestricted one. Returns whether
/// Opt II redirected anything (false also for unparsable inputs).
bool checkReresolution(const std::string &Source, const std::string &Tag) {
  parser::ParseResult PR = parser::parseModule(Source);
  if (!PR.succeeded())
    return false;
  ir::Module &M = *PR.M;
  transforms::runPreset(M, transforms::OptPreset::O0IM);
  analysis::CallGraph CG(M);
  analysis::PointerAnalysis PA(M, CG);
  analysis::ModRefAnalysis MR(M, CG, PA);
  ssa::MemorySSA SSA(M, PA, MR);
  vfg::VFG G = vfg::VFGBuilder(M, SSA, PA, CG).build();
  core::Definedness Base(G, core::DefinednessOptions());
  core::OptIIResult O2 =
      core::runRedundantCheckElimination(M, SSA, PA, CG, G, Base);
  EXPECT_FALSE(O2.Exhausted) << Tag;
  if (O2.Redirects.empty())
    return false;
  EXPECT_EQ(O2.Redirects.Base, &Base) << Tag;

  Counted Relative = resolve(G, O2.Redirects);
  core::RedirectOverlay Whole = O2.Redirects;
  Whole.Base = nullptr;
  Counted Unrestricted = resolve(G, Whole);

  EXPECT_EQ(Relative.Steps, Unrestricted.Steps) << Tag;
  uint32_t Mismatches = 0, OutsideBase = 0;
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    bool Bottom = Relative.Gamma->mayBeUndefined(Id);
    Mismatches += Bottom != Unrestricted.Gamma->mayBeUndefined(Id);
    OutsideBase += Bottom && Base.isDefined(Id);
  }
  EXPECT_EQ(Mismatches, 0u) << Tag;
  EXPECT_EQ(OutsideBase, 0u) << Tag;
  // Redirects remove flows, so the redirected Gamma can only shrink.
  EXPECT_LE(Relative.Gamma->numUndefinedNodes(), Base.numUndefinedNodes())
      << Tag;
  return true;
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(Reresolution, BaseRelativeEqualsUnrestricted) {
  unsigned Inputs = 0, WithRedirects = 0;
  auto Check = [&](const std::string &Source, const std::string &Tag) {
    ++Inputs;
    WithRedirects += checkReresolution(Source, Tag);
  };

  for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
    Check(P.Source, P.Name);

  std::vector<std::filesystem::path> Corpus;
  for (const auto &E :
       std::filesystem::recursive_directory_iterator(USHER_TEST_INPUT_DIR))
    if (E.is_regular_file() && E.path().extension() == ".tc")
      Corpus.push_back(E.path());
  std::sort(Corpus.begin(), Corpus.end());
  ASSERT_GE(Corpus.size(), 18u);
  for (const auto &P : Corpus)
    Check(readFile(P), P.string());

  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    workload::ShapeSpec S;
    S.Seed = Seed;
    S.TargetNodes = 10'000;
    Check(workload::synthesizeProgram(S), "usher-gen seed " +
                                              std::to_string(Seed));
  }

  EXPECT_GE(Inputs, 15u + 18u + 50u);
  EXPECT_GE(WithRedirects, 5u)
      << "too few inputs exercise Opt II for the comparison to mean much";
}

/// Runs the full pipeline on \p Source with Opt II exhaustion injected at
/// step \p AtStep and returns the degradation summary.
std::string degradationAt(const char *Source, uint64_t AtStep) {
  auto M = parser::parseModuleOrAbort(Source);
  transforms::runPreset(*M, transforms::OptPreset::O0IM);
  core::UsherOptions Opts;
  Opts.Fault = parseFaultSpec("opt2@" + std::to_string(AtStep));
  EXPECT_TRUE(Opts.Fault.has_value());
  core::UsherResult R = core::runUsher(*M, Opts);
  return R.Degradation.summary();
}

/// Where injected Opt II exhaustion lands is a function of the steps
/// Algorithm 1 and the re-resolution charge. On 179.art, Algorithm 1
/// charges steps 0..26 and the re-resolution the rest, up to step 113;
/// these rungs are the ones the resolution over the whole redirected
/// graph lands on, so the base-relative one charges the same steps.
TEST(Reresolution, InjectedOptIIExhaustionLandsOnPinnedRungs) {
  const workload::BenchmarkProgram *Art = nullptr;
  for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
    if (P.Name == "179.art")
      Art = &P;
  ASSERT_NE(Art, nullptr);
  const std::string Redirects = "degraded USHER -> USHER-OPTI: opt2 hit "
                                "injected fault (Opt II redirects discarded)";
  const std::string Reresolution =
      "degraded USHER -> USHER-OPTI: opt2 hit injected fault (Opt II "
      "re-resolution discarded)";
  EXPECT_EQ(degradationAt(Art->Source, 0), Redirects);
  EXPECT_EQ(degradationAt(Art->Source, 26), Redirects);
  EXPECT_EQ(degradationAt(Art->Source, 27), Reresolution);
  EXPECT_EQ(degradationAt(Art->Source, 113), Reresolution);
  EXPECT_EQ(degradationAt(Art->Source, 114), "");
}

} // namespace
