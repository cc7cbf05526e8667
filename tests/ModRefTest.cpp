//===- tests/ModRefTest.cpp - Mod/ref against a naive fixed point ---------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ModRefAnalysis closes mod/ref sets bottom-up over the call graph's SCCs
/// and iterates only inside recursive ones. This checks every function's
/// sets against a reference written here: sweep all functions in module
/// order, unioning each call site's callee sets (clones substituted for
/// wrapper origins), until nothing changes.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "transforms/Transforms.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace usher;
using namespace usher::ir;

namespace {

struct RefSets {
  BitSet Mod, Ref;
};

/// \p Callee's set as seen at \p Call: origins of the wrapper's cloned
/// objects replaced by this site's clones.
BitSet atSite(const BitSet &Callee, const analysis::PointerAnalysis &PA,
              const CallInst *Call) {
  BitSet Out = Callee;
  if (PA.clonesAt(Call).empty())
    return Out;
  for (const MemObject *Origin : PA.cloneOrigins(Call->getCallee()))
    for (unsigned Loc : PA.locsOfObject(Origin))
      Out.clear(Loc);
  for (const MemObject *Clone : PA.clonesAt(Call))
    for (unsigned Loc : PA.locsOfObject(Clone))
      if (Callee.test(
              PA.locId(Clone->getCloneOrigin(), PA.location(Loc).Field)))
        Out.set(Loc);
  return Out;
}

std::map<const Function *, RefSets>
naiveModRef(const Module &M, const analysis::CallGraph &CG,
            const analysis::PointerAnalysis &PA) {
  std::map<const Function *, RefSets> Sets;
  for (const auto &F : M.functions()) {
    RefSets &S = Sets[F.get()];
    S.Mod.resize(PA.numLocations());
    S.Ref.resize(PA.numLocations());
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions()) {
        if (const auto *St = dyn_cast<StoreInst>(I.get())) {
          for (uint32_t Loc : PA.pointsTo(St->getPtr()))
            S.Mod.set(Loc);
        } else if (const auto *Ld = dyn_cast<LoadInst>(I.get())) {
          for (uint32_t Loc : PA.pointsTo(Ld->getPtr()))
            S.Ref.set(Loc);
        } else if (const auto *A = dyn_cast<AllocInst>(I.get())) {
          for (unsigned Loc : PA.locsOfObject(A->getObject()))
            S.Mod.set(Loc);
        }
      }
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &F : M.functions())
      for (const CallInst *Call : CG.callSitesIn(F.get())) {
        const RefSets &Callee = Sets.at(Call->getCallee());
        BitSet Mod = atSite(Callee.Mod, PA, Call);
        BitSet Ref = atSite(Callee.Ref, PA, Call);
        RefSets &S = Sets.at(F.get());
        Changed |= S.Mod.unionWith(Mod);
        Changed |= S.Ref.unionWith(Ref);
      }
  }
  return Sets;
}

/// Checks \p Source's mod/ref sets (as parsed and at O0+IM); returns how
/// many functions were compared.
size_t expectMatchesNaive(const std::string &Name, const std::string &Source) {
  size_t Compared = 0;
  for (bool Optimize : {false, true}) {
    parser::ParseResult PR = parser::parseModule(Source);
    if (!PR.succeeded())
      return 0;
    Module &M = *PR.M;
    if (Optimize)
      transforms::runPreset(M, transforms::OptPreset::O0IM);
    analysis::CallGraph CG(M);
    analysis::PointerAnalysis PA(M, CG);
    analysis::ModRefAnalysis MR(M, CG, PA);
    auto Naive = naiveModRef(M, CG, PA);
    for (const auto &F : M.functions()) {
      EXPECT_EQ(MR.mod(F.get()).toVector(), Naive.at(F.get()).Mod.toVector())
          << Name << (Optimize ? " O0+IM" : "") << ": mod of "
          << F->getName();
      EXPECT_EQ(MR.ref(F.get()).toVector(), Naive.at(F.get()).Ref.toVector())
          << Name << (Optimize ? " O0+IM" : "") << ": ref of "
          << F->getName();
      ++Compared;
    }
  }
  return Compared;
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST(ModRef, SuiteMatchesNaiveFixpoint) {
  size_t Compared = 0;
  for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
    Compared += expectMatchesNaive(P.Name, P.Source);
  EXPECT_GE(Compared, 100u);
}

TEST(ModRef, InputsMatchNaiveFixpoint) {
  const std::filesystem::path InputDir(USHER_TEST_INPUT_DIR);
  size_t Compared = 0;
  for (const auto &E : std::filesystem::recursive_directory_iterator(InputDir))
    if (E.is_regular_file() && E.path().extension() == ".tc")
      Compared += expectMatchesNaive(E.path().string(), readFile(E.path()));
  EXPECT_GT(Compared, 17u);
}

TEST(ModRef, RecursiveSynthesizedProgramsMatchNaiveFixpoint) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    workload::ShapeSpec S;
    S.Seed = Seed;
    S.TargetNodes = 4000;
    S.RecursionRings = 4;
    expectMatchesNaive("usher-gen --scc=4 --seed=" + std::to_string(Seed),
                       workload::synthesizeProgram(S));
  }
}

/// A call chain declared callers first: the old sweep-until-stable loop
/// lifted the sets one level per sweep here.
TEST(ModRef, CallerFirstChainMatchesNaiveFixpoint) {
  std::string Source = "global g uninit;\n";
  const unsigned N = 40;
  for (unsigned I = 0; I != N; ++I)
    Source += "func f" + std::to_string(I) + "() {\n  f" +
              std::to_string(I + 1) + "();\n}\n";
  Source += "func f" + std::to_string(N) + "() {\n  *g = 1;\n  x = *g;\n}\n";
  Source += "func main() {\n  f0();\n  ret 0;\n}\n";
  EXPECT_EQ(expectMatchesNaive("chain", Source), 2 * (N + 2));
}

} // namespace
