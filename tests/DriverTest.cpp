//===- tests/DriverTest.cpp - Driver, contexts, cost model, mod/ref --------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/Usher.h"
#include "parser/Parser.h"
#include "runtime/CostModel.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace usher;
using core::ToolVariant;

namespace {

//===----------------------------------------------------------------------===//
// Context-sensitivity depth (k = 2 vs k = 1)
//===----------------------------------------------------------------------===//

/// Two nested identity calls. The undefined value enters through g's
/// *first* call site; with k=1 the inner call to f evicts that frame from
/// the context window, so the flow may exit through g's second call site
/// too. k=2 keeps both frames and prunes the unrealizable exit.
const char *TwoLevelSrc = R"(
  func f(v) { ret v; }
  func g(v) {
    r = f(v);
    ret r;
  }
  func main() {
    z = 0;
    if z goto setit;
    goto next;
  setit:
    u = 1;
  next:
    d = 5;
    a = g(u);
    b = g(d);
    if a goto l1;
    goto l2;
  l1:
    x = 0;
  l2:
    if b goto l3;
    ret 0;
  l3:
    ret 1;
  }
)";

TEST(ContextDepth, KOneLosesTheOuterFrame) {
  auto M = parser::parseModuleOrAbort(TwoLevelSrc);
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherTLAT;
  Opts.ContextK = 1;
  core::UsherResult R = core::runUsher(*M, Opts);
  // Both result branches look tainted: k=1 cannot match through two
  // nested, already-returned frames.
  EXPECT_EQ(R.Plan.countChecks(), 2u);
}

TEST(ContextDepth, KTwoMatchesThroughNestedCalls) {
  auto M = parser::parseModuleOrAbort(TwoLevelSrc);
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherTLAT;
  Opts.ContextK = 2;
  core::UsherResult R = core::runUsher(*M, Opts);
  // Only the branch on a (fed from the undefined argument) needs a check.
  EXPECT_EQ(R.Plan.countChecks(), 1u);
}

//===----------------------------------------------------------------------===//
// Driver statistics
//===----------------------------------------------------------------------===//

TEST(Driver, PopulatesStatisticsAndPhases) {
  auto M = parser::parseModuleOrAbort(R"(
    global g[2] uninit;
    func main() {
      p = g;
      x = *p;
      q = alloc heap 2 uninit;
      *q = x;
      if x goto a;
      ret 0;
    a:
      ret 1;
    }
  )");
  core::UsherResult R = core::runUsher(*M, core::UsherOptions());
  const core::UsherStatistics &S = R.Stats;
  EXPECT_GT(S.NumInstructions, 0u);
  EXPECT_GT(S.NumTopLevelVars, 0u);
  EXPECT_EQ(S.NumGlobalObjects, 1u);
  EXPECT_EQ(S.NumHeapObjects, 1u);
  EXPECT_GT(S.NumVFGNodes, 2u);
  EXPECT_GT(S.NumVFGEdges, 0u);
  EXPECT_GT(S.PercentUninitObjects, 99.0);
  EXPECT_FALSE(S.PhaseSeconds.empty());
  EXPECT_TRUE(S.PhaseSeconds.count("1.pointer-analysis"));
  EXPECT_TRUE(S.PhaseSeconds.count("4.definedness"));
  // Mod/ref has its own phase, listed between pointer analysis and
  // memory SSA.
  auto ModRef = S.PhaseSeconds.find("1b.modref");
  ASSERT_NE(ModRef, S.PhaseSeconds.end());
  EXPECT_EQ(std::prev(ModRef)->first, "1.pointer-analysis");
  EXPECT_EQ(std::next(ModRef)->first, "2.memory-ssa");
  // Analyses are kept alive for inspection.
  EXPECT_NE(R.G, nullptr);
  EXPECT_NE(R.Gamma, nullptr);
  EXPECT_NE(R.PA, nullptr);
}

TEST(Driver, VariantNamesAreStable) {
  EXPECT_STREQ(core::toolVariantName(ToolVariant::MSanFull), "MSAN");
  EXPECT_STREQ(core::toolVariantName(ToolVariant::UsherTL), "USHER-TL");
  EXPECT_STREQ(core::toolVariantName(ToolVariant::UsherTLAT),
               "USHER-TL+AT");
  EXPECT_STREQ(core::toolVariantName(ToolVariant::UsherOptI),
               "USHER-OPTI");
  EXPECT_STREQ(core::toolVariantName(ToolVariant::UsherFull), "USHER");
}

TEST(Driver, MSanVariantSkipsStaticAnalysis) {
  auto M = parser::parseModuleOrAbort("func main() { ret 0; }");
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::MSanFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_EQ(R.G, nullptr) << "full instrumentation needs no VFG";
  EXPECT_EQ(R.Gamma, nullptr);
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

TEST(CostModelTest, MemoryShadowTrafficCostsMoreThanRegisterMoves) {
  runtime::CostModel CM;
  core::ShadowOp SetVar;
  SetVar.K = core::ShadowOp::Kind::SetVar;
  core::ShadowOp LoadMem;
  LoadMem.K = core::ShadowOp::Kind::LoadMem;
  EXPECT_GT(CM.shadowCost(LoadMem), CM.shadowCost(SetVar));

  core::ShadowOp SetObj;
  SetObj.K = core::ShadowOp::Kind::SetMemObject;
  EXPECT_GT(CM.shadowCost(SetObj, /*Cells=*/16),
            CM.shadowCost(SetObj, /*Cells=*/1))
      << "whole-object initialization scales with size";
}

TEST(CostModelTest, EveryInstructionKindHasPositiveBaseCost) {
  auto M = parser::parseModuleOrAbort(R"(
    func callee(a) { ret a; }
    func main() {
      x = 1;
      y = x + 2;
      p = alloc stack 2 uninit;
      q = gep p, 1;
      *q = y;
      z = *q;
      w = callee(z);
      if w goto done;
      goto done;
    done:
      ret w;
    }
  )");
  runtime::CostModel CM;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        EXPECT_GT(CM.baseCost(*I), 0.0);
}

//===----------------------------------------------------------------------===//
// Mod/ref with heap cloning
//===----------------------------------------------------------------------===//

TEST(ModRefCloning, WrapperCallSitesSeeClonesNotOrigins) {
  auto M = parser::parseModuleOrAbort(R"(
    func mk() {
      p = alloc heap 1 uninit;
      ret p;
    }
    func main() {
      a = mk();
      *a = 1;
      ret 0;
    }
  )");
  analysis::CallGraph CG(*M);
  analysis::PointerAnalysis PA(*M, CG);
  analysis::ModRefAnalysis MR(*M, CG, PA);

  const ir::Function *Mk = M->findFunction("mk");
  ASSERT_TRUE(PA.isAllocWrapper(Mk));
  const ir::MemObject *Origin = PA.cloneOrigins(Mk)[0];
  const ir::CallInst *Call = CG.callSitesIn(M->findFunction("main"))[0];
  const ir::MemObject *Clone = PA.clonesAt(Call)[0];

  BitSet AtSite = MR.modAt(Call);
  EXPECT_TRUE(AtSite.test(PA.locId(Clone, 0)))
      << "the call site allocates the clone";
  EXPECT_FALSE(AtSite.test(PA.locId(Origin, 0)))
      << "the origin stays confined to the wrapper";
  // The wrapper itself still mods its own origin object.
  EXPECT_TRUE(MR.mod(Mk).test(PA.locId(Origin, 0)));
}

//===----------------------------------------------------------------------===//
// Interpreter + guided plans on arrays
//===----------------------------------------------------------------------===//

TEST(GuidedArrays, InitLoopThenReadIsQuietButChecked) {
  // A classic fill-then-read array: dynamically defined, statically
  // unprovable (weak updates only). Usher must keep the checks but report
  // nothing at run time.
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      a = alloc heap 8 uninit array;
      i = 0;
    fill:
      c = i < 8;
      if c goto fbody;
      goto readit;
    fbody:
      p = gep a, i;
      *p = i;
      i = i + 1;
      goto fill;
    readit:
      q = gep a, 5;
      v = *q;
      if v goto done;
      ret 0;
    done:
      ret v;
    }
  )");
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  EXPECT_GE(R.Plan.countChecks(), 1u) << "arrays stay unprovable";
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.Reason, runtime::ExitReason::Finished);
  EXPECT_EQ(Rep.MainResult, 5);
  EXPECT_TRUE(Rep.ToolWarnings.empty()) << "no false positives";
}

TEST(GuidedArrays, PartialInitIsCaught) {
  auto M = parser::parseModuleOrAbort(R"(
    func main() {
      a = alloc heap 8 uninit array;
      p = gep a, 0;
      *p = 1;
      q = gep a, 6;
      v = *q;
      if v goto done;
      ret 0;
    done:
      ret 1;
    }
  )");
  core::UsherOptions Opts;
  Opts.Variant = ToolVariant::UsherFull;
  core::UsherResult R = core::runUsher(*M, Opts);
  runtime::ExecutionReport Rep = runtime::Interpreter(*M, &R.Plan).run();
  EXPECT_EQ(Rep.ToolWarnings.size(), 1u);
  EXPECT_EQ(Rep.OracleWarnings.size(), 1u);
}

} // namespace
