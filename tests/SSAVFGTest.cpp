//===- tests/SSAVFGTest.cpp - Memory SSA and VFG unit tests ----------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "vfg/VFG.h"

#include <gtest/gtest.h>

using namespace usher;
using namespace usher::ssa;
using vfg::UpdateKind;
using vfg::VFG;
using vfg::VFGBuilder;

namespace {

/// Bundles the analyses the SSA/VFG tests need.
struct Pipeline {
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<analysis::CallGraph> CG;
  std::unique_ptr<analysis::PointerAnalysis> PA;
  std::unique_ptr<analysis::ModRefAnalysis> MR;
  std::unique_ptr<MemorySSA> SSA;

  explicit Pipeline(const char *Src) {
    M = parser::parseModuleOrAbort(Src);
    CG = std::make_unique<analysis::CallGraph>(*M);
    PA = std::make_unique<analysis::PointerAnalysis>(*M, *CG);
    MR = std::make_unique<analysis::ModRefAnalysis>(*M, *CG, *PA);
    SSA = std::make_unique<MemorySSA>(*M, *PA, *MR);
  }

  VFG buildVFG(vfg::VFGOptions Opts = vfg::VFGOptions()) {
    return VFGBuilder(*M, *SSA, *PA, *CG, Opts).build();
  }

  const ir::Instruction *instAt(const char *Fn, unsigned Block,
                                unsigned Idx) const {
    return M->findFunction(Fn)
        ->blocks()[Block]
        ->instructions()[Idx]
        .get();
  }

  /// The chi node store \p St defines for location \p Loc.
  uint32_t storeChiNode(const VFG &G, const ir::Instruction *St,
                        uint32_t Loc) const {
    const ir::Function *Fn = St->getParent()->getParent();
    for (const MemDef &Chi : SSA->get(Fn).instInfo(St)->Chis)
      if (Chi.Loc == Loc)
        return G.nodeId(Fn, {Space::Memory, Loc}, Chi.NewVersion);
    ADD_FAILURE() << "store has no chi for location " << Loc;
    return VFG::RootT;
  }
};

//===----------------------------------------------------------------------===//
// Memory SSA
//===----------------------------------------------------------------------===//

TEST(MemorySSATest, MuAndChiPlacement) {
  Pipeline P(R"(
    func main() {
      p = alloc stack 1 uninit;
      *p = 1;
      x = *p;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const auto &Insts = Main->getEntry()->instructions();

  // Alloc has a chi for the (single) field.
  const InstSSA *AllocInfo = FS.instInfo(Insts[0].get());
  ASSERT_NE(AllocInfo, nullptr);
  ASSERT_EQ(AllocInfo->Chis.size(), 1u);
  EXPECT_EQ(AllocInfo->Chis[0].Kind, ChiKind::Alloc);

  // Store: one chi, with the alloc's version as its old version.
  const InstSSA *StoreInfo = FS.instInfo(Insts[1].get());
  ASSERT_EQ(StoreInfo->Chis.size(), 1u);
  EXPECT_EQ(StoreInfo->Chis[0].Kind, ChiKind::Store);
  EXPECT_EQ(StoreInfo->Chis[0].OldVersion, AllocInfo->Chis[0].NewVersion);

  // Load: one mu reading the store's version.
  const InstSSA *LoadInfo = FS.instInfo(Insts[2].get());
  ASSERT_EQ(LoadInfo->Mus.size(), 1u);
  EXPECT_EQ(LoadInfo->Mus[0].Version, StoreInfo->Chis[0].NewVersion);
}

TEST(MemorySSATest, PhisMergeMemoryVersionsAtJoins) {
  Pipeline P(R"(
    global g[1] uninit;
    func main() {
      p = g;
      c = 1;
      if c goto wr;
      goto join;
    wr:
      *p = 7;
      goto join;
    join:
      x = *p;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const ir::BasicBlock *Join = nullptr;
  for (const auto &BB : Main->blocks())
    if (BB->getName() == "join")
      Join = BB.get();
  ASSERT_NE(Join, nullptr);

  bool SawMemoryPhi = false;
  for (const PhiNode &Phi : FS.phisIn(Join)) {
    if (Phi.Var.Sp != Space::Memory)
      continue;
    SawMemoryPhi = true;
    EXPECT_EQ(Phi.Incoming.size(), 2u);
  }
  EXPECT_TRUE(SawMemoryPhi);
}

TEST(MemorySSATest, CallsCarryCalleeEffects) {
  Pipeline P(R"(
    global g[1] init;
    func bump() {
      p = g;
      v = *p;
      v = v + 1;
      *p = v;
      ret;
    }
    func main() {
      bump();
      ret 0;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const ir::Instruction *Call = Main->getEntry()->instructions()[0].get();
  const InstSSA *Info = FS.instInfo(Call);
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);

  bool MuOnG = false, ChiOnG = false;
  for (const MemUse &Mu : Info->Mus)
    MuOnG |= Mu.Loc == GLoc;
  for (const MemDef &Chi : Info->Chis)
    ChiOnG |= Chi.Loc == GLoc && Chi.Kind == ChiKind::CallMod;
  EXPECT_TRUE(MuOnG) << "call must read g for the callee";
  EXPECT_TRUE(ChiOnG) << "call must def g for the callee's store";

  // The callee lists g as both virtual input and output parameter.
  const FunctionSSA &BumpSSA = P.SSA->get(P.M->findFunction("bump"));
  EXPECT_EQ(std::count(BumpSSA.formalIns().begin(),
                       BumpSSA.formalIns().end(), GLoc),
            1);
  EXPECT_EQ(std::count(BumpSSA.formalOuts().begin(),
                       BumpSSA.formalOuts().end(), GLoc),
            1);
}

TEST(MemorySSATest, TopLevelVersionsCountDefs) {
  Pipeline P(R"(
    func main() {
      x = 1;
      x = 2;
      x = 3;
      ret x;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  uint32_t XId = Main->findVariable("x")->getId();
  // Version 0 (entry) plus three defs.
  EXPECT_EQ(FS.numVersions({Space::TopLevel, XId}), 4u);
  const ir::Instruction *Ret = Main->getEntry()->instructions()[3].get();
  EXPECT_EQ(FS.instInfo(Ret)->TLUses[0].Version, 3u);
}

TEST(MemorySSATest, UnreachableCodeAndUntouchedLocations) {
  Pipeline P(R"(
    global g[1] uninit;
    global h[1] uninit;
    func main() {
      p = g;
      c = 1;
      if c goto wr;
      goto join;
    wr:
      *p = 7;
      goto join;
    join:
      x = *p;
      ret x;
    dead:
      *p = 8;
      goto join;
    }
    func other() {
      q = h;
      *q = 1;
      ret;
    }
  )");
  const ir::Function *Main = P.M->findFunction("main");
  const FunctionSSA &FS = P.SSA->get(Main);
  const ir::BasicBlock *Entry = nullptr, *Join = nullptr, *Dead = nullptr;
  for (const auto &BB : Main->blocks()) {
    if (BB->getName() == "join")
      Join = BB.get();
    else if (BB->getName() == "dead")
      Dead = BB.get();
  }
  Entry = Main->getEntry();
  ASSERT_NE(Join, nullptr);
  ASSERT_NE(Dead, nullptr);

  // Instructions of an unreachable block carry no SSA annotations, and the
  // block holds no phis; reachable instructions all have annotations.
  for (const auto &I : Dead->instructions())
    EXPECT_EQ(FS.instInfo(I.get()), nullptr);
  for (const auto &I : Join->instructions())
    EXPECT_NE(FS.instInfo(I.get()), nullptr);
  EXPECT_TRUE(FS.phisIn(Dead).empty());
  // A reachable block without phis.
  EXPECT_TRUE(FS.phisIn(Entry).empty());

  // The join merges g's versions from its two reachable predecessors
  // only; the unreachable one contributes no incoming arm.
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  bool SawG = false;
  for (const PhiNode &Phi : FS.phisIn(Join)) {
    if (Phi.Var.Sp != Space::Memory || Phi.Var.Id != GLoc)
      continue;
    SawG = true;
    ASSERT_EQ(Phi.Incoming.size(), 2u);
    for (const auto &[Pred, Version] : Phi.Incoming)
      EXPECT_NE(Pred, Dead);
  }
  EXPECT_TRUE(SawG);

  // h is touched only by other(): main has no versions of it at all.
  uint32_t HLoc = P.PA->locId(P.M->findGlobal("h"), 0);
  EXPECT_EQ(std::count(FS.formalIns().begin(), FS.formalIns().end(), HLoc),
            0);
  EXPECT_EQ(FS.numVersions({Space::Memory, HLoc}), 0u);
  EXPECT_EQ(FS.numVersions({Space::Memory, GLoc}), 3u)
      << "entry, the store in wr, the phi in join";
}

//===----------------------------------------------------------------------===//
// VFG construction
//===----------------------------------------------------------------------===//

TEST(VFGTest, StrongUpdateOnGlobalScalar) {
  Pipeline P(R"(
    global g[1] uninit;
    func main() {
      p = g;
      *p = 1;
      x = *p;
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Instruction *Store = P.instAt("main", 0, 1);
  uint32_t GLoc = P.PA->locId(P.M->findGlobal("g"), 0);
  EXPECT_EQ(G.storeUpdateKind(P.storeChiNode(G, Store, GLoc)),
            UpdateKind::Strong);
  EXPECT_EQ(G.numStrongStoreChis(), 1u);
}

TEST(VFGTest, WeakUpdateOnArray) {
  Pipeline P(R"(
    func main() {
      p = alloc heap 8 uninit array;
      q = gep p, 3;
      *q = 1;
      x = *q;
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Instruction *Store = P.instAt("main", 0, 2);
  auto Pts = P.PA->pointsTo(
      P.M->findFunction("main")->findVariable("q"));
  ASSERT_EQ(Pts.size(), 1u);
  EXPECT_EQ(G.storeUpdateKind(P.storeChiNode(G, Store, Pts[0])),
            UpdateKind::Weak);
}

TEST(VFGTest, WeakUpdateWhenPointerIsAmbiguous) {
  Pipeline P(R"(
    func main() {
      a = alloc stack 1 uninit;
      b = alloc stack 1 uninit;
      c = 1;
      if c goto pickb;
      p = a;
      goto st;
    pickb:
      p = b;
      goto st;
    st:
      *p = 9;
      ret 0;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numStrongStoreChis(), 0u);
  EXPECT_EQ(G.numWeakStoreChis(), 2u) << "one weak chi per pointee";
}

TEST(VFGTest, SemiStrongUpdateOnFigure6Pattern) {
  // The loop from Figure 6: a fresh heap object per trip, stored through
  // a pointer that provably holds the freshest instance.
  Pipeline P(R"(
    func main() {
      i = 0;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      q = alloc heap 1 uninit;
      p = q;
      *p = i;
      v = *q;
      i = i + v;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numSemiStrongStoreChis(), 1u);
  EXPECT_EQ(G.numWeakStoreChis(), 0u);
  EXPECT_EQ(G.semiStrongCuts().size(), 1u);
}

TEST(VFGTest, SemiStrongDisabledFallsBackToWeak) {
  Pipeline P(R"(
    func main() {
      i = 0;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      q = alloc heap 1 uninit;
      *q = i;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  vfg::VFGOptions Opts;
  Opts.SemiStrongUpdates = false;
  VFG G = P.buildVFG(Opts);
  EXPECT_EQ(G.numSemiStrongStoreChis(), 0u);
  EXPECT_EQ(G.numWeakStoreChis(), 1u);
}

TEST(VFGTest, SemiStrongRequiresDominatingAnchor) {
  // The pointer is live around the back edge (a phi), so it may hold an
  // *older* instance: the bypass must be refused.
  Pipeline P(R"(
    func main() {
      i = 0;
      q = alloc heap 1 uninit;
    loop:
      c = i < 4;
      if c goto body;
      goto out;
    body:
      *q = i;
      q = alloc heap 1 uninit;
      i = i + 1;
      goto loop;
    out:
      ret i;
    }
  )");
  VFG G = P.buildVFG();
  EXPECT_EQ(G.numSemiStrongStoreChis(), 0u)
      << "phi-carried pointers must not be treated as freshest-instance";
}

TEST(VFGTest, CriticalUsesCoverLoadsStoresBranches) {
  Pipeline P(R"(
    func main() {
      p = alloc stack 1 uninit;
      *p = 1;
      x = *p;
      if x goto done;
      x = 0;
    done:
      ret x;
    }
  )");
  VFG G = P.buildVFG();
  unsigned Loads = 0, Stores = 0, Branches = 0;
  for (const VFG::CriticalUse &Use : G.criticalUses()) {
    Loads += isa<ir::LoadInst>(Use.I);
    Stores += isa<ir::StoreInst>(Use.I);
    Branches += isa<ir::CondBrInst>(Use.I);
  }
  EXPECT_EQ(Loads, 1u);
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Branches, 1u);
}

TEST(VFGTest, RootsExistAndConstantsFlowFromT) {
  Pipeline P("func main() { x = 1; ret x; }");
  VFG G = P.buildVFG();
  ASSERT_GE(G.numNodes(), 3u);
  EXPECT_TRUE(G.isRoot(VFG::RootT));
  EXPECT_TRUE(G.isRoot(VFG::RootF));
  // x's def depends on T (constant copy).
  const ir::Function *Main = P.M->findFunction("main");
  uint32_t XNode = G.nodeId(
      Main, {Space::TopLevel, Main->findVariable("x")->getId()}, 1);
  ASSERT_EQ(G.deps(XNode).size(), 1u);
  EXPECT_EQ(G.deps(XNode)[0].Node, VFG::RootT);
}

TEST(VFGTest, InterproceduralEdgesAreLabeled) {
  Pipeline P(R"(
    func id(v) { ret v; }
    func main() {
      a = 1;
      r = id(a);
      ret r;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Function *Id = P.M->findFunction("id");
  uint32_t Formal =
      G.nodeId(Id, {Space::TopLevel, Id->findVariable("v")->getId()}, 0);
  ASSERT_EQ(G.deps(Formal).size(), 1u);
  EXPECT_EQ(G.deps(Formal)[0].Kind, vfg::EdgeKind::Call);
  EXPECT_NE(G.deps(Formal)[0].CallSite, ~0u);
}

TEST(VFGTest, DuplicateEdgesAreAddedOnce) {
  Pipeline P(R"(
    func main() {
      x = 1;
      y = x + x;
      ret y;
    }
  )");
  VFG G = P.buildVFG();
  const ir::Function *Main = P.M->findFunction("main");
  uint32_t XNode = G.nodeId(
      Main, {Space::TopLevel, Main->findVariable("x")->getId()}, 1);
  uint32_t YNode = G.nodeId(
      Main, {Space::TopLevel, Main->findVariable("y")->getId()}, 1);
  ASSERT_EQ(G.deps(YNode).size(), 1u);
  EXPECT_EQ(G.deps(YNode)[0].Node, XNode);
  ASSERT_EQ(G.users(XNode).size(), 1u);
  EXPECT_EQ(G.users(XNode)[0].Node, YNode);
}

/// users() is the exact mirror of deps(): every dependency edge v -> w
/// appears once among w's users as v (same kind and call site), and
/// nothing else does. Dependency slots map back to their owners.
TEST(VFGTest, UsersMirrorDeps) {
  Pipeline P(R"(
    global g[2] uninit;
    func set(p, v) {
      *p = v;
      ret 0;
    }
    func get(p) {
      x = *p;
      ret x;
    }
    func main() {
      h = alloc heap 2 uninit;
      q = gep h, 1;
      c = 1;
      s = set(h, c);
      s = set(q, c);
      if c goto other;
      s = set(g, 2);
      goto join;
    other:
      s = set(g, c);
    join:
      a = get(h);
      b = get(g);
      d = a + b;
      e = d + d;
      ret e;
    }
  )");
  VFG G = P.buildVFG();
  uint64_t Users = 0;
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    Users += G.users(Id).size();
    for (uint32_t I = 0; I != G.deps(Id).size(); ++I) {
      const vfg::Edge &D = G.deps(Id)[I];
      EXPECT_EQ(G.depOwner(G.depSlot(Id) + I), Id);
      unsigned Mirrors = 0;
      for (const vfg::Edge &U : G.users(D.Node))
        Mirrors += U == vfg::Edge{Id, D.Kind, D.CallSite};
      EXPECT_EQ(Mirrors, 1u) << "edge n" << Id << " -> n" << D.Node;
    }
    for (const vfg::Edge &U : G.users(Id)) {
      unsigned Mirrors = 0;
      for (const vfg::Edge &D : G.deps(U.Node))
        Mirrors += D == vfg::Edge{Id, U.Kind, U.CallSite};
      EXPECT_EQ(Mirrors, 1u) << "user n" << U.Node << " of n" << Id;
    }
  }
  EXPECT_EQ(Users, G.numEdges());
  EXPECT_GT(G.numEdges(), 20u);
}

} // namespace
