//===- core/OptII.cpp - Redundant check elimination -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/OptII.h"

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"

#include <unordered_set>

using namespace usher;
using namespace usher::core;
using namespace usher::ir;
using ssa::DefDesc;
using ssa::FunctionSSA;
using ssa::Space;
using vfg::Edge;
using vfg::VFG;

namespace {

/// True if \p Loc stands for exactly one runtime cell: a non-collapsed
/// field of a global, or of a stack object whose owner never recurses.
bool isConcreteLoc(const analysis::PointerAnalysis &PA,
                   const analysis::CallGraph &CG, uint32_t Loc) {
  if (PA.isCollapsedLoc(Loc))
    return false;
  const MemObject *Obj = PA.location(Loc).Obj;
  if (Obj->isGlobal())
    return true;
  if (!Obj->isStack())
    return false;
  const Instruction *Site = Obj->getAllocSite();
  return Site && !CG.isRecursive(Site->getParent()->getParent());
}

/// The statement that computes \p Node, or null for entries and phis.
const Instruction *definingStatement(const VFG &G, const ssa::MemorySSA &SSA,
                                     uint32_t Node) {
  if (G.isRoot(Node))
    return nullptr;
  const VFG::NodeData &N = G.node(Node);
  const DefDesc &Desc = SSA.get(N.Fn).defAt(N.Slot, N.Version);
  return Desc.K == DefDesc::Kind::Inst ? Desc.I : nullptr;
}

} // namespace

namespace {

/// Stage-1 output for one critical use: the must-flow-from closure plus
/// the dominated outside users whose edges into it will be redirected.
/// Pure function of the immutable analyses, so it can run on any worker.
struct UsePlan {
  bool Redirecting = false;
  std::unordered_set<uint32_t> Closure;
  std::vector<uint32_t> Redirectees;
};

/// Computes the plan for \p Use, charging \p B exactly as the serial
/// algorithm does: one step per use, one per closure worklist pop, one
/// per candidate examined. Returns false on budget exhaustion.
bool planUse(const VFG::CriticalUse &Use, const ssa::MemorySSA &SSA,
             const analysis::PointerAnalysis &PA,
             const analysis::CallGraph &CG, const VFG &G,
             const Definedness &BaseGamma, Budget *B, UsePlan &Plan) {
  constexpr size_t MaxClosure = 128;
  if (B && !B->step())
    return false;
  // Only checks that are actually performed can justify suppressing
  // dominated re-detections.
  if (BaseGamma.isDefined(Use.Node))
    return true;
  const Function *Fn = G.node(Use.Node).Fn;
  const FunctionSSA &FS = SSA.get(Fn);

  // Compute the must-flow-from closure X of the checked variable
  // (Definition 2), plus concrete memory locations feeding loads in it
  // (Algorithm 1, line 4).
  std::unordered_set<uint32_t> &Closure = Plan.Closure;
  std::vector<uint32_t> Work{Use.Node};
  bool TooBig = false;
  while (!Work.empty() && !TooBig) {
    if (B && !B->step())
      return false;
    uint32_t Node = Work.back();
    Work.pop_back();
    if (!Closure.insert(Node).second)
      continue;
    if (Closure.size() > MaxClosure) {
      TooBig = true;
      break;
    }
    const Instruction *I = definingStatement(G, SSA, Node);
    if (!I)
      continue;
    if (isa<CopyInst>(I) || isa<BinOpInst>(I)) {
      for (const Edge &E : G.deps(Node))
        if (!G.isRoot(E.Node))
          Work.push_back(E.Node);
    } else if (isa<LoadInst>(I) && G.node(Node).Key.Sp == Space::TopLevel) {
      for (const Edge &E : G.deps(Node)) {
        if (G.isRoot(E.Node))
          continue;
        const VFG::NodeData &Mem = G.node(E.Node);
        if (Mem.Key.Sp == Space::Memory && isConcreteLoc(PA, CG, Mem.Key.Id))
          Closure.insert(E.Node);
      }
    }
  }
  if (TooBig)
    return true;

  // R_x: users of the closure outside it whose defining statement is
  // dominated by the checking statement.
  std::unordered_set<uint32_t> Candidates;
  for (uint32_t Member : Closure)
    for (const Edge &E : G.users(Member))
      if (!Closure.count(E.Node))
        Candidates.insert(E.Node);

  for (uint32_t R : Candidates) {
    if (B && !B->step())
      return false;
    const Instruction *DefStmt = definingStatement(G, SSA, R);
    if (!DefStmt || DefStmt->getParent()->getParent() != Fn)
      continue;
    if (!FS.getDomTree().dominates(Use.I, DefStmt))
      continue;
    Plan.Redirectees.push_back(R);
  }
  Plan.Redirecting = true;
  return true;
}

} // namespace

OptIIResult core::runRedundantCheckElimination(
    const Module &M, const ssa::MemorySSA &SSA,
    const analysis::PointerAnalysis &PA, const analysis::CallGraph &CG,
    const VFG &G, const Definedness &BaseGamma, Budget *B, ThreadPool *Pool) {
  (void)M;
  OptIIResult Result;

  if (B && !B->step()) {
    Result.Exhausted = true;
    return Result;
  }

  // Stage 1 — per-use closure + dominance filtering. Reads only the
  // immutable analyses and charges the budget with the same multiset of
  // steps as the serial loop, so whether the phase exhausts does not
  // depend on scheduling (Exhausted results are discarded wholesale by
  // the caller either way).
  const std::vector<VFG::CriticalUse> &Uses = G.criticalUses();
  std::vector<UsePlan> Plans(Uses.size());
  std::atomic<bool> Exhausted{false};
  parallelForOrdered(Pool, Uses.size(), [&](size_t I) {
    if (Exhausted.load(std::memory_order_relaxed))
      return;
    if (!planUse(Uses[I], SSA, PA, CG, G, BaseGamma, B, Plans[I]))
      Exhausted.store(true, std::memory_order_relaxed);
  });
  if (Exhausted.load(std::memory_order_relaxed)) {
    Result.Exhausted = true;
    return Result;
  }

  // Stage 2 — serial ordered merge in critical-use order. Within one use
  // the redirectee order only decides which of its own edges get rewritten
  // first (the rewrites commute); across uses an edge already redirected
  // to T is no longer in any closure, exactly as in the serial loop.
  Result.Redirects.Slots.resize(G.numEdges());
  Result.Redirects.Base = &BaseGamma;
  BitSet &Slots = Result.Redirects.Slots;
  for (const UsePlan &Plan : Plans) {
    if (!Plan.Redirecting)
      continue;
    for (uint32_t R : Plan.Redirectees) {
      const uint32_t First = G.depSlot(R);
      auto Deps = G.deps(R);
      bool WasRedirected = false, Changed = false;
      for (uint32_t I = 0; I != Deps.size(); ++I) {
        if (Slots.test(First + I)) {
          WasRedirected = true;
        } else if (Plan.Closure.count(Deps[I].Node)) {
          Slots.set(First + I);
          Changed = true;
        }
      }
      if (Changed && !WasRedirected)
        ++Result.NumRedirectedNodes;
    }
  }
  return Result;
}
