//===- analysis/ModRef.cpp - Interprocedural mod/ref ----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "analysis/ModRef.h"

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"

using namespace usher;
using namespace usher::analysis;
using namespace usher::ir;

ModRefAnalysis::ModRefAnalysis(const Module &M, const CallGraph &CG,
                               const PointerAnalysis &PA)
    : M(M), CG(CG), PA(PA) {
  const unsigned NumLocs = PA.numLocations();
  for (const auto &F : M.functions()) {
    Sets &S = Info[F.get()];
    S.Mod.resize(NumLocs);
    S.Ref.resize(NumLocs);
  }

  // Direct effects.
  for (const auto &F : M.functions()) {
    Sets &S = Info[F.get()];
    for (const auto &BB : F->blocks()) {
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
  }

  // Transitive closure over the call graph, bottom-up: SCC ids ascend
  // from callees to callers, so every callee outside a function's own SCC
  // is final when the SCC is visited, and one sweep settles an acyclic
  // SCC. Only recursive SCCs iterate to a fixed point. Call sites of
  // allocation wrappers substitute clones for origins, so cloned objects
  // propagate to callers while the unreachable origins stay confined to
  // the wrapper.
  for (const std::vector<Function *> &SCC : CG.sccs()) {
    const bool Cyclic = CG.isRecursive(SCC.front());
    bool Changed;
    do {
      Changed = false;
      for (const Function *F : SCC) {
        Sets &S = Info[F];
        for (const CallInst *Call : CG.callSitesIn(F)) {
          const Sets &Callee = Info.at(Call->getCallee());
          if (PA.clonesAt(Call).empty()) {
            Changed |= S.Mod.unionWith(Callee.Mod);
            Changed |= S.Ref.unionWith(Callee.Ref);
          } else {
            Changed |= S.Mod.unionWith(modAt(Call));
            Changed |= S.Ref.unionWith(refAt(Call));
          }
        }
      }
    } while (Cyclic && Changed);
  }
}

static BitSet substituteClones(const BitSet &Callee,
                               const PointerAnalysis &PA,
                               const CallInst *Call) {
  const auto &SiteClones = PA.clonesAt(Call);
  if (SiteClones.empty())
    return Callee;
  BitSet Result = Callee;
  for (const MemObject *Origin :
       PA.cloneOrigins(Call->getCallee()))
    for (unsigned Loc : PA.locsOfObject(Origin))
      Result.clear(Loc);
  for (const MemObject *Clone : SiteClones)
    for (unsigned Loc : PA.locsOfObject(Clone))
      if (Callee.test(PA.locId(Clone->getCloneOrigin(),
                               PA.location(Loc).Field)))
        Result.set(Loc);
  return Result;
}

BitSet ModRefAnalysis::modAt(const CallInst *Call) const {
  return substituteClones(Info.at(Call->getCallee()).Mod, PA, Call);
}

BitSet ModRefAnalysis::refAt(const CallInst *Call) const {
  return substituteClones(Info.at(Call->getCallee()).Ref, PA, Call);
}
