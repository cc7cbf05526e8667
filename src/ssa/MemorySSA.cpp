//===- ssa/MemorySSA.cpp - Memory SSA construction -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ssa/MemorySSA.h"

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"

#include <algorithm>
#include <cassert>

using namespace usher;
using namespace usher::ssa;
using namespace usher::ir;
using analysis::ModRefAnalysis;
using analysis::PointerAnalysis;

uint32_t FunctionSSA::slotOf(VarKey Key) const {
  if (Key.Sp == Space::TopLevel)
    return Key.Id < NumTopLevel ? Key.Id : ~0u;
  auto It = std::lower_bound(FormalIn.begin(), FormalIn.end(), Key.Id);
  if (It == FormalIn.end() || *It != Key.Id)
    return ~0u;
  return NumTopLevel + static_cast<uint32_t>(It - FormalIn.begin());
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

namespace {
/// Dense location -> key slot index of the function a thread is building;
/// ~0u for every location between builds, so each build maps and unmaps
/// only its own formal-ins.
thread_local std::vector<uint32_t> LocSlotScratch;
} // namespace

/// Builds the flat SSA form in four passes over the function:
///  1. placeMuChi: lays out every reachable instruction's top-level uses,
///     mus and chis (versions still unset) and counts the defs per slot;
///  2. placePhis: the iterated dominance frontier of every slot's def
///     blocks, phis grouped by block in ascending slot order;
///  3. layout: the CSR version table and each phi's incoming slice;
///  4. rename: a DFS over the dominator tree that keeps the current
///     version of every slot plus an undo trail, and fills in versions,
///     definition sites and incoming arms.
class FunctionSSA::Builder {
public:
  Builder(FunctionSSA &S, const PointerAnalysis &PA, const ModRefAnalysis &MR)
      : S(S), F(S.F), PA(PA), MR(MR), LocSlot(LocSlotScratch) {}
  ~Builder() {
    for (uint32_t Loc : S.FormalIn)
      LocSlot[Loc] = ~0u;
  }

  void run();

private:
  void collectFormals();
  void placeMuChi();
  void placePhis();
  void layout();
  void rename();
  void processBlock(const BasicBlock *BB);
  /// Gives \p Slot its next version, defined by \p Desc, and makes it
  /// current (recording the previous one on the undo trail).
  uint32_t define(uint32_t Slot, DefDesc Desc);

  FunctionSSA &S;
  const Function &F;
  const PointerAnalysis &PA;
  const ModRefAnalysis &MR;
  std::vector<uint32_t> &LocSlot;
  uint32_t NumSlots = 0;

  /// Per instruction index: its slices of S.TLUses, S.Mus and S.Chis
  /// (NumInsts + 1 offsets each).
  std::vector<uint32_t> UseBegin, MuBegin, ChiBegin;
  /// (slot, block id) of every def in a reachable block, in layout order.
  std::vector<std::pair<uint32_t, uint32_t>> DefSites;
  /// Per slot: defs (instruction defs and chis) and phis.
  std::vector<uint32_t> NumDefs, NumPhis;
  /// Per phi: its slot.
  std::vector<uint32_t> PhiSlot;
  /// Per block: reachable predecessor edges, the start of its phis'
  /// incoming slices (each phi owns InCount[Id] consecutive arms) and how
  /// many arms of each slice the renaming has filled.
  std::vector<uint32_t> InCount, InBegin, InFilled;

  /// Renaming state: per slot the next fresh and the current version.
  std::vector<uint32_t> NextVersion, Cur;
  struct Undo {
    uint32_t Slot;
    uint32_t Prev;
  };
  std::vector<Undo> Trail;
};

void FunctionSSA::Builder::collectFormals() {
  BitSet In = MR.ref(&F);
  In.unionWith(MR.mod(&F));
  S.FormalIn = In.toVector();
  S.FormalOut = MR.mod(&F).toVector();
  S.NumTopLevel = static_cast<uint32_t>(F.variables().size());
  NumSlots = S.NumTopLevel + static_cast<uint32_t>(S.FormalIn.size());
  if (LocSlot.size() < PA.numLocations())
    LocSlot.resize(PA.numLocations(), ~0u);
  for (uint32_t I = 0; I != S.FormalIn.size(); ++I)
    LocSlot[S.FormalIn[I]] = S.NumTopLevel + I;
}

void FunctionSSA::Builder::placeMuChi() {
  const size_t NumInsts = F.instructionCount();
  S.Insts.resize(NumInsts);
  UseBegin.reserve(NumInsts + 1);
  MuBegin.reserve(NumInsts + 1);
  ChiBegin.reserve(NumInsts + 1);
  NumDefs.assign(NumSlots, 0);

  auto AddMu = [&](uint32_t Loc) {
    assert(LocSlot[Loc] != ~0u && "mu on a location outside the formal-ins");
    S.Mus.push_back({Loc, 0});
  };
  auto AddChi = [&](uint32_t Loc, ChiKind Kind, uint32_t Block) {
    assert(LocSlot[Loc] != ~0u && "chi on a location outside the formal-ins");
    S.Chis.push_back({Loc, 0, 0, Kind});
    DefSites.push_back({LocSlot[Loc], Block});
    ++NumDefs[LocSlot[Loc]];
  };

  for (const auto &BB : F.blocks())
    if (!BB->instructions().empty()) {
      S.FirstInst = BB->instructions().front()->getId();
      break;
    }

  std::vector<Variable *> Used;
  std::vector<uint32_t> CloneLocs;
  for (const auto &BB : F.blocks()) {
    const uint32_t Block = BB->getId();
    const bool Reachable = S.CFG.isReachable(Block);
    for (const auto &IPtr : BB->instructions()) {
      const Instruction *I = IPtr.get();
      assert(I->getId() - S.FirstInst == UseBegin.size() &&
             "instruction ids are not contiguous in layout order; the "
             "module must be renumbered");
      UseBegin.push_back(static_cast<uint32_t>(S.TLUses.size()));
      MuBegin.push_back(static_cast<uint32_t>(S.Mus.size()));
      ChiBegin.push_back(static_cast<uint32_t>(S.Chis.size()));
      if (!Reachable)
        continue;

      // Top-level uses: each distinct variable once, by ascending id.
      Used.clear();
      I->collectUsedVars(Used);
      std::sort(Used.begin(), Used.end(),
                [](const Variable *A, const Variable *B) {
                  return A->getId() < B->getId();
                });
      Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
      for (const Variable *V : Used)
        S.TLUses.push_back({V, 0});
      if (const Variable *Def = I->getDef()) {
        DefSites.push_back({Def->getId(), Block});
        ++NumDefs[Def->getId()];
      }

      if (const auto *Ld = dyn_cast<LoadInst>(I)) {
        for (uint32_t Loc : PA.pointsTo(Ld->getPtr()))
          AddMu(Loc);
      } else if (const auto *St = dyn_cast<StoreInst>(I)) {
        for (uint32_t Loc : PA.pointsTo(St->getPtr()))
          AddChi(Loc, ChiKind::Store, Block);
      } else if (const auto *A = dyn_cast<AllocInst>(I)) {
        for (unsigned Loc : PA.locsOfObject(A->getObject()))
          AddChi(Loc, ChiKind::Alloc, Block);
      } else if (const auto *Call = dyn_cast<CallInst>(I)) {
        // Reads feed the callee's virtual input parameters; writes become
        // chis whose old version doubles as the input for mod-only
        // locations. Clone locations are "allocated" here and take no
        // input at all.
        CloneLocs.clear();
        for (const MemObject *Clone : PA.clonesAt(Call))
          for (unsigned Loc : PA.locsOfObject(Clone))
            CloneLocs.push_back(Loc);
        std::sort(CloneLocs.begin(), CloneLocs.end());
        auto IsClone = [&](size_t Loc) {
          return !CloneLocs.empty() &&
                 std::binary_search(CloneLocs.begin(), CloneLocs.end(),
                                    static_cast<uint32_t>(Loc));
        };
        MR.refAt(Call).forEach([&](size_t Loc) {
          if (!IsClone(Loc))
            AddMu(static_cast<uint32_t>(Loc));
        });
        MR.modAt(Call).forEach([&](size_t Loc) {
          AddChi(static_cast<uint32_t>(Loc),
                 IsClone(Loc) ? ChiKind::CloneAlloc : ChiKind::CallMod,
                 Block);
        });
      } else if (isa<RetInst>(I)) {
        // Virtual output parameters are read at every return.
        for (uint32_t Loc : S.FormalOut)
          AddMu(Loc);
      }
    }
  }
  assert(UseBegin.size() == NumInsts && "instruction count mismatch");
  UseBegin.push_back(static_cast<uint32_t>(S.TLUses.size()));
  MuBegin.push_back(static_cast<uint32_t>(S.Mus.size()));
  ChiBegin.push_back(static_cast<uint32_t>(S.Chis.size()));
}

void FunctionSSA::Builder::placePhis() {
  const uint32_t NumBlocks = static_cast<uint32_t>(F.blocks().size());
  analysis::DominanceFrontier DF(S.DT);

  // Def blocks per slot, counting-sorted (layout order within a slot).
  std::vector<uint32_t> SiteBegin(NumSlots + 1, 0);
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
    SiteBegin[Slot + 1] = SiteBegin[Slot] + NumDefs[Slot];
  std::vector<uint32_t> SiteBlocks(DefSites.size());
  {
    std::vector<uint32_t> Cursor(SiteBegin.begin(), SiteBegin.end() - 1);
    for (const auto &[Slot, Block] : DefSites)
      SiteBlocks[Cursor[Slot]++] = Block;
  }
  std::vector<std::pair<uint32_t, uint32_t>>().swap(DefSites);

  // Iterated dominance frontier of each slot's def blocks (the entry
  // defines every slot's version 0). Epoch stamps stand in for clearing
  // per-slot block sets. Phis are recorded slot-major as (block, slot).
  std::vector<uint32_t> HasPhi(NumBlocks, ~0u), InWork(NumBlocks, ~0u);
  std::vector<const BasicBlock *> Work;
  std::vector<std::pair<uint32_t, uint32_t>> PhiSites;
  NumPhis.assign(NumSlots, 0);
  const BasicBlock *Entry = F.getEntry();
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot) {
    auto Push = [&](const BasicBlock *BB) {
      if (InWork[BB->getId()] != Slot) {
        InWork[BB->getId()] = Slot;
        Work.push_back(BB);
      }
    };
    Push(Entry);
    for (uint32_t I = SiteBegin[Slot]; I != SiteBegin[Slot + 1]; ++I)
      Push(F.blocks()[SiteBlocks[I]].get());
    while (!Work.empty()) {
      const BasicBlock *BB = Work.back();
      Work.pop_back();
      for (const BasicBlock *Frontier : DF.frontier(BB)) {
        if (HasPhi[Frontier->getId()] == Slot)
          continue;
        HasPhi[Frontier->getId()] = Slot;
        PhiSites.push_back({Frontier->getId(), Slot});
        ++NumPhis[Slot];
        Push(Frontier);
      }
    }
  }

  // Group the phis by block; a stable sort keeps ascending slot order
  // within each block.
  S.PhiBegin.assign(NumBlocks + 1, 0);
  for (const auto &[Block, Slot] : PhiSites)
    ++S.PhiBegin[Block + 1];
  for (uint32_t B = 0; B != NumBlocks; ++B)
    S.PhiBegin[B + 1] += S.PhiBegin[B];
  S.Phis.resize(PhiSites.size());
  PhiSlot.resize(PhiSites.size());
  std::vector<uint32_t> Cursor(S.PhiBegin.begin(), S.PhiBegin.end() - 1);
  for (const auto &[Block, Slot] : PhiSites) {
    uint32_t P = Cursor[Block]++;
    PhiSlot[P] = Slot;
    S.Phis[P].Var = Slot < S.NumTopLevel
                        ? VarKey{Space::TopLevel, Slot}
                        : VarKey{Space::Memory,
                                 S.FormalIn[Slot - S.NumTopLevel]};
  }
}

void FunctionSSA::Builder::layout() {
  // CSR version table: version 0 (live on entry) plus one per def and per
  // phi of each slot. Defs are default-constructed as Entry.
  S.VersionBegin.assign(NumSlots + 1, 0);
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
    S.VersionBegin[Slot + 1] =
        S.VersionBegin[Slot] + 1 + NumDefs[Slot] + NumPhis[Slot];
  S.Defs.resize(S.VersionBegin.back());
  NextVersion.assign(NumSlots, 1);
  Cur.assign(NumSlots, 0);

  // Incoming slices: every phi of a block gets one arm per reachable
  // predecessor edge.
  const uint32_t NumBlocks = static_cast<uint32_t>(F.blocks().size());
  InCount.assign(NumBlocks, 0);
  for (uint32_t B = 0; B != NumBlocks; ++B)
    if (S.CFG.isReachable(B))
      for (const BasicBlock *Succ : S.CFG.successors(B))
        ++InCount[Succ->getId()];
  InBegin.assign(NumBlocks + 1, 0);
  for (uint32_t B = 0; B != NumBlocks; ++B)
    InBegin[B + 1] =
        InBegin[B] + (S.PhiBegin[B + 1] - S.PhiBegin[B]) * InCount[B];
  S.Incoming.resize(InBegin.back());
  InFilled.assign(NumBlocks, 0);
  for (uint32_t B = 0; B != NumBlocks; ++B)
    for (uint32_t P = S.PhiBegin[B]; P != S.PhiBegin[B + 1]; ++P)
      S.Phis[P].Incoming = {S.Incoming.data() + InBegin[B] +
                                (P - S.PhiBegin[B]) * InCount[B],
                            InCount[B]};
}

uint32_t FunctionSSA::Builder::define(uint32_t Slot, DefDesc Desc) {
  uint32_t V = NextVersion[Slot]++;
  S.Defs[S.VersionBegin[Slot] + V] = Desc;
  Trail.push_back({Slot, Cur[Slot]});
  Cur[Slot] = V;
  return V;
}

void FunctionSSA::Builder::processBlock(const BasicBlock *BB) {
  const uint32_t Block = BB->getId();
  // Phis assign their results first.
  for (uint32_t P = S.PhiBegin[Block]; P != S.PhiBegin[Block + 1]; ++P)
    S.Phis[P].ResultVersion =
        define(PhiSlot[P], DefDesc{nullptr, BB, P - S.PhiBegin[Block],
                                   DefDesc::Kind::Phi});

  for (const auto &IPtr : BB->instructions()) {
    const Instruction *I = IPtr.get();
    const uint32_t Idx = I->getId() - S.FirstInst;
    // Uses (top-level, then mus) read the current versions.
    for (uint32_t U = UseBegin[Idx]; U != UseBegin[Idx + 1]; ++U)
      S.TLUses[U].Version = Cur[S.TLUses[U].Var->getId()];
    for (uint32_t M = MuBegin[Idx]; M != MuBegin[Idx + 1]; ++M)
      S.Mus[M].Version = Cur[LocSlot[S.Mus[M].Loc]];
    // Defs create fresh versions.
    const DefDesc AtI{I, nullptr, 0, DefDesc::Kind::Inst};
    if (const Variable *Def = I->getDef())
      S.Insts[Idx].TLDefVersion = define(Def->getId(), AtI);
    for (uint32_t C = ChiBegin[Idx]; C != ChiBegin[Idx + 1]; ++C) {
      MemDef &Chi = S.Chis[C];
      const uint32_t Slot = LocSlot[Chi.Loc];
      Chi.OldVersion = Cur[Slot];
      Chi.NewVersion = define(Slot, AtI);
    }
  }

  // Feed phi operands of CFG successors.
  for (const BasicBlock *Succ : S.CFG.successors(Block)) {
    const uint32_t SuccId = Succ->getId();
    const uint32_t Arm = InFilled[SuccId]++;
    for (uint32_t P = S.PhiBegin[SuccId]; P != S.PhiBegin[SuccId + 1]; ++P)
      S.Incoming[InBegin[SuccId] + (P - S.PhiBegin[SuccId]) * InCount[SuccId] +
                 Arm] = {BB, Cur[PhiSlot[P]]};
  }
}

void FunctionSSA::Builder::rename() {
  struct Frame {
    const BasicBlock *BB;
    size_t NextChild;
    size_t TrailStart;
  };
  std::vector<Frame> DFS;
  const BasicBlock *Entry = F.getEntry();
  DFS.push_back({Entry, 0, Trail.size()});
  processBlock(Entry);
  while (!DFS.empty()) {
    Frame &Top = DFS.back();
    const auto &Kids = S.DT.children(Top.BB);
    if (Top.NextChild < Kids.size()) {
      const BasicBlock *Child = Kids[Top.NextChild++];
      DFS.push_back({Child, 0, Trail.size()});
      processBlock(Child);
      continue;
    }
    // Undo this frame's definitions.
    while (Trail.size() > Top.TrailStart) {
      Cur[Trail.back().Slot] = Trail.back().Prev;
      Trail.pop_back();
    }
    DFS.pop_back();
  }

#ifndef NDEBUG
  for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
    assert(NextVersion[Slot] == S.numVersionsAt(Slot) &&
           "renaming did not define every counted version");
  for (uint32_t B = 0; B != InFilled.size(); ++B)
    assert(InFilled[B] == InCount[B] && "phi arm count mismatch");
#endif
}

void FunctionSSA::Builder::run() {
  collectFormals();
  placeMuChi();
  placePhis();
  layout();
  rename();
  for (size_t Idx = 0; Idx != S.Insts.size(); ++Idx) {
    InstSSA &Info = S.Insts[Idx];
    Info.TLUses = {S.TLUses.data() + UseBegin[Idx],
                   S.TLUses.data() + UseBegin[Idx + 1]};
    Info.Mus = {S.Mus.data() + MuBegin[Idx], S.Mus.data() + MuBegin[Idx + 1]};
    Info.Chis = {S.Chis.data() + ChiBegin[Idx],
                 S.Chis.data() + ChiBegin[Idx + 1]};
  }
}

FunctionSSA::FunctionSSA(const Function &F, const PointerAnalysis &PA,
                         const ModRefAnalysis &MR)
    : F(F), CFG(F), DT(CFG) {
  Builder(*this, PA, MR).run();
}

MemorySSA::MemorySSA(const Module &M, const PointerAnalysis &PA,
                     const ModRefAnalysis &MR, ThreadPool *Pool) {
  // Each FunctionSSA (CFG, dominator tree, frontiers, mu/chi/phi overlay)
  // depends only on its own function plus the immutable PA/MR results, so
  // the builds are embarrassingly parallel; slots are merged in module
  // function order.
  const auto &Fns = M.functions();
  Funcs = parallelMapOrdered(Pool, Fns.size(), [&](size_t I) {
    assert(Fns[I]->getId() == I && "function ids are not dense");
    return std::make_unique<FunctionSSA>(*Fns[I], PA, MR);
  });
}
