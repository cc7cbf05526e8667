//===- vfg/VFG.cpp - Value-flow graph construction -------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "vfg/VFG.h"

#include "analysis/CallGraph.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "support/RawStream.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <memory>
#include <new>
#include <tuple>

using namespace usher;
using namespace usher::vfg;
using namespace usher::ir;
using ssa::ChiKind;
using ssa::DefDesc;
using ssa::FunctionSSA;
using ssa::InstSSA;
using ssa::MemDef;
using ssa::Space;
using ssa::VarKey;

//===----------------------------------------------------------------------===//
// VFG queries
//===----------------------------------------------------------------------===//

uint32_t VFG::nodeId(const Function *Fn, VarKey Key, uint32_t Version) const {
  uint32_t Id = findNode(Fn, Key, Version);
  assert(Id != ~0u && "VFG node does not exist");
  return Id;
}

uint32_t VFG::keySlot(const Function *Fn, VarKey Key) const {
  uint32_t F = Fn->getId();
  if (F + 1 >= FnSlotBegin.size())
    return ~0u;
  const uint32_t NumTL = numTopLevel(F);
  if (Key.Sp == Space::TopLevel)
    return Key.Id < NumTL ? FnSlotBegin[F] + Key.Id : ~0u;
  auto Begin = MemLocs.begin() + FnMemBegin[F];
  auto End = MemLocs.begin() + FnMemBegin[F + 1];
  auto It = std::lower_bound(Begin, End, Key.Id);
  if (It == End || *It != Key.Id)
    return ~0u;
  return FnSlotBegin[F] + NumTL + static_cast<uint32_t>(It - Begin);
}

uint32_t VFG::findNode(const Function *Fn, VarKey Key,
                       uint32_t Version) const {
  uint32_t Slot = keySlot(Fn, Key);
  if (Slot == ~0u || Version >= SlotBegin[Slot + 1] - SlotBegin[Slot])
    return ~0u;
  return VersionNode[SlotBegin[Slot] + Version];
}

uint32_t VFG::depOwner(uint32_t Slot) const {
  assert(Slot < NumEdges && "dependency slot out of range");
  // The owner is the last node whose first slot is <= Slot; nodes without
  // dependencies share their successor's offset, so take the last one.
  auto It = std::upper_bound(DepBegin.begin(), DepBegin.end(), Slot);
  return static_cast<uint32_t>(It - DepBegin.begin()) - 1;
}

uint32_t VFG::originMask() const {
  uint32_t Mask = 0;
  for (NodeOrigin O : Origins)
    Mask |= 1u << static_cast<unsigned>(O);
  return Mask;
}

UpdateKind VFG::storeUpdateKind(uint32_t Node) const {
  switch (Origins[Node]) {
  case NodeOrigin::StoreChiStrong:
    return UpdateKind::Strong;
  case NodeOrigin::StoreChiSemi:
    return UpdateKind::SemiStrong;
  case NodeOrigin::StoreChiWeak:
    return UpdateKind::Weak;
  default:
    assert(false && "node is not a store chi");
    return UpdateKind::Weak;
  }
}

const char *vfg::nodeOriginName(NodeOrigin O) {
  switch (O) {
  case NodeOrigin::Unknown:
    return "?";
  case NodeOrigin::Root:
    return "root";
  case NodeOrigin::CopyDef:
    return "copy";
  case NodeOrigin::BinOpDef:
    return "binop";
  case NodeOrigin::FieldAddrDef:
    return "gep";
  case NodeOrigin::AllocPtr:
    return "allocptr";
  case NodeOrigin::AllocChi:
    return "allocchi";
  case NodeOrigin::CloneAllocChi:
    return "clonechi";
  case NodeOrigin::StoreChiStrong:
    return "store.s";
  case NodeOrigin::StoreChiSemi:
    return "store.ss";
  case NodeOrigin::StoreChiWeak:
    return "store.w";
  case NodeOrigin::LoadDef:
    return "load";
  case NodeOrigin::CallResult:
    return "callres";
  case NodeOrigin::CallModChi:
    return "callmod";
  case NodeOrigin::FormalParam:
    return "param";
  case NodeOrigin::FormalIn:
    return "formalin";
  case NodeOrigin::Phi:
    return "phi";
  case NodeOrigin::EntryDef:
    return "entry";
  }
  return "?";
}

void VFG::dumpDot(raw_ostream &OS,
                  const std::vector<DotVerdict> *Verdicts) const {
  OS << "digraph VFG {\n  rankdir=BT;\n";
  for (uint32_t Id = 0; Id != numNodes(); ++Id) {
    OS << "  n" << Id << " [label=\"";
    if (Id == RootT) {
      OS << "T";
    } else if (Id == RootF) {
      OS << "F";
    } else {
      const NodeData N = node(Id);
      OS << N.Fn->getName() << ':';
      if (N.Key.Sp == Space::TopLevel)
        OS << "tl" << N.Key.Id;
      else
        OS << "mem" << N.Key.Id;
      OS << 'v' << N.Version;
      if (Origins[Id] != NodeOrigin::Unknown)
        OS << "\\n" << nodeOriginName(Origins[Id]);
    }
    OS << '"';
    // Memory-space nodes render as boxes so the two SSA spaces are
    // visually distinct; verdicts color the node.
    if (!isRoot(Id) && node(Id).Key.Sp == Space::Memory)
      OS << ", shape=box";
    if (Verdicts) {
      switch ((*Verdicts)[Id]) {
      case DotVerdict::None:
        break;
      case DotVerdict::Clean:
        OS << ", style=filled, fillcolor=palegreen";
        break;
      case DotVerdict::May:
        OS << ", style=filled, fillcolor=khaki";
        break;
      case DotVerdict::Definite:
        OS << ", style=filled, fillcolor=lightcoral";
        break;
      }
    }
    OS << "];\n";
  }
  for (uint32_t Id = 0; Id != numNodes(); ++Id) {
    for (const Edge &E : deps(Id)) {
      OS << "  n" << Id << " -> n" << E.Node;
      if (E.Kind == EdgeKind::Call)
        OS << " [color=blue, label=\"call@" << E.CallSite << "\"]";
      else if (E.Kind == EdgeKind::Ret)
        OS << " [color=red, label=\"ret@" << E.CallSite << "\"]";
      OS << ";\n";
    }
  }
  OS << "}\n";
}

//===----------------------------------------------------------------------===//
// VFGBuilder
//===----------------------------------------------------------------------===//

void VFGBuilder::buildVersionTables() {
  const auto &Fns = M.functions();
  G.FnSlotBegin.assign(Fns.size() + 1, 0);
  G.FnMemBegin.assign(Fns.size() + 1, 0);
  // Key slots are memory SSA's own: every top-level variable, then every
  // memory location live on entry (the only memory keys memory SSA
  // versions).
  for (const auto &F : Fns) {
    uint32_t Id = F->getId();
    assert(Id < Fns.size() && "function ids are not dense");
    const FunctionSSA &FS = SSA.get(F.get());
    G.FnSlotBegin[Id + 1] = FS.numSlots();
    G.FnMemBegin[Id + 1] = static_cast<uint32_t>(FS.formalIns().size());
  }
  for (size_t I = 1; I <= Fns.size(); ++I) {
    G.FnSlotBegin[I] += G.FnSlotBegin[I - 1];
    G.FnMemBegin[I] += G.FnMemBegin[I - 1];
  }
  G.MemLocs.resize(G.FnMemBegin.back());
  G.SlotBegin.assign(G.FnSlotBegin.back() + 1, 0);
  LocSlot.assign(PA.numLocations(), ~0u);
  for (const auto &F : Fns) {
    const FunctionSSA &FS = SSA.get(F.get());
    const std::vector<uint32_t> &Locs = FS.formalIns();
    std::copy(Locs.begin(), Locs.end(),
              G.MemLocs.begin() + G.FnMemBegin[F->getId()]);
    uint32_t *Counts = G.SlotBegin.data() + G.FnSlotBegin[F->getId()] + 1;
    for (uint32_t Slot = 0; Slot != FS.numSlots(); ++Slot)
      Counts[Slot] = FS.numVersionsAt(Slot);
  }
  for (size_t I = 1; I != G.SlotBegin.size(); ++I)
    G.SlotBegin[I] += G.SlotBegin[I - 1];
  G.VersionNode.assign(G.SlotBegin.back(), ~0u);
  G.Fns.resize(Fns.size());
  for (const auto &F : Fns)
    G.Fns[F->getId()] = F.get();
}

void VFGBuilder::enterFunction(const Function *F) {
  CurFn = F;
  const uint32_t Id = F->getId();
  const uint32_t MemSlot0 = G.FnSlotBegin[Id + 1] -
                            (G.FnMemBegin[Id + 1] - G.FnMemBegin[Id]);
  for (uint32_t I = G.FnMemBegin[Id]; I != G.FnMemBegin[Id + 1]; ++I)
    LocSlot[G.MemLocs[I]] = MemSlot0 + (I - G.FnMemBegin[Id]);
}

void VFGBuilder::leaveFunction() {
  const uint32_t Id = CurFn->getId();
  for (uint32_t I = G.FnMemBegin[Id]; I != G.FnMemBegin[Id + 1]; ++I)
    LocSlot[G.MemLocs[I]] = ~0u;
  CurFn = nullptr;
}

void VFGBuilder::collectReturns() {
  Returns.resize(M.functions().size());
  for (const auto &F : M.functions()) {
    const FunctionSSA &FS = SSA.get(F.get());
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (const auto *R = dyn_cast<RetInst>(I.get()))
          if (const InstSSA *RInfo = FS.instInfo(R)) {
            assert(std::is_sorted(RInfo->Mus.begin(), RInfo->Mus.end(),
                                  [](const ssa::MemUse &A,
                                     const ssa::MemUse &B) {
                                    return A.Loc < B.Loc;
                                  }) &&
                   "return mus are not sorted by location");
            Returns[F->getId()].push_back({R, RInfo});
          }
  }
}

uint32_t VFGBuilder::getNode(const Function *Fn, VarKey Key,
                             uint32_t Version) {
  uint32_t Slot = Fn == CurFn && Key.Sp == Space::Memory ? LocSlot[Key.Id]
                                                         : G.keySlot(Fn, Key);
  return nodeAtSlot(Slot, Version);
}

uint32_t VFGBuilder::nodeAtSlot(uint32_t Slot, uint32_t Version) {
  assert(Slot != ~0u && Version < G.SlotBegin[Slot + 1] - G.SlotBegin[Slot] &&
         "VFG node for a version memory SSA never created");
  uint32_t &Id = G.VersionNode[G.SlotBegin[Slot] + Version];
  if (Id != ~0u)
    return Id;
  Id = static_cast<uint32_t>(G.Nodes.size());
  G.Nodes.push_back({Slot, Version});
  G.Origins.push_back(NodeOrigin::Unknown);
  return Id;
}

void VFGBuilder::setOrigin(uint32_t Node, NodeOrigin O) {
  G.Origins[Node] = O;
}

bool VFGBuilder::inBurst(PackedEdge E) {
  const uint32_t End = Pending.size();
  auto Same = [&](uint32_t I) {
    const PackedEdge &P = Pending[I].E;
    return P.Node == E.Node && P.Label == E.Label;
  };
  auto Scan = [&] {
    for (uint32_t I = BurstBegin; I != End; ++I)
      if (Same(I))
        return true;
    return false;
  };
  if (End - BurstBegin < ShortBurst)
    return Scan();
  if (!LastEdge) {
    LastEdge.reset(
        static_cast<uint32_t *>(std::calloc(MaxNodes, sizeof(uint32_t))));
    if (!LastEdge)
      throw std::bad_alloc();
  }
  if (End - BurstBegin == ShortBurst) // Now long: index the burst so far.
    for (uint32_t I = BurstBegin; I != End; ++I)
      LastEdge[Pending[I].E.Node] = I + 1;
  uint32_t &Last = LastEdge[E.Node];
  // A burst's edges share one kind and label, so the newest edge to the
  // same node settles it; the scan only keeps the check exact otherwise.
  if (Last > BurstBegin && (Same(Last - 1) || Scan()))
    return true;
  Last = End + 1;
  return false;
}

static PackedEdge packEdge(uint32_t To, EdgeKind Kind, uint32_t CallSite) {
  assert((Kind == EdgeKind::Direct) == (CallSite == ~0u) &&
         (CallSite == ~0u || CallSite <= PackedEdge::SiteMask) &&
         "only call and return edges carry a call site");
  return {To, PackedEdge::label(Kind, CallSite)};
}

void VFGBuilder::addDep(uint32_t From, uint32_t To, EdgeKind Kind,
                        uint32_t CallSite) {
  const PackedEdge E = packEdge(To, Kind, CallSite);
  if (From != BurstFrom) {
    BurstFrom = From;
    BurstBegin = Pending.size();
  } else if (inBurst(E)) {
    return;
  }
  Pending.push({From, E});
}

/// True if some node lists one dependency twice. Assertions stay on in
/// optimized builds, so this runs on every graph: short lists, which
/// are nearly all of them, are compared pairwise in place and only
/// longer ones are copied and sorted.
[[maybe_unused]] static bool hasDuplicateDeps(const VFG &G) {
  constexpr uint32_t ShortList = 8;
  std::vector<PackedEdge> Deps;
  auto Less = [](const PackedEdge &A, const PackedEdge &B) {
    return std::tie(A.Node, A.Label) < std::tie(B.Node, B.Label);
  };
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    const uint32_t Begin = G.depSlot(Id), End = G.depSlot(Id + 1);
    if (End - Begin <= ShortList) {
      for (uint32_t I = Begin; I != End; ++I)
        for (uint32_t J = I + 1; J != End; ++J)
          if (G.depAt(I) == G.depAt(J))
            return true;
      continue;
    }
    Deps.assign(&G.depAt(Begin), &G.depAt(Begin) + (End - Begin));
    std::sort(Deps.begin(), Deps.end(), Less);
    if (std::adjacent_find(Deps.begin(), Deps.end()) != Deps.end())
      return true;
  }
  return false;
}

void VFGBuilder::freeze() {
  const uint32_t N = G.numNodes();
  const uint32_t P = Pending.size();

  // Two-pass counting sort of the pending edges, by source into the
  // dependency CSR and by target into the user CSR; both keep insertion
  // order within a node. Offsets are counted one slot to the right, so
  // that filling advances Begin[Id + 1] from Id's first slot to its end,
  // which is where Id + 1 begins: no cursor array is needed.
  G.DepBegin.assign(N + 2, 0);
  G.UserBegin.assign(N + 2, 0);
  Pending.forEach([&](const PendingEdge &P) {
    ++G.DepBegin[P.From + 2];
    ++G.UserBegin[P.E.Node + 2];
  });
  for (uint32_t I = 2; I != N + 2; ++I) {
    G.DepBegin[I] += G.DepBegin[I - 1];
    G.UserBegin[I] += G.UserBegin[I - 1];
  }
  G.DepEdges = std::make_unique_for_overwrite<PackedEdge[]>(P);
  G.UserEdges = std::make_unique_for_overwrite<PackedEdge[]>(P);
  G.NumEdges = P;
  Pending.drain([&](const PendingEdge &P) {
    G.DepEdges[G.DepBegin[P.From + 1]++] = P.E;
    G.UserEdges[G.UserBegin[P.E.Node + 1]++] = {P.From, P.E.Label};
  });
  G.DepBegin.pop_back();
  G.UserBegin.pop_back();
  LastEdge.reset();
  assert(!hasDuplicateDeps(G) && "a duplicate edge crossed a burst");

  std::sort(CutObjects.begin(), CutObjects.end());
  for (uint32_t Obj : CutObjects) {
    if (G.SemiStrongCuts.empty() || G.SemiStrongCuts.back().first != Obj)
      G.SemiStrongCuts.push_back({Obj, 0});
    ++G.SemiStrongCuts.back().second;
  }
}

uint32_t VFGBuilder::operandNode(const Function *Fn, const InstSSA &Info,
                                 const Operand &Op) {
  if (Op.isConst() || Op.isGlobal())
    return VFG::RootT; // Constants and global addresses are always defined.
  assert(Op.isVar() && "unexpected operand kind");
  for (const ssa::TLUse &Use : Info.TLUses)
    if (Use.Var == Op.getVar())
      return getNode(Fn, {Space::TopLevel, Op.getVar()->getId()},
                     Use.Version);
  assert(false && "operand variable has no recorded SSA use");
  return VFG::RootT;
}

/// Returns true when the stored-through pointer's value is a phi-free
/// chain of copies and field-address computations from \p Anchor's def:
/// the pointer then necessarily targets the instance allocated by the
/// *most recent* execution of the anchor (geps change the field, never
/// the instance; the chi's location already identifies the field).
static bool ptrDerivedFromAnchor(const FunctionSSA &FS, const Variable *Var,
                                 uint32_t Version,
                                 const Instruction *Anchor) {
  for (unsigned Steps = 0; Steps < 64; ++Steps) {
    const DefDesc &Desc = FS.defAt(Var->getId(), Version);
    if (Desc.K != DefDesc::Kind::Inst)
      return false;
    if (Desc.I == Anchor)
      return true;
    Operand Next;
    if (const auto *C = dyn_cast<CopyInst>(Desc.I))
      Next = C->getSrc();
    else if (const auto *G = dyn_cast<FieldAddrInst>(Desc.I))
      Next = G->getBase();
    else
      return false;
    if (!Next.isVar())
      return false;
    const InstSSA *StepInfo = FS.instInfo(Desc.I);
    assert(StepInfo && "chain step in reachable code lacks SSA info");
    Var = Next.getVar();
    Version = ~0u;
    for (const ssa::TLUse &Use : StepInfo->TLUses)
      if (Use.Var == Var)
        Version = Use.Version;
    assert(Version != ~0u && "chain source has no recorded use");
  }
  return false;
}

bool VFGBuilder::safeBypass(const FunctionSSA &FS, uint32_t Loc,
                            uint32_t FromVersion, uint32_t AnchorNewVersion,
                            const Instruction *Anchor) {
  assert(CurFn == &FS.getFunction() && "bypass outside the current function");
  const uint32_t Slot = LocSlot[Loc] - G.FnSlotBegin[CurFn->getId()];
  if (BypassSeen.size() < FS.numVersionsAt(Slot))
    BypassSeen.resize(FS.numVersionsAt(Slot), BypassEpoch);
  ++BypassEpoch;
  std::vector<uint32_t> &Work = BypassWork;
  Work.assign(1, FromVersion);
  while (!Work.empty()) {
    uint32_t V = Work.back();
    Work.pop_back();
    if (V == AnchorNewVersion || BypassSeen[V] == BypassEpoch)
      continue;
    BypassSeen[V] = BypassEpoch;
    const DefDesc &Desc = FS.defAt(Slot, V);
    switch (Desc.K) {
    case DefDesc::Kind::Entry:
      return false; // Escaped above the anchor: should not happen when the
                    // anchor dominates, but be conservative.
    case DefDesc::Kind::Phi: {
      const ssa::PhiNode &Phi = FS.phisIn(Desc.PhiBlock)[Desc.PhiIdx];
      for (const auto &[Pred, InVersion] : Phi.Incoming)
        Work.push_back(InVersion);
      break;
    }
    case DefDesc::Kind::Inst: {
      const auto *St = dyn_cast<StoreInst>(Desc.I);
      if (!St)
        return false; // A call or another allocation intervenes.
      // The intervening store must itself definitely write the current
      // instance, so that our store's bypass cannot hide its value.
      const std::vector<uint32_t> &Pts = PA.pointsTo(St->getPtr());
      if (Pts.size() != 1 || Pts[0] != Loc)
        return false;
      if (!St->getPtr().isVar())
        return false;
      const InstSSA *StInfo = FS.instInfo(St);
      uint32_t PtrVersion = ~0u;
      for (const ssa::TLUse &Use : StInfo->TLUses)
        if (Use.Var == St->getPtr().getVar())
          PtrVersion = Use.Version;
      if (!ptrDerivedFromAnchor(FS, St->getPtr().getVar(), PtrVersion,
                                Anchor))
        return false;
      // Continue above this store's chi.
      for (const MemDef &Chi : StInfo->Chis)
        if (Chi.Loc == Loc)
          Work.push_back(Chi.OldVersion);
      break;
    }
    }
  }
  return true;
}

void VFGBuilder::buildStoreChis(const Function &F, const StoreInst &St,
                                const InstSSA &Info) {
  const FunctionSSA &FS = SSA.get(&F);
  const std::vector<uint32_t> &Pts = PA.pointsTo(St.getPtr());
  uint32_t ValueNode = operandNode(&F, Info, St.getValue());

  for (const MemDef &Chi : Info.Chis) {
    assert(Chi.Kind == ChiKind::Store && "non-store chi at a store");
    uint32_t NewNode = getNode(&F, {Space::Memory, Chi.Loc}, Chi.NewVersion);
    setOrigin(NewNode, NodeOrigin::StoreChiWeak);
    addDep(NewNode, ValueNode, EdgeKind::Direct);

    const MemObject *Obj = PA.location(Chi.Loc).Obj;
    bool Singleton = Pts.size() == 1 && !PA.isCollapsedLoc(Chi.Loc);

    // Traditional strong update: one concrete cell.
    if (Opts.StrongUpdates && Singleton && !Obj->isHeap()) {
      bool OneInstance = Obj->isGlobal();
      if (Obj->isStack()) {
        const Function *AllocFn = Obj->getAllocSite()
                                      ? Obj->getAllocSite()
                                            ->getParent()
                                            ->getParent()
                                      : nullptr;
        OneInstance = AllocFn && !CG->isRecursive(AllocFn);
      }
      if (OneInstance) {
        setOrigin(NewNode, NodeOrigin::StoreChiStrong);
        ++G.NumStrong;
        continue; // Old version killed: no edge to Chi.OldVersion.
      }
    }

    // Semi-strong update: singleton abstract heap object whose unique
    // allocation anchor dominates this store, the pointer provably holds
    // the freshest instance, and the bypassed chain only writes that
    // instance.
    if (Opts.SemiStrongUpdates && Singleton && Obj->isHeap()) {
      Instruction *Anchor = Obj->getAllocSite();
      if (Anchor && Anchor->getParent()->getParent() == &F &&
          Anchor->getDef() && FS.getDomTree().dominates(Anchor, &St) &&
          St.getPtr().isVar()) {
        uint32_t PtrVersion = ~0u;
        for (const ssa::TLUse &Use : Info.TLUses)
          if (Use.Var == St.getPtr().getVar())
            PtrVersion = Use.Version;
        const InstSSA *AnchorInfo = FS.instInfo(Anchor);
        const MemDef *AnchorChi = nullptr;
        for (const MemDef &AChi : AnchorInfo->Chis)
          if (AChi.Loc == Chi.Loc)
            AnchorChi = &AChi;
        if (AnchorChi &&
            ptrDerivedFromAnchor(FS, St.getPtr().getVar(), PtrVersion,
                                 Anchor) &&
            safeBypass(FS, Chi.Loc, Chi.OldVersion, AnchorChi->NewVersion,
                       Anchor)) {
          // Redirect the old-version edge to the version *before* the
          // allocation, bypassing the allocation's undefinedness.
          uint32_t BypassNode =
              getNode(&F, {Space::Memory, Chi.Loc}, AnchorChi->OldVersion);
          addDep(NewNode, BypassNode, EdgeKind::Direct);
          setOrigin(NewNode, NodeOrigin::StoreChiSemi);
          ++G.NumSemi;
          CutObjects.push_back(Obj->getId());
          continue;
        }
      }
    }

    // Weak update: merge with the previous version.
    uint32_t OldNode = getNode(&F, {Space::Memory, Chi.Loc}, Chi.OldVersion);
    addDep(NewNode, OldNode, EdgeKind::Direct);
    ++G.NumWeak;
  }
}

void VFGBuilder::buildCall(const Function &F, const CallInst &Call,
                           const InstSSA &Info) {
  const Function *Callee = Call.getCallee();
  const FunctionSSA &CalleeSSA = SSA.get(Callee);
  uint32_t CallSite = Call.getId();

  // Actual -> formal for top-level parameters.
  const auto &Params = Callee->params();
  for (size_t Idx = 0; Idx != Params.size(); ++Idx) {
    uint32_t Formal =
        getNode(Callee, {Space::TopLevel, Params[Idx]->getId()}, 0);
    setOrigin(Formal, NodeOrigin::FormalParam);
    uint32_t Actual = operandNode(&F, Info, Call.getArgs()[Idx]);
    addDep(Formal, Actual, EdgeKind::Call, CallSite);
  }

  const std::vector<ReturnSite> &Rets = Returns[Callee->getId()];

  // Return value -> call result.
  if (Call.getDef()) {
    uint32_t Result = getNode(&F, {Space::TopLevel, Call.getDef()->getId()},
                              Info.TLDefVersion);
    setOrigin(Result, NodeOrigin::CallResult);
    for (const auto &[R, RInfo] : Rets) {
      if (R->getValue().isNone()) {
        // Capturing the result of a void return yields an undefined value.
        addDep(Result, VFG::RootF, EdgeKind::Ret, CallSite);
      } else {
        addDep(Result, operandNode(Callee, *RInfo, R->getValue()),
               EdgeKind::Ret, CallSite);
      }
    }
  }

  // Caller state -> callee virtual input parameters: the version of each
  // location visible just before the call (its mu, else its chi's old
  // version). Wrapper origins have no caller-side version (they are
  // cloned away) and take no input. Mus, chis and formal-ins are all
  // sorted by location, so one merge pass pairs them up.
  assert(std::is_sorted(Info.Mus.begin(), Info.Mus.end(),
                        [](const ssa::MemUse &A, const ssa::MemUse &B) {
                          return A.Loc < B.Loc;
                        }) &&
         std::is_sorted(Info.Chis.begin(), Info.Chis.end(),
                        [](const MemDef &A, const MemDef &B) {
                          return A.Loc < B.Loc;
                        }) &&
         "call mus/chis are not sorted by location");
  const std::vector<uint32_t> &FormalIns = CalleeSSA.formalIns();
  const uint32_t CalleeMemSlot0 =
      G.FnSlotBegin[Callee->getId()] +
      static_cast<uint32_t>(Callee->variables().size());
  size_t MuIdx = 0, ChiIdx = 0;
  for (uint32_t I = 0; I != FormalIns.size(); ++I) {
    const uint32_t Loc = FormalIns[I];
    while (MuIdx != Info.Mus.size() && Info.Mus[MuIdx].Loc < Loc)
      ++MuIdx;
    while (ChiIdx != Info.Chis.size() && Info.Chis[ChiIdx].Loc < Loc)
      ++ChiIdx;
    uint32_t Version;
    if (MuIdx != Info.Mus.size() && Info.Mus[MuIdx].Loc == Loc)
      Version = Info.Mus[MuIdx].Version;
    else if (ChiIdx != Info.Chis.size() && Info.Chis[ChiIdx].Loc == Loc)
      Version = Info.Chis[ChiIdx].OldVersion;
    else
      continue;
    uint32_t FormalIn = nodeAtSlot(CalleeMemSlot0 + I, 0);
    setOrigin(FormalIn, NodeOrigin::FormalIn);
    addDep(FormalIn, getNode(&F, {Space::Memory, Loc}, Version),
           EdgeKind::Call, CallSite);
  }

  // Chis at the call: clone allocations behave like allocation sites; mod
  // chis receive the callee's virtual output parameters, read by the mus
  // at its returns (sorted by location, so each return keeps a cursor).
  std::vector<size_t> RetCursor(Rets.size(), 0);
  const Function *OwnFn = &F;
  uint32_t InIdx = 0; // Cursor over the callee's formal-ins.
  for (const MemDef &Chi : Info.Chis) {
    uint32_t NewNode =
        getNode(OwnFn, {Space::Memory, Chi.Loc}, Chi.NewVersion);
    if (Chi.Kind == ChiKind::CloneAlloc) {
      const MemObject *Clone = PA.location(Chi.Loc).Obj;
      setOrigin(NewNode, NodeOrigin::CloneAllocChi);
      addDep(NewNode, Clone->isInitialized() ? VFG::RootT : VFG::RootF,
             EdgeKind::Direct);
      addDep(NewNode,
             getNode(OwnFn, {Space::Memory, Chi.Loc}, Chi.OldVersion),
             EdgeKind::Direct);
      continue;
    }
    assert(Chi.Kind == ChiKind::CallMod && "unexpected chi kind at call");
    setOrigin(NewNode, NodeOrigin::CallModChi);
    while (InIdx != FormalIns.size() && FormalIns[InIdx] < Chi.Loc)
      ++InIdx;
    for (size_t R = 0; R != Rets.size(); ++R) {
      std::span<const ssa::MemUse> Mus = Rets[R].Info->Mus;
      size_t &Cur = RetCursor[R];
      while (Cur != Mus.size() && Mus[Cur].Loc < Chi.Loc)
        ++Cur;
      if (Cur != Mus.size() && Mus[Cur].Loc == Chi.Loc) {
        // Return mus read the callee's formal-outs, all of them formal-ins.
        assert(InIdx != FormalIns.size() && FormalIns[InIdx] == Chi.Loc &&
               "return mu on a location outside the callee's formal-ins");
        addDep(NewNode, nodeAtSlot(CalleeMemSlot0 + InIdx, Mus[Cur].Version),
               EdgeKind::Ret, CallSite);
      }
    }
  }
}

void VFGBuilder::buildInstruction(const Function &F, const Instruction &I,
                                  const InstSSA &Info) {
  switch (I.getKind()) {
  case Instruction::IKind::Copy: {
    const auto *C = cast<CopyInst>(&I);
    uint32_t Def = getNode(&F, {Space::TopLevel, C->getDef()->getId()},
                           Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::CopyDef);
    addDep(Def, operandNode(&F, Info, C->getSrc()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::BinOp: {
    const auto *B = cast<BinOpInst>(&I);
    uint32_t Def = getNode(&F, {Space::TopLevel, B->getDef()->getId()},
                           Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::BinOpDef);
    addDep(Def, operandNode(&F, Info, B->getLHS()), EdgeKind::Direct);
    addDep(Def, operandNode(&F, Info, B->getRHS()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::FieldAddr: {
    const auto *FA = cast<FieldAddrInst>(&I);
    uint32_t Def = getNode(&F, {Space::TopLevel, FA->getDef()->getId()},
                           Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::FieldAddrDef);
    addDep(Def, operandNode(&F, Info, FA->getBase()), EdgeKind::Direct);
    addDep(Def, operandNode(&F, Info, FA->getIndex()), EdgeKind::Direct);
    break;
  }
  case Instruction::IKind::Alloc: {
    const auto *A = cast<AllocInst>(&I);
    // The pointer itself is defined; each field of the fresh object is
    // defined (alloc_T) or undefined (alloc_F), merged with the other
    // instances of the abstract object.
    uint32_t Def = getNode(&F, {Space::TopLevel, A->getDef()->getId()},
                           Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::AllocPtr);
    addDep(Def, VFG::RootT, EdgeKind::Direct);
    uint32_t InitRoot =
        A->getObject()->isInitialized() ? VFG::RootT : VFG::RootF;
    for (const MemDef &Chi : Info.Chis) {
      uint32_t NewNode =
          getNode(&F, {Space::Memory, Chi.Loc}, Chi.NewVersion);
      setOrigin(NewNode, NodeOrigin::AllocChi);
      addDep(NewNode, InitRoot, EdgeKind::Direct);
      addDep(NewNode, getNode(&F, {Space::Memory, Chi.Loc}, Chi.OldVersion),
             EdgeKind::Direct);
    }
    break;
  }
  case Instruction::IKind::Load: {
    const auto *L = cast<LoadInst>(&I);
    uint32_t Def = getNode(&F, {Space::TopLevel, L->getDef()->getId()},
                           Info.TLDefVersion);
    setOrigin(Def, NodeOrigin::LoadDef);
    for (const ssa::MemUse &Mu : Info.Mus)
      addDep(Def, getNode(&F, {Space::Memory, Mu.Loc}, Mu.Version),
             EdgeKind::Direct);
    if (L->getPtr().isVar())
      G.CriticalUses.push_back(
          {&I, L->getPtr().getVar(),
           operandNode(&F, Info, L->getPtr())});
    break;
  }
  case Instruction::IKind::Store: {
    const auto *St = cast<StoreInst>(&I);
    buildStoreChis(F, *St, Info);
    if (St->getPtr().isVar())
      G.CriticalUses.push_back(
          {&I, St->getPtr().getVar(),
           operandNode(&F, Info, St->getPtr())});
    break;
  }
  case Instruction::IKind::Call:
    buildCall(F, *cast<CallInst>(&I), Info);
    break;
  case Instruction::IKind::CondBr: {
    const auto *B = cast<CondBrInst>(&I);
    if (B->getCond().isVar())
      G.CriticalUses.push_back(
          {&I, B->getCond().getVar(),
           operandNode(&F, Info, B->getCond())});
    break;
  }
  case Instruction::IKind::Goto:
  case Instruction::IKind::Ret:
    // Returns contribute edges at their call sites; mus at returns are
    // read by buildCall through the callee's SSA info.
    break;
  }
}

void VFGBuilder::buildFunction(const Function &F) {
  const FunctionSSA &FS = SSA.get(&F);
  enterFunction(&F);

  for (const auto &BB : F.blocks()) {
    if (!FS.getCFG().isReachable(BB->getId()))
      continue;
    // Phi nodes.
    for (const ssa::PhiNode &Phi : FS.phisIn(BB.get())) {
      uint32_t Result = getNode(&F, Phi.Var, Phi.ResultVersion);
      setOrigin(Result, NodeOrigin::Phi);
      for (const auto &[Pred, Version] : Phi.Incoming)
        addDep(Result, getNode(&F, Phi.Var, Version), EdgeKind::Direct);
    }
    for (const auto &I : BB->instructions()) {
      const InstSSA *Info = FS.instInfo(I.get());
      assert(Info && "reachable instruction lacks SSA info");
      buildInstruction(F, *I, *Info);
    }
  }
  leaveFunction();
}

VFG VFGBuilder::build() {
  buildVersionTables();
  // Nodes 0 and 1 are the T and F roots; every other node is one SSA
  // version, so the node arrays are sized once.
  MaxNodes = static_cast<uint32_t>(G.VersionNode.size()) + 2;
  G.Nodes.reserve(MaxNodes);
  G.Origins.reserve(MaxNodes);
  // Reserved pages that stay unused are never touched.
  G.CriticalUses.reserve(M.instructionCount());
  G.Nodes.resize(2);
  G.Origins.resize(2, NodeOrigin::Root);
  collectReturns();

  for (const auto &F : M.functions())
    buildFunction(*F);

  // Entry (version 0) nodes referenced anywhere now get their root edges.
  // Formal parameters and virtual input parameters already received call
  // edges above; everything else is rooted here.
  const Function *Main = M.findFunction("main");
  for (uint32_t Id = 2; Id != G.numNodes(); ++Id) {
    if (G.Nodes[Id].Version != 0)
      continue;
    const VFG::NodeData N = G.node(Id);
    if (N.Key.Sp == Space::TopLevel) {
      const Variable *V = N.Fn->variables()[N.Key.Id].get();
      if (!V->isParam()) {
        setOrigin(Id, NodeOrigin::EntryDef);
        addDep(Id, VFG::RootF, EdgeKind::Direct);
      }
      // Parameters: call edges only; a never-called function stays T.
    } else if (N.Fn == Main) {
      // Program start: globals are defined iff declared `init`; stack and
      // heap locations have no live instances yet, hence no undefined
      // value can be read from them before their allocation runs.
      const MemObject *Obj = PA.location(N.Key.Id).Obj;
      setOrigin(Id, NodeOrigin::EntryDef);
      if (Obj->isGlobal())
        addDep(Id, Obj->isInitialized() ? VFG::RootT : VFG::RootF,
               EdgeKind::Direct);
      else
        addDep(Id, VFG::RootT, EdgeKind::Direct);
    }
  }
  freeze();
  return std::move(G);
}
