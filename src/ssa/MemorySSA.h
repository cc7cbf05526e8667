//===- ssa/MemorySSA.h - Memory SSA construction ----------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory SSA over TinyC (Section 3.1 / Figure 4 of the paper): every
/// function is put in SSA form for both top-level variables and
/// address-taken variables (PtLocs). The IR itself is not rewritten;
/// the SSA form is an overlay:
///
///  - loads carry mu(rho) uses for every location the pointer may read;
///  - stores carry rho_m := chi(rho_n) defs for every location the pointer
///    may write;
///  - allocation sites carry chi defs for the fields of the fresh object;
///  - call sites carry mus for everything the callee may read or modify
///    and chis for everything it may modify (with wrapper clones
///    substituted, acting as callsite allocation chis);
///  - returns carry mus reading the virtual output parameters;
///  - phis merge versions of both spaces at join points.
///
/// Version 0 of every variable is its live-on-entry value: the formal
/// parameter for top-level params, "undefined at entry" for other
/// top-level variables, and the virtual input parameter (or the initial
/// global/dead state in main) for memory locations.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SSA_MEMORYSSA_H
#define USHER_SSA_MEMORYSSA_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "ir/IR.h"
#include "support/ThreadPool.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace usher {
namespace analysis {
class CallGraph;
class ModRefAnalysis;
class PointerAnalysis;
} // namespace analysis

namespace ssa {

/// Which SSA space a variable lives in.
enum class Space : uint8_t {
  TopLevel, ///< Var_TL: id is ir::Variable::getId() within its function.
  Memory    ///< Var_AT: id is a module-wide PtLoc id.
};

/// A versioned variable reference local to one function.
struct VarKey {
  Space Sp;
  uint32_t Id;

  bool operator==(const VarKey &O) const { return Sp == O.Sp && Id == O.Id; }
};

/// A mu: a potential indirect use of a memory location.
struct MemUse {
  uint32_t Loc;
  uint32_t Version;
};

/// How a chi came to exist; the VFG builder gives each kind different
/// edges and strong-update opportunities.
enum class ChiKind : uint8_t {
  Store,     ///< Indirect def at a store.
  Alloc,     ///< Definition of a fresh object's field at its alloc site.
  CallMod,   ///< Callee may modify this location.
  CloneAlloc ///< Wrapper call site acting as the clone's allocation.
};

/// A chi: a potential indirect def (and use of the previous version).
struct MemDef {
  uint32_t Loc;
  uint32_t NewVersion;
  uint32_t OldVersion;
  ChiKind Kind;
};

/// The version of one top-level variable used by an instruction.
struct TLUse {
  const ir::Variable *Var;
  uint32_t Version;
};

/// SSA annotations of one instruction. The spans point into flat arrays
/// owned by the FunctionSSA.
struct InstSSA {
  /// Version assigned to the instruction's top-level def (if any).
  uint32_t TLDefVersion = 0;
  /// One entry per distinct top-level variable the instruction reads, in
  /// ascending variable id.
  std::span<const TLUse> TLUses;
  /// Mus and chis, in ascending location order.
  std::span<const MemUse> Mus;
  std::span<const MemDef> Chis;
};

/// One incoming arm of a phi: the version live at the end of \p Pred.
struct PhiIncoming {
  const ir::BasicBlock *Pred;
  uint32_t Version;
};

/// A phi at a block start, for either space.
struct PhiNode {
  VarKey Var;
  uint32_t ResultVersion;
  /// One arm per reachable CFG predecessor, in the order the renaming
  /// walk (a DFS over the dominator tree) leaves the predecessors.
  std::span<const PhiIncoming> Incoming;
};

/// Where a particular SSA version is defined.
struct DefDesc {
  enum class Kind : uint8_t { Entry, Inst, Phi };
  const ir::Instruction *I = nullptr;      ///< For Kind::Inst.
  const ir::BasicBlock *PhiBlock = nullptr; ///< For Kind::Phi.
  uint32_t PhiIdx = 0;                      ///< Index into phisIn(PhiBlock).
  Kind K = Kind::Entry;
};

/// SSA form of a single function, stored flat.
///
/// Every variable key of the function owns a dense *slot*: top-level
/// variable V has slot V->getId(); memory location formalIns()[I] has slot
/// (number of top-level variables) + I. A slot's versions are the DefDesc entries
/// [VersionBegin[Slot], VersionBegin[Slot + 1]). Instruction annotations
/// are indexed by instruction id relative to the function's first
/// instruction (ids are contiguous per function after Module::renumber()),
/// phis are grouped by block id, and all mus, chis, top-level uses and
/// incoming arms live in one array each.
class FunctionSSA {
public:
  FunctionSSA(const ir::Function &F, const analysis::PointerAnalysis &PA,
              const analysis::ModRefAnalysis &MR);
  FunctionSSA(const FunctionSSA &) = delete;
  FunctionSSA &operator=(const FunctionSSA &) = delete;

  const ir::Function &getFunction() const { return F; }
  const analysis::CFGInfo &getCFG() const { return CFG; }
  const analysis::DominatorTree &getDomTree() const { return DT; }

  /// SSA annotations of \p I; null for instructions in unreachable blocks.
  const InstSSA *instInfo(const ir::Instruction *I) const {
    const ir::BasicBlock *BB = I->getParent();
    assert(BB->getParent() == &F && "instruction of another function");
    if (!CFG.isReachable(BB->getId()))
      return nullptr;
    assert(I->getId() - FirstInst < Insts.size() && "stale instruction id");
    return &Insts[I->getId() - FirstInst];
  }

  /// Phis at the start of \p BB, in ascending slot order (possibly empty).
  std::span<const PhiNode> phisIn(const ir::BasicBlock *BB) const {
    const unsigned Id = BB->getId();
    return {Phis.data() + PhiBegin[Id], Phis.data() + PhiBegin[Id + 1]};
  }

  /// Number of key slots (top-level variables plus formal-in locations).
  uint32_t numSlots() const {
    return static_cast<uint32_t>(VersionBegin.size() - 1);
  }

  /// Number of versions of the key in \p Slot.
  uint32_t numVersionsAt(uint32_t Slot) const {
    return VersionBegin[Slot + 1] - VersionBegin[Slot];
  }
  /// Definition site of version \p Version of the key in \p Slot.
  const DefDesc &defAt(uint32_t Slot, uint32_t Version) const {
    assert(Version < numVersionsAt(Slot) && "version out of range");
    return Defs[VersionBegin[Slot] + Version];
  }

  /// Definition site of version \p Version of \p Key.
  const DefDesc &defOf(VarKey Key, uint32_t Version) const {
    uint32_t Slot = slotOf(Key);
    assert(Slot != ~0u && "variable never materialized");
    return defAt(Slot, Version);
  }

  /// Number of versions of \p Key (0 if the variable never materialized).
  uint32_t numVersions(VarKey Key) const {
    uint32_t Slot = slotOf(Key);
    return Slot == ~0u ? 0 : numVersionsAt(Slot);
  }

  /// Memory locations live on entry (virtual input parameters): every
  /// location the function may read or modify, sorted.
  const std::vector<uint32_t> &formalIns() const { return FormalIn; }

  /// Memory locations whose final versions are the virtual output
  /// parameters: everything the function may modify. Their versions at a
  /// particular return are the Mus of that RetInst.
  const std::vector<uint32_t> &formalOuts() const { return FormalOut; }

private:
  class Builder;

  /// Slot of \p Key, or ~0u for a location outside formalIns().
  uint32_t slotOf(VarKey Key) const;

  const ir::Function &F;
  analysis::CFGInfo CFG;
  analysis::DominatorTree DT;

  uint32_t NumTopLevel = 0;
  std::vector<uint32_t> FormalIn, FormalOut;

  /// Per instruction (id minus FirstInst).
  uint32_t FirstInst = 0;
  std::vector<InstSSA> Insts;
  std::vector<TLUse> TLUses;
  std::vector<MemUse> Mus;
  std::vector<MemDef> Chis;

  /// Per block: its phis are Phis[PhiBegin[Id] .. PhiBegin[Id + 1]).
  std::vector<uint32_t> PhiBegin;
  std::vector<PhiNode> Phis;
  std::vector<PhiIncoming> Incoming;

  /// Per slot: numSlots() + 1 offsets into Defs.
  std::vector<uint32_t> VersionBegin;
  std::vector<DefDesc> Defs;
};

/// Memory SSA for every function in a module.
class MemorySSA {
public:
  /// Builds per-function SSA overlays. With a non-null \p Pool the
  /// functions are built in parallel — each FunctionSSA reads only the
  /// immutable module/PA/MR and writes only its own overlay, and the
  /// overlays are deposited in module function order, so the result is
  /// identical to a serial build.
  MemorySSA(const ir::Module &M, const analysis::PointerAnalysis &PA,
            const analysis::ModRefAnalysis &MR, ThreadPool *Pool = nullptr);

  const FunctionSSA &get(const ir::Function *F) const {
    assert(F->getId() < Funcs.size() && "function outside the module");
    return *Funcs[F->getId()];
  }

private:
  /// Indexed by function id.
  std::vector<std::unique_ptr<FunctionSSA>> Funcs;
};

} // namespace ssa
} // namespace usher

#endif // USHER_SSA_MEMORYSSA_H
