//===- vfg/VFG.h - Value-flow graph ------------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value-flow graph of Section 3.2: one node per SSA definition (both
/// top-level and address-taken) plus the two roots T (defined) and F
/// (undefined). An edge v -> w is a *dependency* edge: the value of v
/// depends on the value of w; undefinedness flows from F against the edge
/// direction. Interprocedural edges carry a call-site label so definedness
/// resolution can match calls and returns (Section 3.3).
///
/// Stores are translated with three update flavors (the paper's key
/// mechanism):
///  - strong:      the pointer uniquely targets one concrete cell; the old
///                 version is killed.
///  - semi-strong: the pointer uniquely targets one abstract heap object
///                 whose unique allocation site dominates the store; the
///                 edge to the old version is redirected to the version
///                 before the allocation, bypassing the allocation's F.
///  - weak:        everything else; old and new values merge.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_VFG_VFG_H
#define USHER_VFG_VFG_H

#include "ssa/MemorySSA.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

namespace usher {

class raw_ostream;

namespace ir {
class Function;
class Instruction;
class Module;
class RetInst;
class Variable;
} // namespace ir

namespace analysis {
class CallGraph;
class PointerAnalysis;
} // namespace analysis

namespace vfg {

/// Edge labels for context-sensitive reachability.
enum class EdgeKind : uint8_t {
  Direct, ///< Intraprocedural value flow.
  Call,   ///< Into a callee (actual -> formal); labeled with the call site.
  Ret     ///< Out of a callee (return -> result); labeled with the call site.
};

/// One dependency edge.
struct Edge {
  uint32_t Node;             ///< The node depended on / the dependent user.
  EdgeKind Kind;
  uint32_t CallSite = ~0u;   ///< Instruction id of the CallInst, if labeled.
  bool operator==(const Edge &O) const = default;
};

/// An edge as the graph stores it: 8 bytes, the kind packed above a
/// 30-bit call site (Direct edges carry none).
struct PackedEdge {
  uint32_t Node, Label;

  static constexpr uint32_t SiteMask = (1u << 30) - 1;
  static uint32_t label(EdgeKind Kind, uint32_t CallSite) {
    return static_cast<uint32_t>(Kind) << 30 | (CallSite & SiteMask);
  }
  EdgeKind kind() const { return static_cast<EdgeKind>(Label >> 30); }
  uint32_t callSite() const {
    return kind() == EdgeKind::Direct ? ~0u : Label & SiteMask;
  }
  Edge unpack() const { return {Node, kind(), callSite()}; }
  bool operator==(const PackedEdge &O) const = default;
};

/// A node's dependency or user edges, unpacked as they are read.
class EdgeRange {
public:
  class iterator {
  public:
    using value_type = Edge;
    using difference_type = std::ptrdiff_t;
    using reference = Edge;
    using pointer = void;
    using iterator_category = std::input_iterator_tag;

    iterator() = default;
    explicit iterator(const PackedEdge *P) : P(P) {}
    Edge operator*() const { return P->unpack(); }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) { return iterator(P++); }
    bool operator==(const iterator &O) const = default;

  private:
    const PackedEdge *P = nullptr;
  };

  EdgeRange(const PackedEdge *First, const PackedEdge *Last)
      : First(First), Last(Last) {}
  size_t size() const { return static_cast<size_t>(Last - First); }
  bool empty() const { return First == Last; }
  Edge operator[](size_t I) const { return First[I].unpack(); }
  iterator begin() const { return iterator(First); }
  iterator end() const { return iterator(Last); }

private:
  const PackedEdge *First, *Last;
};

/// How a particular store's chi was translated.
enum class UpdateKind : uint8_t { Strong, SemiStrong, Weak };

/// Why a node exists: which defining construct its dependency edges model.
/// Recorded by VFGBuilder at the point the node's defining edges are added;
/// the must-undef analysis keys its per-node transfer rules on this, and
/// the annotated dot dump prints it. Unknown marks nodes only ever
/// referenced as inputs (e.g. versions in unreachable code).
enum class NodeOrigin : uint8_t {
  Unknown,
  Root,          ///< The T/F roots.
  CopyDef,       ///< TL def of a copy (undef iff the source is).
  BinOpDef,      ///< TL def of a binop (undef if ANY operand is).
  FieldAddrDef,  ///< TL def of a gep (undef if ANY operand is).
  AllocPtr,      ///< TL def of an alloc (always defined).
  AllocChi,      ///< Memory chi at an allocation site (init root + old).
  CloneAllocChi, ///< Same, for a heap clone materialized at a call.
  StoreChiStrong,///< Store chi, strong update (value only).
  StoreChiSemi,  ///< Store chi, semi-strong update (value + bypass).
  StoreChiWeak,  ///< Store chi, weak update (value + old merge).
  LoadDef,       ///< TL def of a load (merge over the mus).
  CallResult,    ///< TL def of a call (merge over callee returns).
  CallModChi,    ///< Memory chi at a call (merge over callee returns).
  FormalParam,   ///< TL version 0 of a parameter (merge over call sites).
  FormalIn,      ///< Memory version 0 in a callee (merge over call sites).
  Phi,           ///< SSA phi, TL or memory (merge over incoming arms).
  EntryDef       ///< Version-0 node rooted at T/F at program start.
};

/// Short mnemonic for \p O (dot dumps and diagnostics).
const char *nodeOriginName(NodeOrigin O);

/// The value-flow graph of a whole program, frozen in compressed sparse
/// row (CSR) form: one flat array of dependency edges and one of user
/// edges, each sliced per node by a uint32 offset array. A node's edges
/// keep the order in which the builder first added them. Nodes are
/// located by (function, variable, version) through dense per-function
/// version tables, not a hash map.
class VFG {
public:
  /// Ids of the two root nodes.
  static constexpr uint32_t RootT = 0;
  static constexpr uint32_t RootF = 1;

  /// Payload of a non-root node: a versioned SSA variable of one function.
  /// node() unpacks it from the 8-byte stored record.
  struct NodeData {
    const ir::Function *Fn = nullptr;
    ssa::VarKey Key{ssa::Space::TopLevel, 0};
    uint32_t Version = 0;
    /// Key's slot in Fn's memory SSA (FunctionSSA::defAt(Slot, Version)).
    uint32_t Slot = 0;
  };

  /// A use of a top-level variable at a critical operation.
  struct CriticalUse {
    const ir::Instruction *I;
    const ir::Variable *Var;
    uint32_t Node;
  };

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  bool isRoot(uint32_t Id) const { return Id == RootT || Id == RootF; }
  NodeData node(uint32_t Id) const {
    const NodeRecord &R = Nodes[Id];
    // The owner is the last function whose first slot is <= R.Slot;
    // functions without slots share their successor's offset.
    const uint32_t F = static_cast<uint32_t>(
        std::upper_bound(FnSlotBegin.begin(), FnSlotBegin.end(), R.Slot) -
        FnSlotBegin.begin() - 1);
    const uint32_t Slot = R.Slot - FnSlotBegin[F];
    const uint32_t NumTL = numTopLevel(F);
    if (Slot < NumTL)
      return {Fns[F], {ssa::Space::TopLevel, Slot}, R.Version, Slot};
    return {Fns[F],
            {ssa::Space::Memory, MemLocs[FnMemBegin[F] + Slot - NumTL]},
            R.Version,
            Slot};
  }

  /// Dependency edges of \p Id (what its value is computed from).
  EdgeRange deps(uint32_t Id) const {
    return {DepEdges.get() + DepBegin[Id], DepEdges.get() + DepBegin[Id + 1]};
  }

  /// Reverse edges of \p Id (who consumes its value).
  EdgeRange users(uint32_t Id) const {
    return {UserEdges.get() + UserBegin[Id],
            UserEdges.get() + UserBegin[Id + 1]};
  }

  /// Dependency edges are numbered 0..numEdges()-1 by their slot in the
  /// flat array: the I-th dependency of \p Id sits in slot
  /// depSlot(Id) + I. Opt II's redirect overlay is a bitset over slots.
  /// depAt() and userAt() return the stored edge, still packed, for the
  /// hot loops that mostly need only its node.
  uint32_t depSlot(uint32_t Id) const { return DepBegin[Id]; }
  const PackedEdge &depAt(uint32_t Slot) const { return DepEdges[Slot]; }
  /// The node whose dependency list holds \p Slot.
  uint32_t depOwner(uint32_t Slot) const;

  /// User edges are numbered the same way (slot userSlot(Id) + I).
  uint32_t userSlot(uint32_t Id) const { return UserBegin[Id]; }
  const PackedEdge &userAt(uint32_t Slot) const { return UserEdges[Slot]; }

  /// Provenance of \p Id (see NodeOrigin).
  NodeOrigin origin(uint32_t Id) const { return Origins[Id]; }

  /// Id of an existing node; asserts that it exists.
  uint32_t nodeId(const ir::Function *Fn, ssa::VarKey Key,
                  uint32_t Version) const;

  /// Id of a node, or ~0u if it was never created.
  uint32_t findNode(const ir::Function *Fn, ssa::VarKey Key,
                    uint32_t Version) const;

  /// All uses of top-level variables at critical operations.
  const std::vector<CriticalUse> &criticalUses() const {
    return CriticalUses;
  }

  /// Update flavor of store chi node \p Node (read off its NodeOrigin).
  UpdateKind storeUpdateKind(uint32_t Node) const;

  /// Number of semi-strong cuts performed, per allocation anchor object id
  /// (the S column of Table 1 aggregates this); sorted by object id.
  const std::vector<std::pair<uint32_t, uint32_t>> &semiStrongCuts() const {
    return SemiStrongCuts;
  }

  /// Counts of stores by update flavor (for Table 1's %SU / %WU).
  uint64_t numStrongStoreChis() const { return NumStrong; }
  uint64_t numSemiStrongStoreChis() const { return NumSemi; }
  uint64_t numWeakStoreChis() const { return NumWeak; }
  uint64_t numEdges() const { return NumEdges; }

  /// Coverage hook for the fuzzer's analysis-feature scheduler: a bitmask
  /// with bit static_cast<unsigned>(O) set for every NodeOrigin kind this
  /// graph contains. Which node kinds a program manufactures is a cheap,
  /// stable fingerprint of the VFG construction paths it exercised.
  uint32_t originMask() const;

  /// Per-node verdict for the annotated dot dump. Passed in by the caller
  /// (vfg cannot depend on core's Definedness/StaticDiagnosis types).
  enum class DotVerdict : uint8_t { None, Clean, May, Definite };

  /// Writes the graph in Graphviz dot syntax. When \p Verdicts is
  /// non-null (one entry per node) nodes are colored by verdict; node
  /// labels carry the provenance mnemonic and edges their kind and
  /// call-site labels, so witness paths can be eyeballed when debugging.
  void dumpDot(raw_ostream &OS,
               const std::vector<DotVerdict> *Verdicts = nullptr) const;

private:
  friend class VFGBuilder;

  /// Slot of (Fn, Key) in the version tables, or ~0u.
  uint32_t keySlot(const ir::Function *Fn, ssa::VarKey Key) const;

  /// A node as stored: its key slot in the version tables (which
  /// determines the function and the key, see below) and version.
  struct NodeRecord {
    uint32_t Slot, Version;
  };
  static_assert(sizeof(NodeRecord) == 8, "node records are 8 bytes");

  /// Number of top-level variables (the first key slots) of function \p F.
  uint32_t numTopLevel(uint32_t F) const {
    return FnSlotBegin[F + 1] - FnSlotBegin[F] -
           (FnMemBegin[F + 1] - FnMemBegin[F]);
  }

  std::vector<const ir::Function *> Fns; ///< By function id.
  std::vector<NodeRecord> Nodes;
  std::vector<NodeOrigin> Origins;
  std::vector<uint32_t> DepBegin, UserBegin; ///< numNodes() + 1 offsets.
  /// numEdges() entries each, left uninitialized until freeze() writes
  /// every one exactly once.
  std::unique_ptr<PackedEdge[]> DepEdges, UserEdges;
  uint32_t NumEdges = 0;

  /// Version tables. Function F (by id) owns the key slots starting at
  /// FnSlotBegin[F]: first its top-level variables by id, then its memory
  /// locations in the ascending order of MemLocs[FnMemBegin[F] ..
  /// FnMemBegin[F + 1]). Slot K's versions are VersionNode[
  /// SlotBegin[K] .. SlotBegin[K + 1]), ~0u where no node was created.
  std::vector<uint32_t> FnSlotBegin, FnMemBegin, MemLocs;
  std::vector<uint32_t> SlotBegin, VersionNode;

  std::vector<CriticalUse> CriticalUses;
  std::vector<std::pair<uint32_t, uint32_t>> SemiStrongCuts;
  uint64_t NumStrong = 0, NumSemi = 0, NumWeak = 0;
};

/// Options controlling VFG construction.
struct VFGOptions {
  /// Apply the semi-strong update rule of Section 3.2.
  bool SemiStrongUpdates = true;
  /// Apply traditional strong updates at stores.
  bool StrongUpdates = true;
};

/// Builds the VFG for a module from its memory SSA form.
class VFGBuilder {
public:
  VFGBuilder(const ir::Module &M, const ssa::MemorySSA &SSA,
             const analysis::PointerAnalysis &PA,
             const analysis::CallGraph &CG, VFGOptions Opts = VFGOptions())
      : M(M), SSA(SSA), PA(PA), CG(&CG), Opts(Opts) {}

  /// Constructs the whole-program VFG.
  VFG build();

private:
  /// One edge as the builder adds it, before freezing. No member
  /// initializers, so a fresh chunk is not written before it is filled.
  struct PendingEdge {
    uint32_t From;
    PackedEdge E;
  };

  /// Edges in insertion order, in fixed-size chunks: appending never
  /// copies, and freeze() releases each chunk once it has been read.
  class EdgeBuffer {
  public:
    static constexpr uint32_t ChunkShift = 12;
    static constexpr uint32_t ChunkSize = 1u << ChunkShift;

    uint32_t size() const { return Size; }
    void push(const PendingEdge &E) {
      if ((Size & (ChunkSize - 1)) == 0)
        Chunks.emplace_back(new PendingEdge[ChunkSize]);
      Chunks.back()[Size & (ChunkSize - 1)] = E;
      ++Size;
    }
    const PendingEdge &operator[](uint32_t I) const {
      return Chunks[I >> ChunkShift][I & (ChunkSize - 1)];
    }
    /// Calls \p Fn on every edge in insertion order.
    template <class FnT> void forEach(FnT Fn) const {
      for (uint32_t C = 0; C != Chunks.size(); ++C) {
        const uint32_t N = std::min(ChunkSize, Size - (C << ChunkShift));
        for (uint32_t I = 0; I != N; ++I)
          Fn(Chunks[C][I]);
      }
    }
    /// Calls \p Fn on every edge in insertion order, releasing each chunk
    /// after its last edge; the buffer is empty afterwards.
    template <class FnT> void drain(FnT Fn) {
      for (uint32_t C = 0; C != Chunks.size(); ++C) {
        const uint32_t N = std::min(ChunkSize, Size - (C << ChunkShift));
        for (uint32_t I = 0; I != N; ++I)
          Fn(Chunks[C][I]);
        Chunks[C].reset();
      }
      Chunks.clear();
      Size = 0;
    }

  private:
    std::vector<std::unique_ptr<PendingEdge[]>> Chunks;
    uint32_t Size = 0;
  };

  /// A reachable return of a callee with its SSA annotations.
  struct ReturnSite {
    const ir::RetInst *Ret;
    const ssa::InstSSA *Info;
  };

  void buildVersionTables();
  void freeze();

  /// Makes \p F the function whose memory keys getNode() resolves through
  /// the dense LocSlot index instead of a binary search.
  void enterFunction(const ir::Function *F);
  void leaveFunction();
  void collectReturns();

  uint32_t getNode(const ir::Function *Fn, ssa::VarKey Key, uint32_t Version);
  uint32_t nodeAtSlot(uint32_t Slot, uint32_t Version);
  /// Adds a dependency edge unless From's current burst already has it.
  void addDep(uint32_t From, uint32_t To, EdgeKind Kind,
              uint32_t CallSite = ~0u);
  bool inBurst(PackedEdge E);
  void setOrigin(uint32_t Node, NodeOrigin O);
  uint32_t operandNode(const ir::Function *Fn, const ssa::InstSSA &Info,
                       const ir::Operand &Op);

  void buildFunction(const ir::Function &F);
  void buildInstruction(const ir::Function &F, const ir::Instruction &I,
                        const ssa::InstSSA &Info);
  void buildStoreChis(const ir::Function &F, const ir::StoreInst &St,
                      const ssa::InstSSA &Info);
  void buildCall(const ir::Function &F, const ir::CallInst &Call,
                 const ssa::InstSSA &Info);

  /// True if bypassing the chi chain from \p FromVersion back to the
  /// allocation anchor's chi is sound (every bypassed def writes the
  /// current instance); see the semi-strong discussion in DESIGN.md.
  bool safeBypass(const ssa::FunctionSSA &FS, uint32_t Loc,
                  uint32_t FromVersion, uint32_t AnchorNewVersion,
                  const ir::Instruction *Anchor);

  const ir::Module &M;
  const ssa::MemorySSA &SSA;
  const analysis::PointerAnalysis &PA;
  const analysis::CallGraph *CG;
  VFGOptions Opts;
  VFG G;
  /// Edges in insertion order; freeze() counting-sorts them into the CSR
  /// arrays.
  EdgeBuffer Pending;
  /// Every node except the version-0 ones receives all its dependencies
  /// in one contiguous burst, so dropping an edge already in the current
  /// burst drops every duplicate; version-0 nodes get one edge per call
  /// site, each with its own label. The burst is Pending[BurstBegin ..);
  /// bursts longer than ShortBurst look a target up in LastEdge (one past
  /// the index of the newest edge to it) instead of scanning.
  static constexpr uint32_t ShortBurst = 8;
  uint32_t BurstFrom = ~0u, BurstBegin = 0;
  struct FreeDeleter {
    void operator()(void *P) const { std::free(P); }
  };
  /// Zeroed by calloc, whose fresh pages stay untouched until a long
  /// burst reaches them.
  std::unique_ptr<uint32_t[], FreeDeleter> LastEdge;
  /// Upper bound on the node count: the roots plus every SSA version.
  uint32_t MaxNodes = 0;
  /// Allocation anchor of every semi-strong cut, one entry per cut.
  std::vector<uint32_t> CutObjects;
  /// Key slot of each memory location of CurFn, ~0u elsewhere.
  const ir::Function *CurFn = nullptr;
  std::vector<uint32_t> LocSlot;
  /// Per function id: its reachable returns.
  std::vector<std::vector<ReturnSite>> Returns;
  /// safeBypass's worklist and visited set: version V of the walked
  /// location is visited iff BypassSeen[V] == BypassEpoch.
  std::vector<uint32_t> BypassWork, BypassSeen;
  uint32_t BypassEpoch = 0;
};

} // namespace vfg
} // namespace usher

#endif // USHER_VFG_VFG_H
