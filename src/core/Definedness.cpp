//===- core/Definedness.cpp - Definedness resolution -----------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "core/Definedness.h"

#include "core/ContextStack.h"
#include "support/Budget.h"

#include <algorithm>
#include <cassert>

using namespace usher;
using namespace usher::core;
using vfg::Edge;
using vfg::EdgeKind;
using vfg::PackedEdge;
using vfg::VFG;

/// The k-bounded unmatched-call-site stack lives in core/ContextStack.h so
/// the static diagnosis witness search replays exactly these transitions.
using Context = ContextStack;

namespace {

/// Contexts beyond each component's first: one open-addressing hash set
/// of (component, context) pairs, so only components that see a second
/// context cost more than their inline slot.
class ContextOverflow {
public:
  bool contains(uint32_t Rep, uint64_t Ctx) const {
    if (Table.empty())
      return false;
    for (size_t I = hash(Rep, Ctx) & Mask;; I = (I + 1) & Mask) {
      const Entry &E = Table[I];
      if (E.Rep == Rep && E.Ctx == Ctx)
        return true;
      if (E.Rep == Empty)
        return false;
    }
  }

  /// Inserts a pair known to be absent.
  void insert(uint32_t Rep, uint64_t Ctx) {
    if (2 * (Used + 1) > Table.size())
      grow();
    place(Rep, Ctx);
  }

private:
  static constexpr uint32_t Empty = ~0u;
  struct Entry {
    uint64_t Ctx = 0;
    uint32_t Rep = Empty;
  };

  static size_t hash(uint32_t Rep, uint64_t Ctx) {
    uint64_t H = (Ctx ^ (static_cast<uint64_t>(Rep) << 21)) *
                 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(H ^ (H >> 32));
  }

  void place(uint32_t Rep, uint64_t Ctx) {
    size_t I = hash(Rep, Ctx) & Mask;
    while (Table[I].Rep != Empty)
      I = (I + 1) & Mask;
    Table[I] = {Ctx, Rep};
    ++Used;
  }

  void grow() {
    std::vector<Entry> Old(Table.empty() ? 1024 : 2 * Table.size());
    Old.swap(Table);
    Mask = Table.size() - 1;
    Used = 0;
    for (const Entry &E : Old)
      if (E.Rep != Empty)
        place(E.Rep, E.Ctx);
  }

  std::vector<Entry> Table;
  size_t Mask = 0;
  size_t Used = 0;
};

/// Calls \p Fn on every seed of the reachability: the taint seeds, or the
/// F root; for the top-level-only variant also every memory node.
template <typename FnT>
void forEachSeed(const VFG &G, const DefinednessOptions &Opts, FnT Fn) {
  if (Opts.Seeds) {
    for (uint32_t S : *Opts.Seeds)
      Fn(S);
  } else {
    Fn(VFG::RootF);
  }
  if (!Opts.AddressTakenAware) {
    // The top-level-only variant does not reason about memory: every
    // address-taken definition may hold an undefined value.
    for (uint32_t Id = 2, N = G.numNodes(); Id != N; ++Id)
      if (G.node(Id).Key.Sp == ssa::Space::Memory)
        Fn(Id);
  }
}

/// One context-sensitive reachability pass over the (possibly redirected)
/// graph, restricted to the nodes of \p Universe. A flow that would reach
/// a node outside the universe ends the pass as Escaped.
class Resolver {
public:
  enum class Outcome { Done, Pessimized, Escaped };

  Resolver(const VFG &G, const DefinednessOptions &Opts,
           const BitSet *RemovedUsers, const BitSet *Universe, Budget *B)
      : G(G), Opts(Opts), RemovedUsers(RemovedUsers), Universe(Universe),
        B(B) {}

  /// Runs the pass; on Done or Pessimized, the reached nodes are added to
  /// \p Bottom.
  Outcome run(BitSet &Bottom);

private:
  bool inUniverse(uint32_t Node) const { return Universe->test(Node); }
  bool removed(uint32_t UserSlot) const {
    return RemovedUsers && RemovedUsers->test(UserSlot);
  }
  template <typename FnT> void forEachNode(FnT Fn) const {
    Universe->forEach([&](size_t Node) { Fn(static_cast<uint32_t>(Node)); });
  }

  void condenseDirectSccs();
  void buildCondensedFlows();
  void reach(uint32_t Node, Context Ctx);
  void reachRep(uint32_t R, Context Ctx);
  void markReached(BitSet &Bottom) const;

  const VFG &G;
  const DefinednessOptions &Opts;
  const BitSet *RemovedUsers;
  const BitSet *Universe;
  Budget *B;

  /// Component (dense index) of every node in the universe.
  std::vector<uint32_t> Rep;
  uint32_t NumReps = 0;
  /// Condensed labeled flows per component, CSR; PackedEdge::Node is the
  /// target component, or Escape for a flow leaving the universe.
  static constexpr uint32_t Escape = ~0u;
  std::vector<uint32_t> FlowBegin;
  std::vector<PackedEdge> Flows;

  /// Per component: its first context inline, the count of contexts seen
  /// (the Saturated bit marks a component collapsed to the universal
  /// context), and the rest in Overflow.
  static constexpr size_t MaxContextsPerRep = 64;
  static constexpr uint8_t Saturated = 0x80;
  std::vector<uint64_t> FirstCtx;
  std::vector<uint8_t> NumCtx;
  ContextOverflow Overflow;

  struct State {
    uint32_t Rep;
    Context Ctx;
  };
  std::vector<State> Work;
  bool Escaped = false;
};

/// Condenses the Direct-flow SCCs (iterative Tarjan). Direct edges never
/// touch the context stack, so every member of a Direct cycle is
/// undefinedness-reachable under exactly the same set of contexts; the
/// reachability therefore runs over components and keeps the
/// visited-(node, context) memo once per component. A component is named
/// by its smallest member, which does not depend on the DFS order, so a
/// pass over a sub-universe that contains whole components orders its
/// flows exactly like a pass over the whole graph.
void Resolver::condenseDirectSccs() {
  const uint32_t N = G.numNodes();
  Rep.assign(N, ~0u);
  std::vector<uint32_t> Index(N, 0), SccStack;
  // A node's low-link is only read while its frame is open, so it lives
  // in the frame; a visited node is on SccStack until Rep names its
  // component.
  struct Frame {
    uint32_t Node;
    uint32_t NextSlot;
    uint32_t Low;
  };
  std::vector<Frame> Stack;
  uint32_t NextIndex = 1;
  auto Open = [&](uint32_t Node) {
    Index[Node] = NextIndex++;
    SccStack.push_back(Node);
    Stack.push_back({Node, G.userSlot(Node), Index[Node]});
  };
  forEachNode([&](uint32_t Root) {
    if (Index[Root])
      return;
    Open(Root);
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.NextSlot != G.userSlot(F.Node + 1)) {
        uint32_t Slot = F.NextSlot++;
        const PackedEdge &E = G.userAt(Slot);
        if (E.kind() != EdgeKind::Direct || removed(Slot) ||
            !inUniverse(E.Node))
          continue;
        uint32_t V = E.Node;
        if (!Index[V])
          Open(V);
        else if (Rep[V] == ~0u)
          F.Low = std::min(F.Low, Index[V]);
        continue;
      }
      const Frame Done = F;
      Stack.pop_back();
      if (!Stack.empty())
        Stack.back().Low = std::min(Stack.back().Low, Done.Low);
      const uint32_t U = Done.Node;
      if (Done.Low == Index[U]) {
        // U roots a component: its members sit above U on SccStack.
        size_t First = SccStack.size() - 1;
        while (SccStack[First] != U)
          --First;
        uint32_t Min =
            *std::min_element(SccStack.begin() + First, SccStack.end());
        for (size_t I = First; I != SccStack.size(); ++I)
          Rep[SccStack[I]] = Min;
        SccStack.resize(First);
      }
    }
  });

  // Dense component indices in ascending order of their smallest member
  // (Index is free for reuse).
  forEachNode([&](uint32_t Node) {
    if (Rep[Node] == Node)
      Index[Node] = NumReps++;
  });
  forEachNode([&](uint32_t Node) { Rep[Node] = Index[Rep[Node]]; });
}

/// Builds the condensed labeled adjacency by counting sort on the source
/// component: intra-component Direct flows vanish, Call/Ret flows survive
/// even as self-loops (they transform the context). Each component's
/// flows are then sorted by (target, kind, call site) — the packed label
/// orders by kind, then call site — and deduplicated.
void Resolver::buildCondensedFlows() {
  auto ForEachFlow = [&](auto Fn) {
    forEachNode([&](uint32_t S) {
      const uint32_t RS = Rep[S];
      for (uint32_t Slot = G.userSlot(S); Slot != G.userSlot(S + 1); ++Slot) {
        if (removed(Slot))
          continue;
        const PackedEdge &E = G.userAt(Slot);
        uint32_t RT = inUniverse(E.Node) ? Rep[E.Node] : Escape;
        if (E.kind() == EdgeKind::Direct && RS == RT)
          continue;
        Fn(RS, PackedEdge{RT, E.Label});
      }
    });
  };
  // Counted one slot to the right, so that filling advances
  // FlowBegin[R + 1] from R's first slot to where R + 1 begins.
  FlowBegin.assign(NumReps + 2, 0);
  ForEachFlow([&](uint32_t RS, PackedEdge) { ++FlowBegin[RS + 2]; });
  for (uint32_t R = 2; R != NumReps + 2; ++R)
    FlowBegin[R] += FlowBegin[R - 1];
  Flows.resize(FlowBegin[NumReps + 1]);
  ForEachFlow(
      [&](uint32_t RS, PackedEdge E) { Flows[FlowBegin[RS + 1]++] = E; });
  FlowBegin.pop_back();
  auto Less = [](const PackedEdge &A, const PackedEdge &B) {
    return A.Node != B.Node ? A.Node < B.Node : A.Label < B.Label;
  };
  uint32_t Out = 0;
  for (uint32_t R = 0; R != NumReps; ++R) {
    auto First = Flows.begin() + FlowBegin[R];
    auto Last = Flows.begin() + FlowBegin[R + 1];
    std::sort(First, Last, Less);
    Last = std::unique(First, Last);
    FlowBegin[R] = Out;
    Out = static_cast<uint32_t>(std::move(First, Last, Flows.begin() + Out) -
                                Flows.begin());
  }
  FlowBegin[NumReps] = Out;
  Flows.resize(Out);
}

void Resolver::reach(uint32_t Node, Context Ctx) {
  if (!inUniverse(Node))
    Escaped = true;
  else
    reachRep(Rep[Node], Ctx);
}

void Resolver::reachRep(uint32_t R, Context Ctx) {
  uint8_t &Num = NumCtx[R];
  if (Num & Saturated)
    return;
  // Capped to bound state explosion: on overflow the component saturates
  // to the universal (empty) context, which over-approximates every other
  // context.
  if (Num >= MaxContextsPerRep) {
    Num |= Saturated;
    Ctx = Context::empty();
  }
  const uint8_t Count = Num & ~Saturated;
  if (Count != 0 &&
      (FirstCtx[R] == Ctx.raw() ||
       (Count > 1 && Overflow.contains(R, Ctx.raw()))))
    return;
  if (Count == 0)
    FirstCtx[R] = Ctx.raw();
  else
    Overflow.insert(R, Ctx.raw());
  ++Num;
  Work.push_back({R, Ctx});
}

void Resolver::markReached(BitSet &Bottom) const {
  forEachNode([&](uint32_t Node) {
    if (NumCtx[Rep[Node]])
      Bottom.set(Node);
  });
}

Resolver::Outcome Resolver::run(BitSet &Bottom) {
  const unsigned K = Opts.ContextK;
  condenseDirectSccs();
  buildCondensedFlows();
  FirstCtx.assign(NumReps, 0);
  NumCtx.assign(NumReps, 0);

  forEachSeed(G, Opts, [&](uint32_t S) { reach(S, Context::empty()); });

  // Undefinedness flows from the depended-on component to its users.
  while (!Work.empty() && !Escaped) {
    if (B && !B->step()) {
      markReached(Bottom);
      return Outcome::Pessimized;
    }
    State S = Work.back();
    Work.pop_back();
    for (uint32_t I = FlowBegin[S.Rep]; I != FlowBegin[S.Rep + 1]; ++I) {
      const PackedEdge &E = Flows[I];
      const EdgeKind Kind = E.kind();
      Context Next = S.Ctx;
      if (Kind == EdgeKind::Call) {
        if (K != 0)
          Next = S.Ctx.pushed(E.callSite(), K);
      } else if (Kind == EdgeKind::Ret) {
        if (K != 0 && !S.Ctx.popped(E.callSite(), Next))
          continue;
      }
      if (E.Node == Escape) {
        Escaped = true;
        break;
      }
      reachRep(E.Node, Next);
    }
  }
  if (Escaped)
    return Outcome::Escaped;
  markReached(Bottom);
  return Outcome::Done;
}

} // namespace

Definedness::Definedness(const VFG &G, DefinednessOptions Opts,
                         const RedirectOverlay *Redirects, Budget *B) {
  const uint32_t N = G.numNodes();
  Bottom.resize(N);
  const BitSet *Redirected =
      Redirects && !Redirects->empty() ? &Redirects->Slots : nullptr;

  // On budget exhaustion the worklist is abandoned mid-flight, so the
  // reachability result is incomplete. Completing it pessimistically keeps
  // the answer sound: mark bottom every node that is not structurally
  // defined, i.e. whose effective dependencies are not all the T root.
  // (Alloc results and constants depend only on RootT and must stay top —
  // the planner asserts they never demand a definition.)
  auto Pessimize = [&] {
    Pessimized = true;
    for (uint32_t Id = 0; Id != N; ++Id) {
      if (G.isRoot(Id))
        continue;
      auto Deps = G.deps(Id);
      bool AllTop = !Deps.empty();
      for (uint32_t I = 0; I != Deps.size() && AllTop; ++I)
        AllTop = Deps[I].Node == VFG::RootT ||
                 (Redirected && Redirected->test(G.depSlot(Id) + I));
      if (!AllTop)
        Bottom.set(Id);
    }
    // Taint seeds are bottom by definition, even when structurally
    // defined (an alloc result depends only on RootT yet IS the source).
    if (Opts.Seeds)
      for (uint32_t S : *Opts.Seeds)
        if (!G.isRoot(S))
          Bottom.set(S);
  };

  if (B && !B->step()) {
    Pessimize();
    return;
  }

  // The flows a redirect suppresses: the user-edge mirror of every
  // redirected dependency edge.
  BitSet RemovedUsers;
  if (Redirected) {
    RemovedUsers.resize(G.numEdges());
    Redirected->forEach([&](size_t Slot) {
      const uint32_t Owner = G.depOwner(static_cast<uint32_t>(Slot));
      const PackedEdge &D = G.depAt(static_cast<uint32_t>(Slot));
      const PackedEdge Mirror{Owner, D.Label};
      for (uint32_t U = G.userSlot(D.Node); U != G.userSlot(D.Node + 1); ++U) {
        if (G.userAt(U) == Mirror) {
          RemovedUsers.set(U);
          break;
        }
      }
    });
  }

  const BitSet *Removed = Redirected ? &RemovedUsers : nullptr;
  Resolver::Outcome Out = Resolver::Outcome::Escaped;
  if (Redirects && Redirects->Base) {
    const BitSet &BaseBottom = Redirects->Base->Bottom;
    assert(BaseBottom.size() == N && "base Gamma is over another graph");
    Out = Resolver(G, Opts, Removed, &BaseBottom, B).run(Bottom);
  }
  if (Out == Resolver::Outcome::Escaped) {
    // Everything a flow reaches from the seeds, ignoring contexts: a
    // superset of the bottom nodes closed under flows, so the pass over it
    // cannot escape and visits nothing undefinedness cannot reach.
    BitSet Reachable(N);
    std::vector<uint32_t> Stack;
    auto Visit = [&](uint32_t Node) {
      if (!Reachable.test(Node)) {
        Reachable.set(Node);
        Stack.push_back(Node);
      }
    };
    forEachSeed(G, Opts, Visit);
    while (!Stack.empty()) {
      uint32_t Node = Stack.back();
      Stack.pop_back();
      auto Users = G.users(Node);
      for (uint32_t I = 0; I != Users.size(); ++I)
        if (!Removed || !Removed->test(G.userSlot(Node) + I))
          Visit(Users[I].Node);
    }
    Out = Resolver(G, Opts, Removed, &Reachable, B).run(Bottom);
    assert(Out != Resolver::Outcome::Escaped && "flow left its closure");
  }
  if (Out == Resolver::Outcome::Pessimized)
    Pessimize();
}

BitSet core::computeCheckReaching(const VFG &G, const Definedness &Gamma,
                                  ThreadPool *Pool) {
  BitSet Reaching(G.numNodes());
  BitSet Frontier(G.numNodes());
  BitSet Fresh(G.numNodes());
  for (const VFG::CriticalUse &Use : G.criticalUses())
    if (Gamma.mayBeUndefined(Use.Node))
      Frontier.set(Use.Node);
  // Level-synchronous backward sweep over the dependency edges. Each round
  // folds the frontier into the result with the word-sparse merge — Fresh
  // receives exactly the nodes not seen before — and only those expand
  // into the next frontier. The set-bit iterator skips zero words, so the
  // typically-sparse frontiers cost one load per word plus one ctz per
  // member.
  //
  // Levels big enough to be worth it expand partition-parallel: workers
  // fill private frontier bitsets from disjoint slices of the level, and
  // the slices are unioned after the join. Union is commutative and
  // Reaching is frozen during the expansion, so each round's frontier —
  // and therefore the fixpoint — is byte-identical to the serial sweep.
  constexpr size_t MinParallelLevel = 128;
  std::vector<uint32_t> Level;
  while (true) {
    Fresh.clearAll();
    if (!Reaching.orWithMissingInto(Frontier, Fresh))
      break;
    Frontier.clearAll();
    if (!Pool || Pool->numThreads() <= 1) {
      for (size_t Node : Fresh)
        for (const Edge &E : G.deps(static_cast<uint32_t>(Node)))
          if (!G.isRoot(E.Node) && !Reaching.test(E.Node))
            Frontier.set(E.Node);
      continue;
    }
    Level.clear();
    Fresh.forEach([&](size_t Node) {
      Level.push_back(static_cast<uint32_t>(Node));
    });
    if (Level.size() < MinParallelLevel) {
      for (uint32_t Node : Level)
        for (const Edge &E : G.deps(Node))
          if (!G.isRoot(E.Node) && !Reaching.test(E.Node))
            Frontier.set(E.Node);
      continue;
    }
    size_t NumChunks =
        std::min<size_t>(Pool->numThreads() * 4,
                         (Level.size() + MinParallelLevel - 1) /
                             MinParallelLevel);
    size_t ChunkSize = (Level.size() + NumChunks - 1) / NumChunks;
    std::vector<BitSet> Parts = parallelMapOrdered(
        Pool, NumChunks, [&](size_t C) {
          BitSet Part(G.numNodes());
          size_t Begin = C * ChunkSize;
          size_t End = std::min(Begin + ChunkSize, Level.size());
          for (size_t I = Begin; I != End; ++I)
            for (const Edge &E : G.deps(Level[I]))
              if (!G.isRoot(E.Node) && !Reaching.test(E.Node))
                Part.set(E.Node);
          return Part;
        });
    for (const BitSet &Part : Parts)
      Frontier.unionWith(Part);
  }
  return Reaching;
}
