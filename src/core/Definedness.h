//===- core/Definedness.h - Definedness resolution --------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Definedness resolution (Section 3.3): Gamma maps each VFG node to
/// "bottom" (may be undefined: reachable from the F root) or "top"
/// (provably defined). Reachability is context-sensitive: interprocedural
/// edges carry call-site labels and flows that enter a callee through one
/// call site may only exit through the same site, with a k-bounded stack
/// of unmatched calls (the paper configures 1-callsite sensitivity).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_CORE_DEFINEDNESS_H
#define USHER_CORE_DEFINEDNESS_H

#include "support/BitSet.h"
#include "support/ThreadPool.h"
#include "vfg/VFG.h"

namespace usher {
class Budget;

namespace core {

/// Options for definedness resolution.
struct DefinednessOptions {
  /// Unmatched call sites remembered along a flow (0 = context-
  /// insensitive, 1 = the paper's configuration).
  unsigned ContextK = 1;
  /// When false, every memory-space node is pessimistically undefined:
  /// this models the UsherTL variant, which analyzes top-level variables
  /// only.
  bool AddressTakenAware = true;
  /// Reachability seed nodes. Null (the default) seeds from VFG::RootF —
  /// the UUV client's "undefined" root. A taint client (e.g. the
  /// address-leak detector) passes its source-node set instead; Gamma then
  /// answers "may this node carry a tainted value" with the identical
  /// context-sensitive machinery. Seeds are marked bottom themselves.
  const std::vector<uint32_t> *Seeds = nullptr;
};

class Definedness;

/// Opt II's edit of the VFG (Algorithm 1), as an overlay on the frozen
/// graph: one bit per dependency-edge slot (VFG::depSlot), set when that
/// edge is redirected to the T root. A redirect rewrites only the edges
/// into a closure, so the overlay is per edge, not per node.
struct RedirectOverlay {
  BitSet Slots;
  /// The Gamma the redirects were computed against, or null. Redirects
  /// only delete flows of undefinedness, so every node that is bottom on
  /// the redirected graph is bottom in Base; the re-resolution then walks
  /// only Base's bottom nodes (see Definedness).
  const Definedness *Base = nullptr;

  bool empty() const { return Slots.empty(); }
};

/// The Gamma function of Section 3.3.
class Definedness {
public:
  /// Resolves definedness over \p G. \p Redirects optionally overlays
  /// Opt II's redirected dependency edges (Opt II recomputes Gamma on the
  /// modified graph): a redirected edge carries no undefinedness.
  ///
  /// With a Base in \p Redirects, the resolution is base-relative: it
  /// visits only the nodes bottom in Base, and pops the same states and
  /// charges the same budget steps as a resolution over the whole
  /// redirected graph. Should a flow ever leave Base's bottom set (the
  /// subset argument assumes no component's context memo saturates
  /// differently on the two graphs), it starts over on the whole graph.
  ///
  /// When \p B is armed (BudgetPhase::Definedness, or OptII for the
  /// redirect re-resolution), the reachability worklist checks it per pop.
  /// On exhaustion the resolution is *completed pessimistically* instead
  /// of abandoned: every node that is not structurally defined (i.e. whose
  /// effective dependencies are not all the T root) is marked bottom.
  /// Bottom over-approximates "may be undefined", so the result stays
  /// sound — it merely demands more instrumentation — and wasPessimized()
  /// reports the degradation.
  Definedness(const vfg::VFG &G, DefinednessOptions Opts,
              const RedirectOverlay *Redirects = nullptr,
              Budget *B = nullptr);

  /// True if \p Node may carry an undefined value (Gamma = bottom).
  bool mayBeUndefined(uint32_t Node) const { return Bottom.test(Node); }

  /// True if \p Node is provably defined (Gamma = top).
  bool isDefined(uint32_t Node) const { return !Bottom.test(Node); }

  /// Number of bottom nodes (statistics).
  size_t numUndefinedNodes() const { return Bottom.count(); }

  /// True if the budget ran out and unresolved nodes were pessimistically
  /// marked undefined-capable.
  bool wasPessimized() const { return Pessimized; }

private:
  BitSet Bottom;
  bool Pessimized = false;
};

/// Computes the set of VFG nodes from which some needed runtime check is
/// reachable along dependency edges — the paper's Table 1 "%B" column
/// ("VFG nodes reaching at least one critical statement where a runtime
/// check is needed"). \p Gamma decides which checks are needed.
///
/// With a non-null \p Pool, each BFS level's expansion is partitioned
/// across workers into private frontier bitsets that are then unioned.
/// Set union is commutative and the level barrier is exact, so the
/// resulting set is byte-identical to the serial sweep.
BitSet computeCheckReaching(const vfg::VFG &G, const Definedness &Gamma,
                            ThreadPool *Pool = nullptr);

} // namespace core
} // namespace usher

#endif // USHER_CORE_DEFINEDNESS_H
