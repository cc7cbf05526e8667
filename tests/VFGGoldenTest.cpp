//===- tests/VFGGoldenTest.cpp - Value-flow graph pinned by hash ----------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the value-flow graph byte for byte. A renderer that uses only the
/// public VFG queries prints every node record (function, key, version,
/// slot, origin), each node's dependency edges and user edges in their
/// stored order, the critical uses, the semi-strong cuts and the store
/// flavour counts. The planner, Opt II and the dot dump all read these
/// orders, so a change to node numbering, edge order or dedup shows here
/// first.
///
/// For the tests/inputs programs and the SPEC-like suite (each as parsed
/// and at O0+IM) plus 20 synthesized programs at O0+IM, a 64-bit FNV-1a
/// hash of the rendering is pinned in VFGGoldenHashes.inc.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

using namespace usher;

namespace {

void renderEdges(std::ostream &OS, const char *What,
                 vfg::EdgeRange Edges) {
  OS << ' ' << What << ':';
  for (const vfg::Edge &E : Edges)
    OS << ' ' << E.Node << '/' << static_cast<unsigned>(E.Kind) << '@'
       << E.CallSite;
}

/// Renders every query \p G answers about its shape.
std::string renderVFG(const vfg::VFG &G) {
  std::ostringstream OS;
  OS << "nodes " << G.numNodes() << " edges " << G.numEdges() << '\n';
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    OS << 'n' << Id << ' ' << vfg::nodeOriginName(G.origin(Id));
    if (!G.isRoot(Id)) {
      const vfg::VFG::NodeData N = G.node(Id);
      OS << ' ' << N.Fn->getName() << ':'
         << (N.Key.Sp == ssa::Space::TopLevel ? "tl" : "m") << N.Key.Id
         << 'v' << N.Version << " slot " << N.Slot;
    }
    renderEdges(OS, "deps", G.deps(Id));
    renderEdges(OS, "users", G.users(Id));
    OS << '\n';
  }
  for (const vfg::VFG::CriticalUse &U : G.criticalUses())
    OS << "critical i" << U.I->getId() << " tl" << U.Var->getId() << " n"
       << U.Node << '\n';
  for (const auto &[Obj, Cuts] : G.semiStrongCuts())
    OS << "cut o" << Obj << " x" << Cuts << '\n';
  OS << "stores strong " << G.numStrongStoreChis() << " semi "
     << G.numSemiStrongStoreChis() << " weak " << G.numWeakStoreChis()
     << '\n';
  return OS.str();
}

/// Parses \p Source, applies \p Preset (none: the module as parsed) and
/// renders its VFG; empty for inputs that do not parse.
std::string renderSource(const std::string &Source,
                         std::optional<transforms::OptPreset> Preset) {
  parser::ParseResult PR = parser::parseModule(Source);
  if (!PR.succeeded())
    return "";
  ir::Module &M = *PR.M;
  if (Preset)
    transforms::runPreset(M, *Preset);
  analysis::CallGraph CG(M);
  analysis::PointerAnalysis PA(M, CG);
  analysis::ModRefAnalysis MR(M, CG, PA);
  ssa::MemorySSA SSA(M, PA, MR);
  return renderVFG(vfg::VFGBuilder(M, SSA, PA, CG).build());
}

std::string fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Pinned FNV-1a hashes of the renderings, keyed by preset and input.
const std::map<std::string, std::string> &pinnedHashes() {
  static const std::map<std::string, std::string> Hashes = {
#include "VFGGoldenHashes.inc"
  };
  return Hashes;
}

TEST(VFGGolden, CorpusHashesArePinned) {
  std::map<std::string, std::string> Actual;
  auto Render = [&](const std::string &Name, const std::string &Source) {
    std::string Raw = renderSource(Source, std::nullopt);
    if (Raw.empty())
      return; // Does not parse.
    Actual["raw/" + Name] = fnv1a(Raw);
    Actual["O0+IM/" + Name] =
        fnv1a(renderSource(Source, transforms::OptPreset::O0IM));
  };
  for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
    Render("suite/" + P.Name, P.Source);

  const std::filesystem::path InputDir(USHER_TEST_INPUT_DIR);
  for (const auto &E : std::filesystem::recursive_directory_iterator(InputDir))
    if (E.is_regular_file() && E.path().extension() == ".tc")
      Render("inputs/" +
                 std::filesystem::relative(E.path(), InputDir).string(),
             readFile(E.path()));

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    workload::ShapeSpec S;
    S.Seed = Seed;
    Actual["O0+IM/usher-gen/" + std::to_string(Seed)] =
        fnv1a(renderSource(workload::synthesizeProgram(S),
                           transforms::OptPreset::O0IM));
  }

  EXPECT_GE(Actual.size(), 2 * (15u + 17u) + 20u);
  for (const auto &[Name, Hash] : Actual) {
    auto It = pinnedHashes().find(Name);
    if (It == pinnedHashes().end())
      ADD_FAILURE() << "unpinned input: {\"" << Name << "\", \"" << Hash
                    << "\"},";
    else
      EXPECT_EQ(Hash, It->second) << "value-flow graph of " << Name
                                  << " changed";
  }
  for (const auto &[Name, Hash] : pinnedHashes())
    EXPECT_TRUE(Actual.count(Name)) << "pinned input " << Name << " is gone";
}

/// A phi whose arms outnumber the short-burst scan: eleven distinct
/// versions of x reach label l, then three more arms repeat the last
/// one. Each distinct dependency must appear exactly once, in arm order.
TEST(VFGGolden, LongBurstKeepsFirstCopies) {
  std::string Source = "func main() {\n  c = 0;\n  x = 0;\n";
  for (int I = 1; I <= 10; ++I)
    Source += "  if c goto l;\n  x = " + std::to_string(I) + ";\n";
  for (int I = 0; I != 3; ++I)
    Source += "  if c goto l;\n";
  Source += "l:\n  ret x;\n}\n";
  parser::ParseResult PR = parser::parseModule(Source);
  ASSERT_TRUE(PR.succeeded());
  ir::Module &M = *PR.M;
  analysis::CallGraph CG(M);
  analysis::PointerAnalysis PA(M, CG);
  analysis::ModRefAnalysis MR(M, CG, PA);
  ssa::MemorySSA SSA(M, PA, MR);
  vfg::VFG G = vfg::VFGBuilder(M, SSA, PA, CG).build();
  size_t Longest = 0;
  for (uint32_t Id = 0; Id != G.numNodes(); ++Id) {
    std::vector<uint32_t> Deps;
    for (const vfg::Edge &E : G.deps(Id))
      Deps.push_back(E.Node);
    Longest = std::max(Longest, Deps.size());
    std::sort(Deps.begin(), Deps.end());
    EXPECT_EQ(std::adjacent_find(Deps.begin(), Deps.end()), Deps.end())
        << "node " << Id << " lists a dependency twice";
  }
  EXPECT_EQ(Longest, 11u); // x = 0 .. 10 on the 14 arms into l.
}

} // namespace
