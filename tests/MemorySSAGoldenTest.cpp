//===- tests/MemorySSAGoldenTest.cpp - Memory SSA pinned by rendering -----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the memory SSA form byte for byte. A renderer that uses only the
/// public FunctionSSA queries prints, per function, the virtual input and
/// output parameters, every block's phis with their ordered incoming
/// lists, every instruction's top-level uses, mus and chis, and the
/// definition site of every version of every key. The VFG numbers its
/// nodes in the order the builder meets these versions, so any change to
/// a version number, the phi order within a block, an incoming order or
/// the mu/chi order shows here first.
///
/// Two renderings are committed in full (tests/golden/*.mssa): the
/// demand-query input as parsed and 197.parser at O0+IM. For the rest of
/// the corpus (the tests/inputs programs and the SPEC-like suite, each as
/// parsed and at O0+IM, plus 20 synthesized programs at O0+IM) a 64-bit
/// FNV-1a hash of the rendering is pinned in MemorySSAGoldenHashes.inc.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "ssa/MemorySSA.h"
#include "transforms/Transforms.h"
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
using ssa::DefDesc;
using ssa::Space;
using ssa::VarKey;

namespace {

void renderKey(std::ostream &OS, VarKey Key) {
  OS << (Key.Sp == Space::TopLevel ? "tl" : "m") << Key.Id;
}

const char *chiKindName(ssa::ChiKind K) {
  switch (K) {
  case ssa::ChiKind::Store:
    return "store";
  case ssa::ChiKind::Alloc:
    return "alloc";
  case ssa::ChiKind::CallMod:
    return "callmod";
  case ssa::ChiKind::CloneAlloc:
    return "clone";
  }
  return "?";
}

void renderVersions(std::ostream &OS, const ssa::FunctionSSA &FS,
                    VarKey Key) {
  const uint32_t N = FS.numVersions(Key);
  OS << "  ";
  renderKey(OS, Key);
  OS << " versions " << N << ':';
  for (uint32_t V = 0; V != N; ++V) {
    const DefDesc &D = FS.defOf(Key, V);
    switch (D.K) {
    case DefDesc::Kind::Entry:
      OS << " entry";
      break;
    case DefDesc::Kind::Inst:
      OS << " i" << D.I->getId();
      break;
    case DefDesc::Kind::Phi:
      OS << " phi@bb" << D.PhiBlock->getId() << '#' << D.PhiIdx;
      break;
    }
  }
  OS << '\n';
}

/// Renders the memory SSA of every function of \p M.
std::string renderMemorySSA(const ir::Module &M, const ssa::MemorySSA &SSA) {
  std::ostringstream OS;
  for (const auto &F : M.functions()) {
    const ssa::FunctionSSA &FS = SSA.get(F.get());
    OS << "func " << F->getName() << "\n  in:";
    for (uint32_t Loc : FS.formalIns())
      OS << " m" << Loc;
    OS << "\n  out:";
    for (uint32_t Loc : FS.formalOuts())
      OS << " m" << Loc;
    OS << '\n';
    for (const auto &BB : F->blocks()) {
      OS << " bb" << BB->getId() << '\n';
      for (const auto &Phi : FS.phisIn(BB.get())) {
        OS << "  phi ";
        renderKey(OS, Phi.Var);
        OS << 'v' << Phi.ResultVersion << " <-";
        for (const auto &[Pred, Version] : Phi.Incoming)
          OS << " bb" << Pred->getId() << ':' << Version;
        OS << '\n';
      }
      for (const auto &I : BB->instructions()) {
        OS << "  i" << I->getId();
        const ssa::InstSSA *Info = FS.instInfo(I.get());
        if (!Info) {
          OS << " unreachable\n";
          continue;
        }
        if (I->getDef())
          OS << " def tl" << I->getDef()->getId() << 'v'
             << Info->TLDefVersion;
        for (const ssa::TLUse &U : Info->TLUses)
          OS << " use tl" << U.Var->getId() << 'v' << U.Version;
        for (const ssa::MemUse &Mu : Info->Mus)
          OS << " mu m" << Mu.Loc << 'v' << Mu.Version;
        for (const ssa::MemDef &Chi : Info->Chis)
          OS << " chi m" << Chi.Loc << 'v' << Chi.OldVersion << "->v"
             << Chi.NewVersion << ':' << chiKindName(Chi.Kind);
        OS << '\n';
      }
    }
    for (const auto &V : F->variables())
      renderVersions(OS, FS, {Space::TopLevel, V->getId()});
    for (uint32_t Loc : FS.formalIns())
      renderVersions(OS, FS, {Space::Memory, Loc});
  }
  return OS.str();
}

/// Parses \p Source, applies \p Preset (none: the module as parsed, with
/// every stack cell still in memory) and renders its memory SSA; empty for
/// inputs that do not parse.
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
  return renderMemorySSA(M, SSA);
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

const workload::BenchmarkProgram &suiteProgram(const std::string &Name) {
  for (const workload::BenchmarkProgram &P : workload::spec2000Suite())
    if (P.Name == Name)
      return P;
  ADD_FAILURE() << "no suite program " << Name;
  return workload::spec2000Suite().front();
}

void expectMatchesGolden(const std::string &Rendered,
                         const std::string &GoldenName) {
  std::filesystem::path Golden =
      std::filesystem::path(USHER_TEST_GOLDEN_DIR) / GoldenName;
  ASSERT_TRUE(std::filesystem::exists(Golden)) << Golden;
  EXPECT_EQ(Rendered, readFile(Golden)) << "memory SSA differs from "
                                        << Golden;
}

TEST(MemorySSAGolden, UndefBranchMatchesFullText) {
  std::string Source = readFile(std::filesystem::path(USHER_TEST_INPUT_DIR) /
                                "query" / "undef_branch.tc");
  expectMatchesGolden(renderSource(Source, std::nullopt),
                      "undef_branch.mssa");
}

TEST(MemorySSAGolden, SuiteProgramMatchesFullText) {
  expectMatchesGolden(renderSource(suiteProgram("197.parser").Source,
                                   transforms::OptPreset::O0IM),
                      "197.parser.mssa");
}

/// Pinned FNV-1a hashes of the renderings, keyed by preset and input.
const std::map<std::string, std::string> &pinnedHashes() {
  static const std::map<std::string, std::string> Hashes = {
#include "MemorySSAGoldenHashes.inc"
  };
  return Hashes;
}

TEST(MemorySSAGolden, CorpusHashesArePinned) {
  // The suite and the tests/inputs programs both as parsed and at O0+IM
  // (which promotes every stack cell); synthesized programs at O0+IM.
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
      EXPECT_EQ(Hash, It->second) << "memory SSA of " << Name << " changed";
  }
  for (const auto &[Name, Hash] : pinnedHashes())
    EXPECT_TRUE(Actual.count(Name)) << "pinned input " << Name << " is gone";
}

} // namespace
