//===- fuzz/Fuzzer.cpp - Coverage-guided differential fuzzing -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "ir/IR.h"
#include "support/RNG.h"
#include "support/RawStream.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace usher;
using namespace usher::fuzz;

namespace {

std::string printModule(const ir::Module &M) {
  std::string Buf;
  raw_string_ostream OS(Buf);
  M.print(OS);
  return Buf;
}

unsigned countLines(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

/// Oracle configuration that re-checks only \p K — the reducer's
/// predicate must preserve the *same kind* of divergence, and skipping
/// the other oracles makes each predicate call several times cheaper.
OracleOptions onlyOracle(OracleKind K, const OracleOptions &Base) {
  OracleOptions Only;
  Only.MaxSteps = Base.MaxSteps;
  Only.CheckVariants = K == OracleKind::VariantEquivalence;
  Only.CheckSolver = K == OracleKind::SolverEquivalence;
  Only.CheckDiagnosis = K == OracleKind::DiagnosisSoundness;
  Only.CheckDegradation = K == OracleKind::DegradationSoundness;
  Only.CheckServe = K == OracleKind::ServeEquivalence;
  Only.CheckQuery = K == OracleKind::QueryEquivalence;
  Only.CheckClients = K == OracleKind::ClientConsistency;
  return Only;
}

void jsonEscape(raw_ostream &OS, const std::string &S) {
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        OS.printf("\\u%04x", static_cast<unsigned>(C));
      else
        OS << C;
    }
  }
}

/// How one campaign round obtained its input.
enum class SchedKind { Generated, Mutated, Spliced, Wrapped };

/// Draws the next input exactly as the serial campaign loop always has:
/// the branch taken and the number of RNG draws are a function of the RNG
/// state and whether the corpus is empty, so running this against a
/// cloned RNG and a corpus snapshot *predicts* the schedule, and running
/// it against the authoritative RNG/corpus *is* the schedule.
static std::pair<std::string, SchedKind>
scheduleOne(RNG &Rng, const std::vector<std::string> &Corpus,
            const workload::GeneratorOptions &Gen) {
  unsigned Choice = Corpus.empty() ? 0 : static_cast<unsigned>(Rng.below(100));
  if (Corpus.empty() || Choice < 30)
    return {printModule(*workload::generateProgram(Rng.next(), Gen)),
            SchedKind::Generated};
  if (Choice < 65)
    return {workload::mutateProgram(Corpus[Rng.below(Corpus.size())],
                                    Rng.next()),
            SchedKind::Mutated};
  if (Choice < 85) {
    const std::string &Recv = Corpus[Rng.below(Corpus.size())];
    const std::string &Donor = Corpus[Rng.below(Corpus.size())];
    return {workload::spliceProgram(Recv, Donor, Rng.next()),
            SchedKind::Spliced};
  }
  return {workload::wrapMainInCall(Corpus[Rng.below(Corpus.size())]),
          SchedKind::Wrapped};
}

} // namespace

FuzzReport fuzz::runFuzzer(const FuzzOptions &Opts) {
  RNG Rng(Opts.Seed);
  CoverageMap Cov;
  std::vector<std::string> Corpus;
  // Synthesized corpus seeds go in before round 0, on the main thread:
  // the first scheduling draw already sees a non-empty corpus, and the
  // speculative parallel path predicts against exactly the same state.
  for (unsigned I = 0; I != Opts.SeedCorpusSynth; ++I) {
    workload::ShapeSpec Shape = Opts.SynthShape;
    Shape.Seed = Opts.Seed + I;
    Corpus.push_back(workload::synthesizeProgram(Shape));
    if (Corpus.size() > Opts.MaxCorpus)
      Corpus.erase(Corpus.begin());
  }
  FuzzReport Rep;
  Rep.Seed = Opts.Seed;
  Rep.Runs = Opts.Runs;

  unsigned Jobs = Opts.Jobs == 0 ? ThreadPool::defaultJobs() : Opts.Jobs;
  std::unique_ptr<ThreadPool> Pool;
  if (Jobs > 1 && Opts.Runs > 1)
    Pool = std::make_unique<ThreadPool>(Jobs);

  // Applies one round's outcome to the campaign state. This — like the
  // scheduling itself — always runs on the main thread, in run order:
  // parallelism only ever memoizes runOracles results.
  auto Apply = [&](unsigned Run, const std::string &Source, SchedKind K,
                   OracleOutcome &&Out) {
    switch (K) {
    case SchedKind::Generated:
      ++Rep.NumGenerated;
      break;
    case SchedKind::Mutated:
      ++Rep.NumMutated;
      break;
    case SchedKind::Spliced:
      ++Rep.NumSpliced;
      break;
    case SchedKind::Wrapped:
      ++Rep.NumWrapped;
      break;
    }
    for (unsigned OK = 0; OK != NumOracleKinds; ++OK)
      Rep.OracleChecked[OK] += Out.Checked[OK] ? 1 : 0;
    if (!Out.Valid) {
      ++Rep.NumInvalid;
      return;
    }
    ++Rep.NumValid;

    // -- Coverage feedback ----------------------------------------------
    if (Cov.addAll(Out.Features) > 0) {
      Corpus.push_back(Source);
      if (Corpus.size() > Opts.MaxCorpus)
        Corpus.erase(Corpus.begin());
    }

    // -- Divergences: tally, then minimize the first one ----------------
    if (Out.Divergences.empty())
      return;
    for (const Divergence &D : Out.Divergences)
      ++Rep.OracleDiverged[static_cast<unsigned>(D.Oracle)];
    if (Rep.Divergences.size() >= Opts.MaxDivergences)
      return;

    const Divergence &D0 = Out.Divergences.front();
    DivergenceRecord Rec;
    Rec.Oracle = D0.Oracle;
    Rec.Detail = D0.Detail;
    Rec.Run = Run;
    Rec.Source = Source;
    Rec.OriginalLines = countLines(Source);
    Rec.Reduced = Source;
    if (Opts.Reduce) {
      OracleOptions Only = onlyOracle(D0.Oracle, Opts.Oracle);
      Predicate StillDiverges = [&Only](const std::string &S) {
        OracleOutcome O = runOracles(S, Only);
        return O.Valid && !O.Divergences.empty();
      };
      ReduceResult RR = reduceProgram(Source, StillDiverges, Opts.Reducer);
      Rec.Reduced = std::move(RR.Source);
      Rec.ReduceChecks = RR.NumChecks;
    }
    Rec.ReducedLines = countLines(Rec.Reduced);
    Rep.Divergences.push_back(std::move(Rec));
  };

  auto Stopped = [&Opts, &Rep] {
    if (Opts.Stop && Opts.Stop->load(std::memory_order_relaxed)) {
      Rep.Interrupted = true;
      return true;
    }
    return false;
  };
  unsigned Completed = 0;

  if (!Pool) {
    for (unsigned Run = 0; Run != Opts.Runs && !Stopped(); ++Run) {
      auto [Source, K] = scheduleOne(Rng, Corpus, Opts.Gen);
      Apply(Run, Source, K, runOracles(Source, Opts.Oracle));
      Completed = Run + 1;
    }
  } else {
    // Speculative sharding. Predict a window of inputs from a cloned RNG
    // against the current corpus, evaluate the oracles (a pure function
    // of the program text) on the pool, then replay the window serially
    // from the authoritative RNG: a replayed input byte-equal to its
    // prediction reuses the precomputed outcome; a mismatch (the corpus
    // changed mid-window) is evaluated inline and ends the window so the
    // next one speculates against the updated corpus. Every decision the
    // report can observe is made by the replay, which is exactly the
    // serial loop above.
    const unsigned Window = Pool->numThreads() * 2;
    unsigned Run = 0;
    std::vector<std::string> SpecSources;
    // Interruption is checked at window boundaries: completed rounds are
    // whole rounds either way, so the partial report stays consistent.
    while (Run != Opts.Runs && !Stopped()) {
      unsigned W = std::min(Window, Opts.Runs - Run);
      RNG SpecRng = Rng;
      SpecSources.clear();
      for (unsigned I = 0; I != W; ++I)
        SpecSources.push_back(scheduleOne(SpecRng, Corpus, Opts.Gen).first);
      std::vector<OracleOutcome> SpecOuts =
          parallelMapOrdered(Pool.get(), W, [&](size_t I) {
            return runOracles(SpecSources[I], Opts.Oracle);
          });
      for (unsigned I = 0; I != W; ++I) {
        auto [Source, K] = scheduleOne(Rng, Corpus, Opts.Gen);
        bool Hit = Source == SpecSources[I];
        OracleOutcome Out =
            Hit ? std::move(SpecOuts[I]) : runOracles(Source, Opts.Oracle);
        Apply(Run, Source, K, std::move(Out));
        ++Run;
        if (!Hit)
          break;
      }
    }
    Completed = Run;
  }

  Rep.Runs = Completed;
  Rep.CorpusSize = static_cast<unsigned>(Corpus.size());
  Rep.CoverageKeys = Cov.size();
  return Rep;
}

void FuzzReport::printJson(raw_ostream &OS) const {
  OS << "{\n";
  OS << "  \"schema\": \"usher-fuzz-v1\",\n";
  OS << "  \"seed\": " << Seed << ",\n";
  OS << "  \"runs\": " << Runs << ",\n";
  OS << "  \"interrupted\": " << (Interrupted ? "true" : "false") << ",\n";
  OS << "  \"valid\": " << NumValid << ",\n";
  OS << "  \"invalid\": " << NumInvalid << ",\n";
  OS << "  \"scheduled\": {\"generated\": " << NumGenerated
     << ", \"mutated\": " << NumMutated << ", \"spliced\": " << NumSpliced
     << ", \"wrapped\": " << NumWrapped << "},\n";
  OS << "  \"corpus_size\": " << CorpusSize << ",\n";
  OS << "  \"coverage_keys\": " << CoverageKeys << ",\n";
  OS << "  \"oracles\": [\n";
  for (unsigned K = 0; K != NumOracleKinds; ++K) {
    OS << "    {\"oracle\": \"" << oracleKindName(static_cast<OracleKind>(K))
       << "\", \"checked\": " << OracleChecked[K]
       << ", \"divergences\": " << OracleDiverged[K] << "}"
       << (K + 1 != NumOracleKinds ? "," : "") << "\n";
  }
  OS << "  ],\n";
  OS << "  \"divergences\": [";
  for (size_t I = 0; I != Divergences.size(); ++I) {
    const DivergenceRecord &D = Divergences[I];
    OS << (I ? ",\n    {" : "\n    {");
    OS << "\"oracle\": \"" << oracleKindName(D.Oracle) << "\", ";
    OS << "\"run\": " << D.Run << ", ";
    OS << "\"original_lines\": " << D.OriginalLines << ", ";
    OS << "\"reduced_lines\": " << D.ReducedLines << ", ";
    OS << "\"reduce_checks\": " << D.ReduceChecks << ", ";
    OS << "\"detail\": \"";
    jsonEscape(OS, D.Detail);
    OS << "\", \"reduced_source\": \"";
    jsonEscape(OS, D.Reduced);
    OS << "\"}";
  }
  OS << (Divergences.empty() ? "]\n" : "\n  ]\n");
  OS << "}\n";
}
