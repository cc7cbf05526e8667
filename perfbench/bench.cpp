//===- perfbench/bench.cpp - Usher end-to-end and per-layer benchmark -----===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's benchmark: one program, two workloads, every answer
/// checked. Each workload is a family of input programs pushed through the
/// two product paths a user of Usher has:
///
///   batch  parseModule -> runPreset(O0+IM) -> runUsher, then the program
///          is interpreted under the Usher plan and, on some iterations,
///          also plan-less and under the MSan full plan, back to back;
///   serve  a real serve::Daemon on a unix socket (2 workers, a fresh
///          in-memory snapshot store per round), driven by one closed-loop
///          ServeClient: every stream program is sent cold, then the
///          identical stream is replayed warm.
///
/// Untraced runs (--trace 0) time only those product entry points and
/// print the end-to-end metrics, scaled by a reference kernel timed all
/// through the run (see "Reference kernel"). Traced runs (--trace 1) call
/// the layers one by one in runUsher's happy-path order, wrap each call in
/// a span, cross-check the result against runUsher on the same program,
/// and print the per-layer metrics; the spans go to a Chrome trace-event
/// file.
///
/// Usage:
///   usher_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///               --scratch <dir> [--trace-out <file>] [--smoke]
///
/// --scratch is a directory the run may create and delete (the daemons'
/// sockets live there); --smoke shrinks every input so the
/// benchmark's own tests finish in seconds. The last stdout line is the
/// result object {"correct", "attempted", "failed", "metrics"}; the lines
/// before it start with '#' and carry sample counts, error rate and the
/// machine context.
///
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/ModRef.h"
#include "analysis/PointerAnalysis.h"
#include "core/Definedness.h"
#include "core/Instrumentation.h"
#include "core/OptII.h"
#include "core/Usher.h"
#include "ir/IR.h"
#include "parser/Parser.h"
#include "runtime/Interpreter.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "serve/Session.h"
#include "ssa/MemorySSA.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "support/Timer.h"
#include "transforms/Transforms.h"
#include "vfg/VFG.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

using namespace usher;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

constexpr double Inf = std::numeric_limits<double>::infinity();

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0.0 : Sum / V.size();
}

/// Nearest-rank percentile; infinite samples (failed requests) sort last,
/// so a failure counts as exceeding every percentile.
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Per request, its median latency, or infinity if any sample failed.
std::vector<double> perRequest(const std::vector<std::vector<double>> &Ms,
                               const std::vector<bool> &Failed) {
  std::vector<double> V;
  for (size_t I = 0; I != Ms.size(); ++I)
    V.push_back(Failed[I] || Ms[I].empty() ? Inf : median(Ms[I]));
  return V;
}

/// Samples strictly above the nearest-rank \p P percentile.
size_t samplesBeyond(size_t N, double P) {
  return N - std::clamp<size_t>(static_cast<size_t>(std::ceil(P * N)), 1, N);
}

/// Shortest round-trip decimal form; JSON has no infinity, so a failed
/// latency percentile is written as the largest finite double.
std::string num(double V) {
  if (!std::isfinite(V))
    V = std::numeric_limits<double>::max();
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

//===----------------------------------------------------------------------===//
// Machine context
//===----------------------------------------------------------------------===//

std::atomic<uint64_t> SpinSink{0};

void spin(uint64_t N) {
  uint64_t X = 0x2545f4914f6cdd1dull ^ N;
  for (uint64_t I = 0; I != N; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  SpinSink.fetch_add(X, std::memory_order_relaxed);
}

struct MachineContext {
  unsigned NProc = 1;
  double EffectiveCores = 1.0;
};

/// Calibrates a spin loop to ~40 ms on one thread, then runs nproc copies
/// at once: effective cores = nproc * (one-thread time / all-threads time).
/// hardware_concurrency() alone overstates what a shared box delivers.
MachineContext probeMachine() {
  MachineContext C;
  C.NProc = std::max(1u, std::thread::hardware_concurrency());
  uint64_t N = 1 << 20;
  double One = 0;
  for (;;) {
    auto T0 = Clock::now();
    spin(N);
    One = msSince(T0);
    if (One >= 40.0)
      break;
    N *= 2;
  }
  double All = Inf;
  for (int Try = 0; Try != 2; ++Try) {
    auto T0 = Clock::now();
    std::vector<std::thread> Ts;
    for (unsigned I = 0; I != C.NProc; ++I)
      Ts.emplace_back([N] { spin(N); });
    for (std::thread &T : Ts)
      T.join();
    All = std::min(All, msSince(T0));
  }
  C.EffectiveCores = All > 0 ? C.NProc * One / All : 1.0;
  return C;
}

//===----------------------------------------------------------------------===//
// Reference kernel
//===----------------------------------------------------------------------===//

/// The box the benchmark was tuned on (4 vCPUs of a shared host) runs the
/// same code at speeds up to 1.7x apart, in states that last from a tenth
/// of a second to minutes; a run's fastest or median time follows the
/// state it happened to fall in. The harness therefore also times this
/// fixed kernel all through the run, and scales its end-to-end times by
/// RefNominalMs / (the kernel's mean time in the run): a time is reported
/// as it would read on a machine where the kernel takes 8 ms, about its
/// median on that box.
///
/// Batch times are means over the run, like the kernel's: the slow state
/// slows the kernel less than it slows the program (1.3x against up to
/// 1.7x), so a median, which jumps from one state's value to the other's
/// as their shares cross one half, would move by the whole gap while a
/// mean moves in proportion to the shares. Serve times are per-request
/// medians over the rounds, because one stalled round would move a
/// request's mean.
///
/// The kernel is code of the benchmark, not of the program under test, so
/// no change to src/ moves it. It hashes, walks a tree and sorts strings,
/// the kind of work the analysis and the interpreter do, in a private
/// arena so that the program's heap cannot affect it. A pure ALU loop keeps
/// its speed through the slow states and would not track them.
constexpr double RefNominalMs = 8.0;

alignas(64) unsigned char RefArena[16 << 20];

double referenceMs() {
  const auto T0 = Clock::now();
  std::pmr::monotonic_buffer_resource Arena(RefArena, sizeof(RefArena));
  std::pmr::unordered_map<uint64_t, uint64_t> Hash(&Arena);
  std::pmr::map<uint64_t, uint64_t> Tree(&Arena);
  std::pmr::vector<std::pmr::string> Strings(&Arena);
  uint64_t X = 42;
  auto Next = [&X] {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    return X;
  };
  for (uint64_t I = 0; I != 20000; ++I) {
    Hash[Next() >> 20] = I;
    if (I % 4 == 0)
      Tree[X >> 30] = I;
    if (I % 8 == 0)
      Strings.emplace_back(std::to_string(X));
  }
  uint64_t Acc = 0;
  X = 42;
  for (unsigned I = 0; I != 40000; ++I) {
    if (auto It = Hash.find(Next() >> 20); It != Hash.end())
      Acc += It->second;
    if (auto It = Tree.lower_bound(X >> 30); It != Tree.end())
      Acc += It->second;
  }
  std::sort(Strings.begin(), Strings.end());
  SpinSink.fetch_add(Acc + Strings.size(), std::memory_order_relaxed);
  return msSince(T0);
}

/// Reference times of one run, and the scale they give.
struct Reference {
  std::vector<double> Ms;
  void sample() { Ms.push_back(referenceMs()); }
  double scale() const { return RefNominalMs / mean(Ms); }
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::string Source;
  /// Suite programs carry their documented behaviour.
  bool HasExpected = false;
  int64_t ExpectedResult = 0;
  unsigned ExpectedBugSites = 0;
};

/// One workload: the programs the batch path analyzes and runs, the
/// request stream the service answers, and the share of the run's time
/// budget the batch leg gets (the serve leg gets the rest).
struct Workload {
  std::vector<Program> Batch;
  std::vector<Program> Stream;
  double BatchShare = 0.5;
  /// The Usher run is timed on every batch iteration, the plan-less and
  /// MSan runs on every BaselineEvery-th one.
  unsigned BaselineEvery = 1;
};

Program synthesized(std::string Name, const workload::ShapeSpec &S) {
  Program P;
  P.Name = std::move(Name);
  P.Source = workload::synthesizeProgram(S);
  return P;
}

template <class T> void shuffle(std::vector<T> &V, uint64_t &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[splitMix(Rng) % I]);
}

/// The serve leg's request stream: \p Count distinct default-shape
/// programs of about \p Nodes VFG nodes, generated from \p Rng.
std::vector<Program> requestStream(uint64_t &Rng, unsigned Count,
                                   unsigned Nodes) {
  std::vector<Program> Stream;
  for (unsigned I = 0; I != Count; ++I) {
    workload::ShapeSpec S;
    S.Seed = splitMix(Rng);
    S.TargetNodes = Nodes;
    Stream.push_back(synthesized("req" + std::to_string(I), S));
  }
  return Stream;
}

/// Builds workload \p Name from \p Seed. The program under test never
/// sees the seed, only the inputs generated from it.
///
/// The seed generates the serve stream and permutes the order of the
/// batch programs; the batch corpus itself is fixed, because its metrics
/// are per-program analysis times and deterministic counts whose
/// seed-to-seed spread would otherwise swamp any regression bound.
///
/// Every timed operation is short (at most a few hundred ms) and taken
/// many times all through a run, so that its mean over the run is
/// steady: the serve stream has 110 distinct requests, enough for the p90
/// across requests to have ten beyond it, each answered cold and warm
/// once per round.
bool makeWorkload(const std::string &Name, uint64_t Seed, bool Smoke,
                  Workload &W) {
  uint64_t Rng = Seed;
  if (Name == "synth-deep") {
    // The paper's setting: default-shape programs (call depth 6, fanout 3,
    // 2 recursion rings) at O0+IM, 600k target VFG nodes in all, split
    // into twelve programs so each analysis is short. VFG -> definedness
    // -> Opt II does most of the work.
    for (unsigned I = 0; I != (Smoke ? 2u : 12u); ++I) {
      workload::ShapeSpec S;
      S.Seed = I + 1;
      S.TargetNodes = Smoke ? 6'000 : 50'000;
      W.Batch.push_back(synthesized("deep" + std::to_string(I), S));
    }
    shuffle(W.Batch, Rng);
    W.Stream = requestStream(Rng, Smoke ? 12 : 110, Smoke ? 3'000 : 15'000);
    W.BatchShare = 0.5;
    W.BaselineEvery = 2;
    return true;
  }
  if (Name == "suite-exec") {
    // The 15 SPEC-like programs; the interpreter does nearly all the work.
    for (const workload::BenchmarkProgram &B : workload::spec2000Suite()) {
      Program P;
      P.Name = B.Name;
      P.Source = B.Source;
      P.HasExpected = true;
      P.ExpectedResult = B.ExpectedResult;
      P.ExpectedBugSites = B.ExpectedBugSites;
      W.Batch.push_back(P);
    }
    if (Smoke)
      W.Batch.resize(3);
    shuffle(W.Batch, Rng);
    W.Stream = requestStream(Rng, Smoke ? 12 : 110, Smoke ? 2'000 : 6'000);
    W.BatchShare = 0.7;
    // Usher runs take 20 to 255 ms here; timing the baselines on every
    // third iteration gives each program more Usher samples.
    W.BaselineEvery = 3;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder written out as Chrome trace-event JSON when
/// the run ends. Spans nest by call order; every span of one operation
/// carries that operation's id.
class Tracer {
public:
  struct Span {
    std::string Name;
    std::string Op;
    double StartUs = 0;
    double DurUs = 0;
    int Parent = -1;
    std::vector<std::pair<std::string, double>> Counts;
  };

  int open(std::string Name, std::string Op) {
    Span S;
    S.Name = std::move(Name);
    S.Op = std::move(Op);
    S.StartUs = nowUs();
    S.Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }

  /// Closes the innermost span (which must be \p Id); returns its ms.
  double close(int Id) {
    if (Stack.empty() || Stack.back() != Id) {
      std::fprintf(stderr, "usher_bench: unbalanced span %d\n", Id);
      std::abort();
    }
    Stack.pop_back();
    LastClosed = Id;
    Spans[Id].DurUs = nowUs() - Spans[Id].StartUs;
    return Spans[Id].DurUs / 1000.0;
  }

  /// Attaches a count to the span closed last.
  void count(std::string Key, double V) {
    Spans[LastClosed].Counts.emplace_back(std::move(Key), V);
  }

  bool write(const std::string &Path) const {
    std::vector<double> ChildUs(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildUs[S.Parent] += S.DurUs;
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"name\": \"%s\", \"cat\": \"usher\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %s, \"dur\": %s, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": \"%s\", "
                   "\"self_ms\": %s",
                   S.Name.c_str(), num(S.StartUs).c_str(),
                   num(S.DurUs).c_str(), I, S.Parent, S.Op.c_str(),
                   num((S.DurUs - ChildUs[I]) / 1000.0).c_str());
      for (const auto &[K, V] : S.Counts)
        std::fprintf(F, ", \"%s\": %s", K.c_str(), num(V).c_str());
      std::fprintf(F, "}}%s\n", I + 1 == Spans.size() ? "" : ",");
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  Clock::time_point T0 = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
  int LastClosed = -1;
};

/// Resident set size from /proc/self/statm, in MB.
double residentMB() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0.0;
  unsigned long Size = 0, Resident = 0;
  int Got = std::fscanf(F, "%lu %lu", &Size, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0.0;
  return static_cast<double>(Resident) * ::sysconf(_SC_PAGESIZE) /
         (1024.0 * 1024.0);
}

//===----------------------------------------------------------------------===//
// Checks shared by both paths
//===----------------------------------------------------------------------===//

std::optional<FaultPlan> EnvFault;
std::string EnvFaultSpec;

std::set<std::string> warningKeys(const std::vector<runtime::Warning> &Ws) {
  std::set<std::string> Keys;
  for (const runtime::Warning &W : Ws)
    Keys.insert(workload::warningSiteKey(W.At));
  return Keys;
}

/// What the analysis decided plus what the instrumented run observed.
/// It must not drift between iterations, and the traced path must
/// reproduce runUsher's.
struct Fingerprint {
  uint64_t Nodes = 0, Edges = 0, Redirected = 0, Checks = 0, Props = 0;
  std::set<std::string> Warnings;
  bool operator==(const Fingerprint &) const = default;
};

std::string describe(const Fingerprint &F) {
  return "nodes=" + std::to_string(F.Nodes) +
         " edges=" + std::to_string(F.Edges) +
         " redirected=" + std::to_string(F.Redirected) +
         " checks=" + std::to_string(F.Checks) +
         " propagations=" + std::to_string(F.Props) +
         " warnings=" + std::to_string(F.Warnings.size());
}

std::string parseErrors(const parser::ParseResult &PR) {
  return "parse error: " +
         (PR.Errors.empty() ? std::string("unknown") : PR.Errors.front());
}

std::string runFailure(const char *Who, const runtime::ExecutionReport &R) {
  if (R.Reason == runtime::ExitReason::Finished)
    return "";
  return std::string(Who) + " run stopped: " +
         (R.Reason == runtime::ExitReason::Trap ? "trap: " + R.TrapMessage
                                                : std::string("limit"));
}

/// The variant-equivalence semantics of the fuzz oracles: MSan-full
/// warnings equal the ground-truth oracle warnings, Usher's are a subset
/// that is non-empty exactly when they are; suite programs also match
/// their documented result and bug-site count. Without baselines (\p Native
/// and \p Msan null) the Usher run's own ground truth, which every run
/// tracks, stands in for the plan-less run's, and main must return
/// \p NativeResult, the plan-less result of an earlier sample.
std::string checkRuns(const Program &P, const runtime::ExecutionReport *Native,
                      const runtime::ExecutionReport *Msan,
                      const runtime::ExecutionReport &Usher,
                      int64_t NativeResult = 0) {
  for (auto [Who, R] : {std::pair{"plan-less", Native},
                        std::pair{"msan", Msan}, std::pair{"usher", &Usher}})
    if (R)
      if (std::string E = runFailure(Who, *R); !E.empty())
        return E;
  const runtime::ExecutionReport &Truth = Native ? *Native : Usher;
  if (Native)
    NativeResult = Native->MainResult;
  if (P.HasExpected && NativeResult != P.ExpectedResult)
    return "main returned " + std::to_string(NativeResult) + ", expected " +
           std::to_string(P.ExpectedResult);
  if ((Msan && Msan->MainResult != NativeResult) ||
      Usher.MainResult != NativeResult)
    return "instrumentation changed main's result";
  const std::set<std::string> Oracle = warningKeys(Truth.OracleWarnings);
  if (Msan && warningKeys(Msan->ToolWarnings) != Oracle)
    return "MSan warnings differ from the ground truth";
  const std::set<std::string> U = warningKeys(Usher.ToolWarnings);
  if (!std::includes(Oracle.begin(), Oracle.end(), U.begin(), U.end()))
    return "Usher reported a false positive";
  if (U.empty() != Oracle.empty())
    return "Usher hid every real defect";
  if (P.HasExpected && Oracle.size() != P.ExpectedBugSites)
    return std::to_string(Oracle.size()) + " bug sites, expected " +
           std::to_string(P.ExpectedBugSites);
  if (P.Name == "197.parser" &&
      std::none_of(U.begin(), U.end(), [](const std::string &K) {
        return K.rfind("ppmatch:", 0) == 0;
      }))
    return "the ppmatch bug went unreported";
  return "";
}

//===----------------------------------------------------------------------===//
// Batch path
//===----------------------------------------------------------------------===//

/// Per-iteration sums over the workload's batch programs.
struct BatchIter {
  double ModeledPctSum = 0;
  uint64_t PlanOps = 0;
  /// Wall time of the iteration's interpreter runs, repetitions included.
  double ExecWallMs = 0;
};

/// Interpreter times of every batch program, summed: one exec sample.
/// Only samples with baselines carry plan-less and MSan times.
struct ExecSample {
  bool Baselines = true;
  double NativeMs = 0, MsanMs = 0, UsherMs = 0;
};

/// Timed interpretations of one program. Short runs are repeated (each
/// repetition times plan-less, MSan and Usher back to back) until the
/// first variant's runs add up to MinExecMs; each variant reports its
/// fastest repetition. Without baselines only the Usher run is timed.
struct ExecOutcome {
  double NativeMs = 0, MsanMs = 0, UsherMs = 0;
  runtime::ExecutionReport Native, Msan, Usher;
};

constexpr double MinExecMs = 10.0;
constexpr unsigned MaxExecReps = 25;
constexpr double MinAnalyzeMs = 20.0;
constexpr unsigned MaxAnalyzeReps = 25;

ExecOutcome execute(const ir::Module &M, const core::InstrumentationPlan &Plan,
                    const core::InstrumentationPlan &Full, Tracer *Tr,
                    const std::string &Op, bool Baselines = true) {
  ExecOutcome E;
  std::vector<double> N, S, U;
  auto Timed = [&](const char *Span, const core::InstrumentationPlan *P,
                   runtime::ExecutionReport &Out, std::vector<double> &Ms) {
    int Id = Tr ? Tr->open(Span, Op) : -1;
    auto T0 = Clock::now();
    runtime::ExecutionReport R = runtime::Interpreter(M, P).run();
    Ms.push_back(msSince(T0));
    if (Tr)
      Tr->close(Id);
    Out = std::move(R);
  };
  malloc_trim(0); // The runs start from a heap like a fresh process's.
  unsigned Reps = 1;
  for (unsigned R = 0; R != Reps; ++R) {
    if (Baselines) {
      Timed("runtime.native", nullptr, E.Native, N);
      Timed("runtime.msan", &Full, E.Msan, S);
    }
    Timed("runtime.usher", &Plan, E.Usher, U);
    if (R == 0) {
      const double First = Baselines ? N[0] : U[0];
      Reps = std::clamp<unsigned>(
          static_cast<unsigned>(std::ceil(MinExecMs / std::max(First, 1e-3))),
          1, MaxExecReps);
    }
  }
  if (Baselines) {
    E.NativeMs = *std::min_element(N.begin(), N.end());
    E.MsanMs = *std::min_element(S.begin(), S.end());
  }
  E.UsherMs = *std::min_element(U.begin(), U.end());
  return E;
}

Fingerprint fingerprintOf(const vfg::VFG &G, uint64_t Redirected,
                          const core::InstrumentationPlan &Plan,
                          const runtime::ExecutionReport &Usher) {
  Fingerprint F;
  F.Nodes = G.numNodes();
  F.Edges = G.numEdges();
  F.Redirected = Redirected;
  F.Checks = Plan.countChecks();
  F.Props = Plan.countPropagationReads();
  F.Warnings = warningKeys(Usher.ToolWarnings);
  return F;
}

/// What an untraced run keeps per batch program: the last analyzed module
/// with its two plans (so exec samples can also be taken between serve
/// rounds), the first iteration's fingerprint, and the times taken.
/// analyze_ms and exec_usher_ms sum the per-program means.
struct ProgramState {
  std::unique_ptr<ir::Module> M;
  std::optional<core::InstrumentationPlan> Plan, Full;
  std::optional<Fingerprint> First;
  /// main's result in the first plan-less run; Usher-only samples must
  /// reproduce it.
  std::optional<int64_t> NativeResult;
  std::vector<double> AnalyzeMs, UsherMs;
};

/// Runs \p St's kept program (three ways when \p Baselines, otherwise
/// under the Usher plan only), checks the runs and adds the times to \p S.
std::string execKept(const Program &P, ProgramState &St, ExecSample &S,
                     ExecOutcome &E, bool Baselines) {
  Baselines = Baselines || !St.NativeResult;
  E = execute(*St.M, *St.Plan, *St.Full, nullptr, P.Name, Baselines);
  if (std::string Err =
          Baselines ? checkRuns(P, &E.Native, &E.Msan, E.Usher)
                    : checkRuns(P, nullptr, nullptr, E.Usher, *St.NativeResult);
      !Err.empty())
    return Err;
  if (Baselines && !St.NativeResult)
    St.NativeResult = E.Native.MainResult;
  S.NativeMs += E.NativeMs;
  S.MsanMs += E.MsanMs;
  S.UsherMs += E.UsherMs;
  St.UsherMs.push_back(E.UsherMs);
  return "";
}

/// The product path: source text to finished plan, timed as one unit.
struct Analyzed {
  parser::ParseResult PR;
  std::optional<core::UsherResult> UR;
  double Ms = 0;
  std::string Error;
};

Analyzed analyzeProduct(const Program &P) {
  Analyzed A;
  auto T0 = Clock::now();
  A.PR = parser::parseModule(P.Source);
  if (!A.PR.succeeded()) {
    A.Error = parseErrors(A.PR);
    return A;
  }
  transforms::runPreset(*A.PR.M, transforms::OptPreset::O0IM);
  core::UsherOptions Opts;
  Opts.Fault = EnvFault;
  A.UR.emplace(core::runUsher(*A.PR.M, Opts));
  A.Ms = msSince(T0);
  if (A.UR->Degradation.Degraded)
    A.Error = "degraded with no budget armed: " + A.UR->Degradation.summary();
  return A;
}

/// One batch operation on the product path: analysis plus the runs.
/// Short analyses are repeated, each on a fresh parse, until they add up
/// to MinAnalyzeMs; the last result is executed and kept in \p St. The
/// plan fingerprint must match the first iteration's.
std::string runBatchOp(const Program &P, BatchIter &It, ExecSample &S,
                       ProgramState &St) {
  St.Plan.reset();
  St.Full.reset();
  St.M.reset();
  std::optional<Analyzed> Last;
  unsigned Reps = 0;
  double Total = 0;
  do {
    Last.reset();
    malloc_trim(0); // Each analysis starts from a heap like a fresh process.
    Last.emplace(analyzeProduct(P));
    if (!Last->Error.empty())
      return Last->Error;
    ++Reps;
    Total += Last->Ms;
  } while (Total < MinAnalyzeMs && Reps < MaxAnalyzeReps);
  St.AnalyzeMs.push_back(Total / Reps);
  ir::Module &M = *Last->PR.M;
  const core::UsherResult &UR = *Last->UR;
  Fingerprint FP =
      fingerprintOf(*UR.G, UR.Stats.NumRedirectedNodes, UR.Plan, {});
  It.PlanOps += FP.Checks + FP.Props;

  // Keep the module and plans; the analyses themselves are released.
  St.Full.emplace(core::buildFullInstrumentation(M));
  St.Plan.emplace(std::move(Last->UR->Plan));
  St.M = std::move(Last->PR.M);
  Last.reset();

  ExecOutcome E;
  const auto T0 = Clock::now();
  std::string Err = execKept(P, St, S, E, S.Baselines);
  It.ExecWallMs += msSince(T0);
  if (!Err.empty())
    return Err;
  FP.Warnings = warningKeys(E.Usher.ToolWarnings);
  It.ModeledPctSum += E.Usher.slowdownPercent();
  if (!St.First)
    St.First = FP;
  else if (!(FP == *St.First))
    return "plan fingerprint drifted between iterations: " + describe(FP) +
           " vs " + describe(*St.First);
  return "";
}

/// Per-layer values of one traced iteration: times summed over programs,
/// counts summed over programs.
using LayerValues = std::map<std::string, double>;

/// Runs \p Fn inside span \p Name and adds its duration to \p L[Name].
template <class Fn>
auto inSpan(Tracer &Tr, LayerValues &L, const char *Name,
            const std::string &Op, Fn &&F) {
  int Id = Tr.open(Name, Op);
  if constexpr (std::is_void_v<decltype(F())>) {
    F();
    L[Name] += Tr.close(Id);
  } else {
    auto R = F();
    L[Name] += Tr.close(Id);
    return R;
  }
}

/// As inSpan, also recording the resident-set growth across the call.
template <class Fn>
auto inSpanRss(Tracer &Tr, LayerValues &L, const char *Name,
               const std::string &Op, const char *RssKey, Fn &&F) {
  const double Before = residentMB();
  auto R = inSpan(Tr, L, Name, Op, std::forward<Fn>(F));
  L[RssKey] += residentMB() - Before;
  return R;
}

/// Every layer called on its own, in runUsher's happy-path order, each
/// inside a span; then the three runs. Fills \p FP on success.
std::string tracedPipeline(const Program &P, Tracer &Tr, LayerValues &L,
                           double &AnalyzeMs, Fingerprint &FP) {
  const std::string &Op = P.Name;
  // A count is recorded right after its layer's span closes.
  auto Count = [&](const char *Key, double V) {
    L[Key] += V;
    Tr.count(Key, V);
  };
  auto T0 = Clock::now();
  parser::ParseResult PR = inSpan(
      Tr, L, "parser", Op, [&] { return parser::parseModule(P.Source); });
  if (!PR.succeeded()) {
    return parseErrors(PR);
  }
  ir::Module &M = *PR.M;
  Count("parser.instructions", M.instructionCount());
  inSpan(Tr, L, "transforms", Op,
         [&] { transforms::runPreset(M, transforms::OptPreset::O0IM); });
  Count("transforms.instructions_after", M.instructionCount());

  // An unlimited token, charged exactly as runUsher charges its own.
  Budget B;
  auto CG = inSpan(Tr, L, "analysis.callgraph", Op,
                   [&] { return std::make_unique<analysis::CallGraph>(M); });
  B.beginPhase(BudgetPhase::PointerAnalysis);
  auto PA = inSpan(Tr, L, "analysis.pta", Op, [&] {
    return std::make_unique<analysis::PointerAnalysis>(
        M, *CG, analysis::PtaOptions(), &B);
  });
  if (PA->exhausted()) {
    return "pointer analysis exhausted with no budget armed";
  }
  const analysis::SolverStatistics &SS = PA->solverStats();
  Count("analysis.pta.constraints", SS.NumConstraints);
  Count("analysis.pta.propagations", SS.NumPropagations);
  Count("analysis.pta.collapses", SS.NumCollapses);
  auto MR = inSpan(Tr, L, "analysis.modref", Op, [&] {
    return std::make_unique<analysis::ModRefAnalysis>(M, *CG, *PA);
  });
  auto SSA = inSpanRss(Tr, L, "ssa", Op, "ssa.rss_delta_mb", [&] {
    return std::make_unique<ssa::MemorySSA>(M, *PA, *MR, nullptr);
  });
  auto G = inSpanRss(Tr, L, "vfg", Op, "vfg.rss_delta_mb", [&] {
    return std::make_unique<vfg::VFG>(
        vfg::VFGBuilder(M, *SSA, *PA, *CG, vfg::VFGOptions()).build());
  });
  Count("vfg.nodes", G->numNodes());
  Count("vfg.edges", G->numEdges());

  core::DefinednessOptions DefOpts;
  B.beginPhase(BudgetPhase::Definedness);
  auto Gamma = inSpan(Tr, L, "core.definedness", Op, [&] {
    return std::make_unique<core::Definedness>(*G, DefOpts, nullptr, &B);
  });
  if (Gamma->wasPessimized()) {
    return "definedness pessimized with no budget armed";
  }

  // Opt II: Algorithm 1, then re-resolution on the redirected graph (a
  // child span, so core.opt2 covers what runUsher's Opt II phase covers).
  B.beginPhase(BudgetPhase::OptII);
  std::unique_ptr<core::Definedness> Redir;
  int Opt2 = Tr.open("core.opt2", Op);
  core::OptIIResult O2 = core::runRedundantCheckElimination(
      M, *SSA, *PA, *CG, *G, *Gamma, &B, nullptr);
  if (!O2.Exhausted && !O2.Redirects.empty())
    Redir = inSpan(Tr, L, "core.opt2.reresolve", Op, [&] {
      return std::make_unique<core::Definedness>(*G, DefOpts, &O2.Redirects,
                                                 &B);
    });
  L["core.opt2"] += Tr.close(Opt2);
  if (O2.Exhausted || (Redir && Redir->wasPessimized())) {
    return "Opt II exhausted with no budget armed";
  }
  Count("core.opt2.redirected_nodes", O2.NumRedirectedNodes);
  const core::Definedness &Final = Redir ? *Redir : *Gamma;

  core::PlannerOptions POpts;
  POpts.OptI = true;
  POpts.B = &B;
  B.beginPhase(BudgetPhase::OptI);
  uint64_t Simplified = 0;
  core::InstrumentationPlan Plan =
      inSpan(Tr, L, "core.plan", Op, [&] {
        core::InstrumentationPlanner Planner(M, *SSA, *G, Final, POpts);
        core::InstrumentationPlan R = Planner.run();
        Simplified = Planner.numSimplifiedMFCs();
        return R;
      });
  if (B.exhausted()) {
    return "Opt I exhausted with no budget armed";
  }
  Count("core.plan.checks", Plan.countChecks());
  Count("core.plan.propagations", Plan.countPropagationReads());
  Count("core.plan.simplified_mfcs", Simplified);
  // runUsher ends with its statistics pass (check reachability, %B).
  inSpan(Tr, L, "core.stats", Op, [&] {
    return core::computeCheckReaching(*G, Final, nullptr).count();
  });
  AnalyzeMs += msSince(T0);

  core::InstrumentationPlan Full = inSpan(Tr, L, "core.full_plan", Op, [&] {
    return core::buildFullInstrumentation(M);
  });
  ExecOutcome E = execute(M, Plan, Full, &Tr, Op);
  L["runtime.native_ms"] += E.NativeMs;
  L["runtime.msan_ms"] += E.MsanMs;
  L["runtime.usher_ms"] += E.UsherMs;
  Count("runtime.steps", E.Usher.Steps);
  Count("runtime.shadow_ops", E.Usher.DynShadowOps);
  Count("runtime.checks", E.Usher.DynChecks);
  if (std::string CE = checkRuns(P, &E.Native, &E.Msan, E.Usher); !CE.empty())
    return CE;
  FP = fingerprintOf(*G, O2.NumRedirectedNodes, Plan, E.Usher);
  return "";
}

/// One batch operation on the traced path, cross-checked against runUsher
/// on a fresh parse of the same program. A fingerprint mismatch is fatal:
/// per-layer numbers must describe the program the end-to-end run
/// measured.
std::string runTracedOp(const Program &P, Tracer &Tr, LayerValues &L,
                        double &TracedAnalyzeMs, double &ProductMs) {
  malloc_trim(0); // So RSS deltas see fresh allocations, not reuse.
  int Root = Tr.open("program", P.Name);
  Fingerprint Traced;
  std::string Err = tracedPipeline(P, Tr, L, TracedAnalyzeMs, Traced);
  Tr.close(Root);
  if (!Err.empty())
    return Err;

  // The product path on the same program: the cross-check and the
  // untraced baseline for the tracing overhead.
  malloc_trim(0);
  Analyzed A = analyzeProduct(P);
  if (!A.Error.empty())
    return A.Error;
  ProductMs += A.Ms;
  runtime::ExecutionReport U =
      runtime::Interpreter(*A.PR.M, &A.UR->Plan).run();
  const Fingerprint Product = fingerprintOf(
      *A.UR->G, A.UR->Stats.NumRedirectedNodes, A.UR->Plan, U);
  if (!(Traced == Product)) {
    std::fprintf(stderr,
                 "usher_bench: FATAL: traced path diverged from runUsher on "
                 "%s\n  traced:   %s\n  runUsher: %s\n",
                 P.Name.c_str(), describe(Traced).c_str(),
                 describe(Product).c_str());
    std::exit(1);
  }
  return "";
}

/// Failed operations, grouped by reason so one systematic failure does
/// not hide another.
struct FailureLog {
  uint64_t Count = 0;
  std::map<std::string, std::pair<uint64_t, std::string>> ByReason;

  void add(const std::string &Op, const std::string &Why) {
    ++Count;
    auto &[N, FirstOp] = ByReason[Why];
    if (N++ == 0)
      FirstOp = Op;
  }
};

//===----------------------------------------------------------------------===//
// Serve path
//===----------------------------------------------------------------------===//

/// The serve latency percentiles are taken across the stream's requests,
/// each at its median over the rounds.
struct ServeSamples {
  /// Per stream request, its latency in every round so far.
  std::vector<std::vector<double>> ColdMs, WarmMs;
  /// Traced runs only: per-request layer times.
  std::map<std::string, std::vector<double>> Layer;
  uint64_t Hits = 0, Misses = 0, WriteFailures = 0;
  /// Requests with a failed sample; a failure exceeds every percentile.
  std::vector<bool> ColdFailed, WarmFailed;
  uint64_t WarmServed = 0, WarmRequests = 0;
  /// Cold payloads of the first round; later rounds must reproduce them.
  std::vector<std::string> FirstCold;
};

/// Owns a daemon and its event-loop thread; stops and joins on every
/// exit path.
class HostedDaemon {
public:
  explicit HostedDaemon(serve::DaemonOptions O) : D(std::move(O)) {}
  bool start() {
    if (!D.listen())
      return false;
    Loop = std::thread([this] { D.run(); });
    return true;
  }
  ~HostedDaemon() {
    if (Loop.joinable()) {
      D.requestStop();
      Loop.join();
    }
  }
  HostedDaemon(const HostedDaemon &) = delete;
  HostedDaemon &operator=(const HostedDaemon &) = delete;
  serve::Daemon &daemon() { return D; }

private:
  serve::Daemon D;
  std::thread Loop;
};

/// The shipped daemon defaults (2 workers) except for the snapshot store,
/// which is kept in memory: on-disk records are fsync'd one per function,
/// and fsync latency on a shared disk swings by 2x between runs minutes
/// apart, which no run length averages out. The in-memory store runs the
/// same record encoder and validator; it fails a write only under an
/// injected I/O fault.
serve::DaemonOptions daemonOptions(const fs::path &Dir) {
  serve::DaemonOptions DO;
  DO.SocketPath = (Dir / "d.sock").string();
  return DO;
}

/// Cold stream then warm replay against a fresh daemon in \p Dir. Every
/// request is one operation; a failed one marks its request as failed.
/// The reference kernel, if given, is timed after every tenth request.
/// Returns false only when the daemon cannot be hosted at all.
bool serveRound(const std::vector<Program> &Stream, const fs::path &Dir,
                unsigned Round, Tracer *Tr, Reference *Ref, ServeSamples &S,
                uint64_t &Attempted, FailureLog &Failures) {
  fs::create_directories(Dir);
  HostedDaemon HD(daemonOptions(Dir));
  if (!HD.start())
    return false;
  serve::ClientOptions CO;
  CO.SocketPath = (Dir / "d.sock").string();
  serve::ServeClient Client(CO);
  const serve::SnapshotStore &Store = HD.daemon().session().store();

  // Traced runs also hand each request to an in-process Session with its
  // own fresh store, to split service time from transport time.
  std::unique_ptr<serve::Session> InProc;
  if (Tr)
    InProc = std::make_unique<serve::Session>(serve::SessionOptions());

  // Each warm replay follows its cold request one request later, so warm
  // samples spread over the whole round instead of one short burst at its
  // end.
  std::vector<std::pair<size_t, bool>> Order;
  for (size_t I = 0; I != Stream.size(); ++I) {
    Order.emplace_back(I, false);
    if (I > 0)
      Order.emplace_back(I - 1, true);
  }
  Order.emplace_back(Stream.size() - 1, true);

  std::vector<std::string> Cold(Stream.size());
  S.ColdMs.resize(Stream.size());
  S.WarmMs.resize(Stream.size());
  S.ColdFailed.resize(Stream.size());
  S.WarmFailed.resize(Stream.size());
  for (auto [I, Warm] : Order) {
    const std::string Leg = Warm ? "warm" : "cold";
    serve::Request Rq;
    Rq.Kind = serve::Op::Analyze;
    Rq.Id = (static_cast<uint64_t>(Round) << 32) | (Warm << 20) | I;
    Rq.Source = Stream[I].Source;
    Rq.FaultSpec = EnvFaultSpec;
    const std::string Op = Stream[I].Name + "/" + Leg;
    // The session writes the request's records before it replies, and only
    // this request is in flight, so the store's counters attribute to it.
    const serve::SnapshotStore::Stats Before = Store.stats();
    int Root = Tr ? Tr->open("serve.request", Op) : -1;
    int CallSpan = Tr ? Tr->open("serve.call", Op) : -1;
    auto T0 = Clock::now();
    serve::CallResult CR = Client.call(Rq);
    double Ms = msSince(T0);
    if (Tr)
      Tr->close(CallSpan);
    ++Attempted;
    const serve::SnapshotStore::Stats After = Store.stats();
    std::string Err;
    if (CR.Outcome != serve::CallOutcome::Ok)
      Err = std::string("call failed: ") + serve::callOutcomeName(CR.Outcome);
    else if (CR.Rp.Status != serve::ReplyStatus::Ok)
      Err = std::string("reply ") + serve::replyStatusName(CR.Rp.Status);
    else if (Warm && CR.Rp.Payload != Cold[I])
      Err = "warm payload differs from cold";
    else if (!Warm && Round > 0 && CR.Rp.Payload != S.FirstCold[I])
      Err = "cold payload drifted between rounds";
    else if (After.WriteFailures != Before.WriteFailures)
      Err = "snapshot store write failed";
    else if (After.CorruptDiscarded != Before.CorruptDiscarded)
      Err = "snapshot store discarded a corrupt record";
    if (!Warm) {
      Cold[I] = CR.Rp.Payload;
      if (Round == 0)
        S.FirstCold.push_back(CR.Rp.Payload);
    }

    if (Tr && Err.empty()) {
      int SessSpan = Tr->open("serve.session", Op);
      auto T1 = Clock::now();
      serve::Reply R2 = InProc->handle(Rq);
      double SessMs = msSince(T1);
      Tr->close(SessSpan);
      if (R2.Status != serve::ReplyStatus::Ok || R2.Payload != CR.Rp.Payload)
        Err = "in-process session disagrees with the daemon";
      S.Layer["serve." + Leg + ".call_ms"].push_back(Ms);
      S.Layer["serve." + Leg + ".session_ms"].push_back(SessMs);
      if (!Warm) {
        // The session's pipeline (parse + runUsher), replayed on its
        // own: session self time is what the service adds around it.
        int PipeSpan = Tr->open("serve.pipeline.replay", Op);
        auto T2 = Clock::now();
        parser::ParseResult PR = parser::parseModule(Rq.Source);
        if (PR.succeeded())
          core::runUsher(*PR.M, core::UsherOptions());
        double PipeMs = msSince(T2);
        Tr->close(PipeSpan);
        S.Layer["serve.cold.pipeline_ms"].push_back(PipeMs);
      }
    }
    if (Tr)
      Tr->close(Root);

    (Warm ? S.WarmMs : S.ColdMs)[I].push_back(Ms);
    if (!Err.empty()) {
      Failures.add(Op, Err);
      (Warm ? S.WarmFailed : S.ColdFailed)[I] = true;
    }
    if (Ref && Attempted % 10 == 0)
      Ref->sample();
  }

  serve::Session &DS = HD.daemon().session();
  const serve::SnapshotStore::Stats St = Store.stats();
  S.Hits += St.Hits;
  S.Misses += St.Misses;
  S.WriteFailures += St.WriteFailures;
  S.WarmServed += DS.servedWarm();
  S.WarmRequests += Stream.size();
  return true;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string Scratch;
  std::string TraceOut;
  bool Smoke = false;
};

bool parseArgs(int argc, char **argv, Args &A) {
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    if (K == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (I + 1 >= argc)
      return false;
    std::string V = argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (!End || *End != '\0' || !(A.Seconds > 0))
        return false;
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return false;
      A.Trace = V == "1";
    } else if (K == "--scratch") {
      A.Scratch = V;
    } else if (K == "--trace-out") {
      A.TraceOut = V;
    } else {
      return false;
    }
  }
  return HaveSeed && A.Seconds > 0 && A.Trace >= 0 && !A.Scratch.empty() &&
         !A.Workload.empty();
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Ms.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "\"" + Ms[I].Name + "\": {\"value\": " + num(Ms[I].Value) +
           ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  if (!parseArgs(argc, argv, A)) {
    std::fprintf(stderr,
                 "usage: usher_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --scratch <dir> "
                 "[--trace-out <file>] [--smoke]\n");
    return 2;
  }
  // One malloc arena for every thread. With glibc's default of one arena
  // per thread, the daemon's workers leave their garbage in heaps of their
  // own that malloc_trim rarely empties, and which worker served what
  // decides the peak RSS: it read 32 to 37 MB on the same suite-exec run,
  // against 23.2 to 23.8 MB with one arena. The threads run on one CPU
  // (see below), so the arena's lock is never contended.
  mallopt(M_ARENA_MAX, 1);
  EnvFault = faultPlanFromEnv();
  if (const char *F = std::getenv(FaultInjectionEnvVar))
    EnvFaultSpec = F;

  const MachineContext Ctx = probeMachine();

  // Pin to one CPU; every thread started from here on inherits it, so the
  // daemon's loop and its two workers share that CPU with the client. The
  // closed-loop client keeps at most one request in flight, so the client,
  // the daemon's loop and its workers never run in parallel; on one CPU
  // their hand-offs are plain context switches, not cross-CPU wake-ups,
  // which on a virtual machine can stall a request by milliseconds.
  if (int Cpu = sched_getcpu(); Cpu >= 0) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpu, &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

  // Set-up: inputs, scratch directory, one daemon start/stop. Repeated (at
  // least 5 times, until a second is spent, at most 1000 times), each
  // repetition followed by the reference kernel; setup_s is the mean
  // repetition, scaled by the kernel's mean time during set-up. The last
  // inputs are kept.
  const fs::path Scratch = A.Scratch;
  std::vector<double> SetupS;
  Reference SetupRef;
  double SetupTotal = 0;
  Workload W;
  while (SetupS.empty() ||
         (!A.Smoke && SetupS.size() < 1000 &&
          (SetupS.size() < 5 || SetupTotal < 1.0))) {
    auto T0 = Clock::now();
    Workload Fresh;
    if (!makeWorkload(A.Workload, A.Seed, A.Smoke, Fresh)) {
      std::fprintf(stderr, "usher_bench: unknown workload '%s'\n",
                   A.Workload.c_str());
      return 2;
    }
    fs::remove_all(Scratch);
    fs::create_directories(Scratch / "probe");
    {
      HostedDaemon HD(daemonOptions(Scratch / "probe"));
      if (!HD.start()) {
        std::fprintf(stderr, "usher_bench: cannot host a daemon in %s\n",
                     Scratch.c_str());
        return 1;
      }
      serve::ClientOptions CO;
      CO.SocketPath = (Scratch / "probe" / "d.sock").string();
      serve::Request Ping;
      if (serve::ServeClient(CO).call(Ping).Outcome != serve::CallOutcome::Ok) {
        std::fprintf(stderr, "usher_bench: daemon did not answer a ping\n");
        return 1;
      }
    }
    fs::remove_all(Scratch / "probe");
    SetupS.push_back(msSince(T0) / 1000.0);
    SetupTotal += SetupS.back();
    SetupRef.sample();
    W = std::move(Fresh);
  }

  // Snapshot-store faults, like usher-serve's, are armed only now, so the
  // set-up daemons never see them.
  if (std::optional<IoFaultSpec> Io = ioFaultSpecFromEnv())
    armIoFault(*Io);

  const auto Start = Clock::now();
  const double BudgetMs = A.Seconds * 1000.0;
  uint64_t Attempted = 0;
  FailureLog Failures;

  std::vector<BatchIter> Iters;
  std::vector<ExecSample> Execs;
  std::vector<ProgramState> States(W.Batch.size());
  std::vector<LayerValues> LayerIters;
  std::vector<double> TracedMs, ProductMs;
  Tracer Tr;
  Reference Ref;

  // One batch iteration: every batch program once.
  auto BatchStep = [&] {
    BatchIter It;
    ExecSample S;
    S.Baselines = Iters.size() % W.BaselineEvery == 0;
    LayerValues L;
    double Traced = 0, Product = 0;
    for (size_t I = 0; I != W.Batch.size(); ++I) {
      const Program &P = W.Batch[I];
      ++Attempted;
      std::string Err = A.Trace ? runTracedOp(P, Tr, L, Traced, Product)
                                : runBatchOp(P, It, S, States[I]);
      if (!Err.empty())
        Failures.add(P.Name, Err);
      if (!A.Trace)
        Ref.sample();
    }
    Iters.push_back(It);
    Execs.push_back(S);
    LayerIters.push_back(std::move(L));
    TracedMs.push_back(Traced);
    ProductMs.push_back(Product);
  };

  // One exec probe: the kept programs run again. Interpreter times on the
  // small synthesized programs follow the machine's slow and fast phases
  // (2x apart on a shared box), so samples spread over the whole run are
  // steadier than the few taken right after each analysis.
  auto ExecProbe = [&] {
    ExecSample S;
    for (size_t I = 0; I != W.Batch.size(); ++I) {
      if (!States[I].M)
        continue; // Its last analysis failed, and was counted.
      ++Attempted;
      ExecOutcome E;
      if (std::string Err = execKept(W.Batch[I], States[I], S, E, true);
          !Err.empty())
        Failures.add(W.Batch[I].Name, Err);
      Ref.sample();
    }
    Execs.push_back(S);
  };

  // One serve round: a fresh daemon, the stream cold, then warm.
  ServeSamples SS;
  unsigned Rounds = 0;
  auto ServeStep = [&] {
    const fs::path Dir = Scratch / ("r" + std::to_string(Rounds));
    if (!serveRound(W.Stream, Dir, Rounds, A.Trace ? &Tr : nullptr,
                    A.Trace ? nullptr : &Ref, SS, Attempted, Failures))
      return false;
    fs::remove_all(Dir);
    ++Rounds;
    return true;
  };

  // The two legs interleave so that both sample the whole run: the next
  // step goes to whichever leg is behind its share of the time spent. A
  // step starts only if one more like the leg's last step still fits in
  // --seconds. Untraced runs need two iterations for the drift check and
  // three rounds, so that every request's median is taken over a few. After
  // a serve round, an exec probe runs once the last exec sample is ten
  // exec passes (and at least a second) old, which keeps probes under a
  // tenth of the run; suite-exec, whose exec pass takes seconds, gets
  // none.
  const unsigned MinIters = A.Smoke || A.Trace ? 1 : 2;
  const unsigned MinRounds = A.Smoke || A.Trace ? 1 : 3;
  double BatchMs = 0, ServeMs = 0, IterMs = 0, RoundMs = 0, ExecMs = 0;
  auto LastExec = Clock::now();
  for (;;) {
    const bool NeedBatch = Iters.size() < MinIters;
    const bool NeedServe = Rounds < MinRounds;
    const bool BatchBehind = BatchMs <= W.BatchShare * (BatchMs + ServeMs);
    const bool BatchFits = msSince(Start) + IterMs <= BudgetMs;
    const bool ServeFits = msSince(Start) + RoundMs <= BudgetMs;
    bool DoBatch;
    if (NeedBatch || NeedServe)
      DoBatch = NeedBatch && (!NeedServe || BatchBehind);
    else if (BatchFits && ServeFits)
      DoBatch = BatchBehind;
    else if (BatchFits || ServeFits)
      DoBatch = BatchFits;
    else
      break;
    const auto StepStart = Clock::now();
    if (DoBatch) {
      BatchStep();
      IterMs = msSince(StepStart);
      BatchMs += IterMs;
      ExecMs = Iters.back().ExecWallMs;
      LastExec = Clock::now();
    } else {
      if (!ServeStep()) {
        std::fprintf(stderr, "usher_bench: cannot host a daemon\n");
        fs::remove_all(Scratch);
        return 1;
      }
      RoundMs = msSince(StepStart);
      ServeMs += RoundMs;
      if (!A.Trace && !Iters.empty() &&
          msSince(LastExec) >= std::max(1000.0, 10 * ExecMs)) {
        LastExec = Clock::now();
        ExecProbe();
        ExecMs = msSince(LastExec);
        BatchMs += ExecMs;
      }
    }
  }
  const double TotalMs = msSince(Start);
  fs::remove_all(Scratch);

  const uint64_t Failed = Failures.Count;
  for (const auto &[Why, Seen] : Failures.ByReason)
    std::fprintf(stderr, "usher_bench: FAILED %llu x %s (first: %s)\n",
                 static_cast<unsigned long long>(Seen.first), Why.c_str(),
                 Seen.second.c_str());

  // Context and sample counts, ahead of the result line.
  std::printf("# workload %s seed %llu trace %d%s\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Trace,
              A.Smoke ? " smoke" : "");
  std::printf("# machine nproc %u effective_cores %.2f serve_workers %u\n",
              Ctx.NProc, Ctx.EffectiveCores, serve::DaemonOptions().Workers);
  std::printf("# batch %zu programs x %zu iterations in %.0f ms; serve %zu "
              "requests x %u rounds in %.0f ms; total %.0f ms\n",
              W.Batch.size(), Iters.size(), BatchMs, W.Stream.size(), Rounds,
              ServeMs, TotalMs);
  std::printf("# serve samples %zu per leg; percentiles over %zu requests' "
              "medians (p90 has %zu beyond)\n",
              SS.ColdMs.size() * Rounds, SS.ColdMs.size(),
              samplesBeyond(SS.ColdMs.size(), 0.9));
  std::printf("# setup_s over %zu repetitions: min %s mean %s (unscaled)\n",
              SetupS.size(),
              num(*std::min_element(SetupS.begin(), SetupS.end())).c_str(),
              num(mean(SetupS)).c_str());
  if (!A.Trace)
    std::printf("# reference kernel ms: set-up mean %s over %zu, run mean %s "
                "over %zu (min %s, max %s); times scale by %s\n",
                num(mean(SetupRef.Ms)).c_str(), SetupRef.Ms.size(),
                num(mean(Ref.Ms)).c_str(), Ref.Ms.size(),
                num(*std::min_element(Ref.Ms.begin(), Ref.Ms.end())).c_str(),
                num(*std::max_element(Ref.Ms.begin(), Ref.Ms.end())).c_str(),
                num(Ref.scale()).c_str());
  std::printf("# error_rate %s (%llu failed / %llu attempted)\n",
              num(Attempted ? double(Failed) / Attempted : 0.0).c_str(),
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));

  std::vector<Metric> Ms;
  if (!A.Trace) {
    double AnalyzeMs = 0, UsherMs = 0;
    for (const ProgramState &St : States) {
      AnalyzeMs += mean(St.AnalyzeMs);
      UsherMs += mean(St.UsherMs);
    }
    std::printf("# unscaled: analyze_ms %s exec_usher_ms %s\n",
                num(AnalyzeMs).c_str(), num(UsherMs).c_str());
    const double Scale = Ref.scale();
    const std::vector<double> Cold = perRequest(SS.ColdMs, SS.ColdFailed);
    const std::vector<double> Warm = perRequest(SS.WarmMs, SS.WarmFailed);
    std::vector<double> Usher, UsherX, MsanX;
    for (const ExecSample &E : Execs) {
      Usher.push_back(E.UsherMs);
      if (!E.Baselines)
        continue;
      UsherX.push_back(E.NativeMs > 0 ? E.UsherMs / E.NativeMs : 0.0);
      MsanX.push_back(E.NativeMs > 0 ? E.MsanMs / E.NativeMs : 0.0);
    }
    auto List = [](const std::vector<double> &V) {
      std::string Out;
      for (size_t I = 0; I != V.size() && I != 40; ++I)
        Out += " " + num(std::round(V[I] * 10) / 10);
      return V.size() > 40 ? Out + " ..." : Out;
    };
    std::printf("# exec_usher_ms per sample (%zu after analyses, %zu between "
                "serve rounds):%s\n",
                Iters.size(), Execs.size() - Iters.size(), List(Usher).c_str());
    const double ModeledX =
        1.0 + Iters.back().ModeledPctSum / W.Batch.size() / 100.0;
    std::printf("# slowdown_pct usher %.2f msan %.2f usher_modeled %.2f\n",
                (median(UsherX) - 1) * 100, (median(MsanX) - 1) * 100,
                (ModeledX - 1) * 100);
    Ms = {
        {"analyze_ms", AnalyzeMs * Scale, "ms"},
        {"peak_rss_mb", peakRSSBytes() / (1024.0 * 1024.0), "MB"},
        {"plan_ops", double(Iters.back().PlanOps), "count"},
        {"exec_usher_ms", UsherMs * Scale, "ms"},
        {"usher_slowdown_x", median(UsherX), "x"},
        {"msan_slowdown_x", median(MsanX), "x"},
        {"usher_modeled_slowdown_x", ModeledX, "x"},
        {"serve_cold_p50_ms", percentile(Cold, 0.5) * Scale, "ms"},
        {"serve_cold_p90_ms", percentile(Cold, 0.9) * Scale, "ms"},
        {"serve_warm_p50_ms", percentile(Warm, 0.5) * Scale, "ms"},
        {"serve_warm_p90_ms", percentile(Warm, 0.9) * Scale, "ms"},
        {"setup_s", mean(SetupS) * SetupRef.scale(), "s"},
    };
  } else {
    // Times: median over iterations of the per-iteration sum. Counts are
    // deterministic; RSS growth is largest on the first iteration.
    auto Med = [&](const std::string &K) {
      std::vector<double> V;
      for (const LayerValues &L : LayerIters)
        V.push_back(L.count(K) ? L.at(K) : 0.0);
      return median(V);
    };
    auto Last = [&](const std::string &K) {
      return LayerIters.back().count(K) ? LayerIters.back().at(K) : 0.0;
    };
    auto Max = [&](const std::string &K) {
      double M = -Inf;
      for (const LayerValues &L : LayerIters)
        M = std::max(M, L.count(K) ? L.at(K) : 0.0);
      return M;
    };
    auto SMed = [&](const std::string &K) {
      return SS.Layer.count(K) ? median(SS.Layer.at(K)) : 0.0;
    };
    const double AnalyzeTotal = median(TracedMs);
    const double RuntimeTotal = Med("runtime.native_ms") +
                                Med("runtime.msan_ms") +
                                Med("runtime.usher_ms");
    auto Share = [&](double Part, double Whole) {
      return Whole > 0 ? Part / Whole : 0.0;
    };
    const double VfgChain =
        Share(Med("vfg") + Med("core.definedness") + Med("core.opt2"),
              AnalyzeTotal);
    const double ParsePta =
        Share(Med("parser") + Med("analysis.pta"), AnalyzeTotal);
    const double RuntimeShare =
        Share(RuntimeTotal, RuntimeTotal + AnalyzeTotal);
    std::printf("# traced analysis %.1f ms (untraced %.1f ms); shares: "
                "vfg+definedness+opt2 %.3f, parser+pta %.3f, runtime of "
                "batch wall %.3f\n",
                AnalyzeTotal, median(ProductMs), VfgChain, ParsePta,
                RuntimeShare);
    if (!A.TraceOut.empty() && !Tr.write(A.TraceOut))
      std::fprintf(stderr, "usher_bench: cannot write %s\n",
                   A.TraceOut.c_str());
    Ms = {
        {"parser.ms", Med("parser"), "ms"},
        {"parser.instructions", Last("parser.instructions"), "count"},
        {"transforms.ms", Med("transforms"), "ms"},
        {"transforms.instructions_after", Last("transforms.instructions_after"),
         "count"},
        {"analysis.callgraph.ms", Med("analysis.callgraph"), "ms"},
        {"analysis.pta.ms", Med("analysis.pta"), "ms"},
        {"analysis.pta.constraints", Last("analysis.pta.constraints"), "count"},
        {"analysis.pta.propagations", Last("analysis.pta.propagations"),
         "count"},
        {"analysis.pta.collapses", Last("analysis.pta.collapses"), "count"},
        {"analysis.modref.ms", Med("analysis.modref"), "ms"},
        {"ssa.ms", Med("ssa"), "ms"},
        {"ssa.rss_delta_mb", Max("ssa.rss_delta_mb"), "MB"},
        {"vfg.ms", Med("vfg"), "ms"},
        {"vfg.nodes", Last("vfg.nodes"), "count"},
        {"vfg.edges", Last("vfg.edges"), "count"},
        {"vfg.rss_delta_mb", Max("vfg.rss_delta_mb"), "MB"},
        {"core.definedness.ms", Med("core.definedness"), "ms"},
        {"core.opt2.ms", Med("core.opt2"), "ms"},
        {"core.opt2.redirected_nodes", Last("core.opt2.redirected_nodes"),
         "count"},
        {"core.opt2.reresolve_ms", Med("core.opt2.reresolve"), "ms"},
        {"core.plan.ms", Med("core.plan"), "ms"},
        {"core.plan.checks", Last("core.plan.checks"), "count"},
        {"core.plan.propagations", Last("core.plan.propagations"), "count"},
        {"core.plan.simplified_mfcs", Last("core.plan.simplified_mfcs"),
         "count"},
        {"core.stats.ms", Med("core.stats"), "ms"},
        {"runtime.native_ms", Med("runtime.native_ms"), "ms"},
        {"runtime.usher_ms", Med("runtime.usher_ms"), "ms"},
        {"runtime.msan_ms", Med("runtime.msan_ms"), "ms"},
        {"runtime.steps", Last("runtime.steps"), "count"},
        {"runtime.shadow_ops", Last("runtime.shadow_ops"), "count"},
        {"runtime.checks", Last("runtime.checks"), "count"},
        {"serve.cold.session_ms", SMed("serve.cold.session_ms"), "ms"},
        {"serve.cold.pipeline_ms", SMed("serve.cold.pipeline_ms"), "ms"},
        // Differences of medians of two separate executions of the same
        // requests: signed, and close to 0 when the part is small.
        {"serve.cold.session_self_ms",
         SMed("serve.cold.session_ms") - SMed("serve.cold.pipeline_ms"), "ms"},
        {"serve.cold.transport_ms",
         SMed("serve.cold.call_ms") - SMed("serve.cold.session_ms"), "ms"},
        {"serve.warm.session_ms", SMed("serve.warm.session_ms"), "ms"},
        {"serve.warm.transport_ms",
         SMed("serve.warm.call_ms") - SMed("serve.warm.session_ms"), "ms"},
        {"serve.snapshot.hits", double(SS.Hits), "count"},
        {"serve.snapshot.misses", double(SS.Misses), "count"},
        {"serve.snapshot.write_failures", double(SS.WriteFailures), "count"},
        {"serve.warm_hit_ratio",
         Share(double(SS.WarmServed), double(SS.WarmRequests)), "ratio"},
        {"trace.analyze_ms", AnalyzeTotal, "ms"},
        {"trace.overhead_ms", AnalyzeTotal - median(ProductMs), "ms"},
        {"trace.share.vfg_chain", VfgChain, "ratio"},
        {"trace.share.parser_pta", ParsePta, "ratio"},
        {"trace.share.runtime", RuntimeShare, "ratio"},
    };
  }
  printResult(Failed == 0, Attempted, Failed, Ms);
  return 0;
}
