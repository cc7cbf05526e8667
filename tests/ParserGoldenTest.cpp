//===- tests/ParserGoldenTest.cpp - Token streams and diagnostics pinned --===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the lexer and parser make of a corpus, byte for byte: the
/// token stream (kind, text, integer value, line, column), every parse
/// diagnostic with its line:col, and the printed module of every input
/// that parses. The corpus is the SPEC-like suite, every tests/inputs
/// program (truncated.tc included), 20 synthesized programs and a set of
/// malformed sources covering each diagnostic path, including a lexical
/// error that follows a syntax error (the lexical error wins). 64-bit
/// FNV-1a hashes are pinned in ParserGoldenHashes.inc.
///
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "support/RawStream.h"
#include "workload/Spec2000.h"
#include "workload/Synthesizer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace usher;

namespace {

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

std::string renderTokens(std::string_view Source) {
  std::ostringstream OS;
  for (const parser::Token &T : parser::tokenize(Source))
    OS << static_cast<int>(T.Kind) << ' ' << T.Text << ' ' << T.IntValue
       << ' ' << T.Line << ':' << T.Col << '\n';
  return OS.str();
}

/// The diagnostics of \p Source, then the printed module if it parsed.
std::string renderParse(std::string_view Source) {
  parser::ParseResult PR = parser::parseModule(Source);
  std::string Out;
  for (const std::string &E : PR.Errors)
    Out += "error " + E + '\n';
  if (PR.M) {
    raw_string_ostream OS(Out);
    PR.M->print(OS);
  }
  return Out;
}

/// Sources that exercise each diagnostic path of the lexer and parser.
const std::vector<std::pair<std::string, std::string>> &malformedSources() {
  static const std::vector<std::pair<std::string, std::string>> Sources = {
      {"empty", ""},
      {"comment-only", "// nothing here\n"},
      {"bad-char", "a $ b"},
      {"bang-alone", "func main() { x = 1 ! 2; }"},
      {"high-byte", "func main() { x = \xff; }"},
      {"nul-byte", std::string("func main() {\0 }", 16)},
      {"syntax-then-lex-error", "func main( {\n}\n$"},
      {"lex-error-in-body", "func main() {\n  x = 1;\n  y = x # 2;\n}\n"},
      {"top-level-garbage", "garbage"},
      {"func-no-name", "func () {}"},
      {"func-redefined", "func main() { ret; }\nfunc main() { ret; }"},
      {"func-no-lparen", "func main { }"},
      {"func-no-rparen", "func main(a, b { }"},
      {"func-no-lbrace", "func main() ret;"},
      {"param-not-ident", "func f(1) { }"},
      {"param-reserved", "func f(goto) { ret; }"},
      {"unclosed-body", "func main() {\n  x = 1;\n"},
      {"global-no-name", "global ;"},
      {"global-no-size", "global g[] init;"},
      {"global-no-rbracket", "global g[4 init;"},
      {"global-no-init", "global g[4];"},
      {"global-no-semi", "global g init"},
      {"global-bad-size", "global g[0] init;"},
      {"global-redefined", "global g init;\nglobal g uninit;"},
      {"undefined-name", "func main() { x = y; }"},
      {"missing-semi", "func main() { ret 1 }"},
      {"undefined-label", "func main() { goto nowhere; }"},
      {"label-redefined", "func main() {\nl:\nl:\n  ret;\n}"},
      {"label-reserved", "func main() {\nret:\n  ret;\n}"},
      {"if-no-goto", "func main() { x = 1; if x ret; }"},
      {"if-no-label", "func main() { x = 1; if x goto; }"},
      {"goto-no-label", "func main() { goto ; }"},
      {"var-no-name", "func main() { var ; }"},
      {"var-reserved", "func main() { var heap; }"},
      {"var-redeclared", "func main() { var a, a; }"},
      {"assign-reserved", "func main() { gep = 1; }"},
      {"assign-global", "global g init;\nfunc main() { g = 1; }"},
      {"alloc-no-region", "func main() { p = alloc 4 init; }"},
      {"alloc-no-count", "func main() { p = alloc heap init; }"},
      {"alloc-no-init", "func main() { p = alloc heap 4; }"},
      {"alloc-bad-count", "func main() { p = alloc stack 0 init; ret; }"},
      {"gep-no-comma", "func main() { p = alloc heap 2 init; q = gep p 1; }"},
      {"gep-bad-index",
       "func main() { p = alloc heap 2 init; q = gep p, 2000000; }"},
      {"gep-global-index",
       "global g init;\nfunc main() { p = alloc heap 2 init; q = gep p, g; }"},
      {"call-undefined", "func main() { f(); }"},
      {"call-arity", "func f(a, b) { ret a; }\nfunc main() { x = f(1); }"},
      {"bare-call-arity", "func f(a) { ret; }\nfunc main() { f(); }"},
      {"call-no-rparen", "func f(a) { ret; }\nfunc main() { f(1; }"},
      {"store-no-assign", "func main() { p = alloc heap 1 init; *p 1; }"},
      {"load-no-semi", "func main() { p = alloc heap 1 init; x = *p }"},
      {"binop-no-rhs", "func main() { x = 1 + ; }"},
      {"stmt-garbage", "func main() { ; }"},
      {"dead-code", "func main() { ret 1; x = 2; ret x; }"},
      {"negative-literal", "func main() { x = -5; y = x - -3; ret y; }"},
      {"int64-max", "func main() { x = 9223372036854775807; ret x; }"},
      {"many-errors",
       "func main() {\n"
       "  a = q1; a = q2; a = q3; a = q4; a = q5; a = q6; a = q7;\n"
       "  a = q8; a = q9; a = q10; a = q11; a = q12; a = q13;\n"
       "  a = q14; a = q15; a = q16; a = q17; a = q18; a = q19;\n"
       "  a = q20; a = q21; a = q22; a = q23;\n}\n"},
      {"errors-in-two-functions",
       "func f() { x = nope; }\nfunc main() { y = alsonope; }"},
  };
  return Sources;
}

/// Pinned FNV-1a hashes, keyed by what is hashed and the input.
const std::map<std::string, std::string> &pinnedHashes() {
  static const std::map<std::string, std::string> Hashes = {
#include "ParserGoldenHashes.inc"
  };
  return Hashes;
}

TEST(ParserGolden, CorpusHashesArePinned) {
  std::map<std::string, std::string> Actual;
  auto Render = [&](const std::string &Name, const std::string &Source) {
    Actual["tokens/" + Name] = fnv1a(renderTokens(Source));
    Actual["parse/" + Name] = fnv1a(renderParse(Source));
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
    Render("usher-gen/" + std::to_string(Seed),
           workload::synthesizeProgram(S));
  }

  for (const auto &[Name, Source] : malformedSources())
    Render("malformed/" + Name, Source);

  EXPECT_GE(Actual.size(), 2 * (15u + 18u + 20u));
  for (const auto &[Name, Hash] : Actual) {
    auto It = pinnedHashes().find(Name);
    if (It == pinnedHashes().end())
      ADD_FAILURE() << "unpinned input: {\"" << Name << "\", \"" << Hash
                    << "\"},";
    else
      EXPECT_EQ(Hash, It->second) << Name << " changed";
  }
  for (const auto &[Name, Hash] : pinnedHashes())
    EXPECT_TRUE(Actual.count(Name)) << "pinned input " << Name << " is gone";
}

} // namespace
