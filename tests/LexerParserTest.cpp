//===- tests/LexerParserTest.cpp - Lexer and parser unit tests -------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"
#include "parser/Lexer.h"
#include "parser/Parser.h"
#include "support/RawStream.h"

#include <gtest/gtest.h>

using namespace usher;
using namespace usher::parser;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

std::vector<TokenKind> kindsOf(std::string_view Src) {
  std::vector<TokenKind> Kinds;
  for (const Token &T : tokenize(Src))
    Kinds.push_back(T.Kind);
  return Kinds;
}

TEST(Lexer, EmptyInputYieldsEof) {
  auto Kinds = kindsOf("");
  ASSERT_EQ(Kinds.size(), 1u);
  EXPECT_EQ(Kinds[0], TokenKind::Eof);
}

TEST(Lexer, TokenizesPunctuationAndOperators) {
  auto Kinds = kindsOf("= ; , ( ) { } [ ] : * + - / % & | ^");
  std::vector<TokenKind> Expected = {
      TokenKind::Assign,  TokenKind::Semi,     TokenKind::Comma,
      TokenKind::LParen,  TokenKind::RParen,   TokenKind::LBrace,
      TokenKind::RBrace,  TokenKind::LBracket, TokenKind::RBracket,
      TokenKind::Colon,   TokenKind::Star,     TokenKind::Plus,
      TokenKind::Minus,   TokenKind::Slash,    TokenKind::Percent,
      TokenKind::Amp,     TokenKind::Pipe,     TokenKind::Caret,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, DistinguishesCompoundOperators) {
  auto Kinds = kindsOf("<< >> <= >= == != < >");
  std::vector<TokenKind> Expected = {
      TokenKind::Shl,    TokenKind::Shr,       TokenKind::LessEq,
      TokenKind::GreaterEq, TokenKind::EqEq,   TokenKind::NotEq,
      TokenKind::Less,   TokenKind::Greater,   TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
}

TEST(Lexer, ParsesIntegerValues) {
  auto Tokens = tokenize("0 42 1234567890123");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[0].IntValue, 0);
  EXPECT_EQ(Tokens[1].IntValue, 42);
  EXPECT_EQ(Tokens[2].IntValue, 1234567890123LL);
}

TEST(Lexer, SkipsLineComments) {
  auto Tokens = tokenize("a // comment = ; with stuff\nb");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
}

TEST(Lexer, TracksLineAndColumn) {
  auto Tokens = tokenize("a\n  b");
  ASSERT_GE(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Col, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
  EXPECT_EQ(Tokens[1].Col, 3u);
}

TEST(Lexer, IdentifiersAllowDotsAndUnderscores) {
  auto Tokens = tokenize("foo_bar obj.f0");
  EXPECT_EQ(Tokens[0].Text, "foo_bar");
  EXPECT_EQ(Tokens[1].Text, "obj.f0");
}

TEST(Lexer, ReportsUnexpectedCharacter) {
  auto Tokens = tokenize("a $ b");
  bool SawError = false;
  for (const Token &T : Tokens)
    SawError |= T.is(TokenKind::Error);
  EXPECT_TRUE(SawError);
}

TEST(Lexer, TokenTextViewsTheSource) {
  std::string_view Src = "func main() { x = 42; }";
  for (const Token &T : tokenize(Src)) {
    if (T.is(TokenKind::Eof))
      continue;
    EXPECT_GE(T.Text.data(), Src.data());
    EXPECT_LE(T.Text.data() + T.Text.size(), Src.data() + Src.size());
  }
}

TEST(Lexer, StreamStaysOnItsLastToken) {
  Lexer Done("a");
  EXPECT_TRUE(Done.next().is(TokenKind::Ident));
  for (int I = 0; I != 3; ++I) {
    Token T = Done.next();
    EXPECT_TRUE(T.is(TokenKind::Eof));
    EXPECT_EQ(T.Col, 2u);
  }
  Lexer Bad("a\n $ b");
  EXPECT_TRUE(Bad.next().is(TokenKind::Ident));
  for (int I = 0; I != 3; ++I) {
    Token T = Bad.next();
    EXPECT_TRUE(T.is(TokenKind::Error));
    EXPECT_EQ(T.Text, "unexpected character '$'");
    EXPECT_EQ(T.Line, 2u);
    EXPECT_EQ(T.Col, 2u);
  }
}

TEST(Lexer, SavedCursorRelexesTheSameTokens) {
  Lexer L("x = y + 1;");
  L.next();
  Lexer Saved = L;
  std::vector<std::string> First, Second;
  for (Token T = L.next(); !T.is(TokenKind::Eof); T = L.next())
    First.emplace_back(T.Text);
  for (Token T = Saved.next(); !T.is(TokenKind::Eof); T = Saved.next())
    Second.emplace_back(T.Text);
  EXPECT_EQ(First, (std::vector<std::string>{"=", "y", "+", "1", ";"}));
  EXPECT_EQ(First, Second);
}

TEST(Lexer, IntegerOverflowIsALexicalError) {
  auto Tokens = tokenize("9223372036854775807 9223372036854775808");
  ASSERT_EQ(Tokens.size(), 2u);
  EXPECT_EQ(Tokens[0].IntValue, INT64_MAX);
  EXPECT_TRUE(Tokens[1].is(TokenKind::Error));
  EXPECT_EQ(Tokens[1].Text, "integer literal out of range");
  EXPECT_EQ(Tokens[1].Col, 21u);

  ParseResult R =
      parseModule("func main() {\n  x = 99999999999999999999;\n  ret x;\n}\n");
  EXPECT_FALSE(R.succeeded());
  EXPECT_EQ(R.Errors,
            std::vector<std::string>{"2:7: integer literal out of range"});
}

//===----------------------------------------------------------------------===//
// Parser: acceptance
//===----------------------------------------------------------------------===//

TEST(Parser, ParsesMinimalMain) {
  ParseResult R = parseModule("func main() { ret 0; }");
  ASSERT_TRUE(R.succeeded());
  EXPECT_EQ(R.M->functions().size(), 1u);
}

TEST(Parser, ImplicitReturnAtFunctionEnd) {
  ParseResult R = parseModule("func main() { x = 1; }");
  ASSERT_TRUE(R.succeeded());
  const ir::BasicBlock *Entry = R.M->findFunction("main")->getEntry();
  EXPECT_TRUE(isa<ir::RetInst>(Entry->instructions().back().get()));
}

TEST(Parser, ForwardFunctionReferences) {
  ParseResult R = parseModule(R"(
    func main() { helper(1); x = helper(3); ret x; }
    func helper(n) { m = n + 1; ret m; }
  )");
  ASSERT_TRUE(R.succeeded()) << R.Errors.front();
  // Both the bare and the assigned call bind to the later definition.
  const ir::Function *Helper = R.M->findFunction("helper");
  unsigned Calls = 0;
  for (const auto &I : R.M->findFunction("main")->getEntry()->instructions())
    if (const auto *Call = dyn_cast<ir::CallInst>(I.get())) {
      EXPECT_EQ(Call->getCallee(), Helper);
      ++Calls;
    }
  EXPECT_EQ(Calls, 2u);
}

TEST(Parser, IfCreatesFallthroughBlock) {
  ParseResult R = parseModule(R"(
    func main() {
      x = 1;
      if x goto out;
      x = 2;
    out:
      ret x;
    }
  )");
  ASSERT_TRUE(R.succeeded());
  // entry, fallthrough continuation, and 'out'.
  EXPECT_EQ(R.M->findFunction("main")->blocks().size(), 3u);
}

TEST(Parser, GlobalsResolveAsAddressOperands) {
  ParseResult R = parseModule(R"(
    global g[4] init;
    func main() { p = g; x = *p; ret x; }
  )");
  ASSERT_TRUE(R.succeeded());
  const ir::Function *Main = R.M->findFunction("main");
  const auto *Copy =
      cast<ir::CopyInst>(Main->getEntry()->instructions()[0].get());
  ASSERT_TRUE(Copy->getSrc().isGlobal());
  EXPECT_EQ(Copy->getSrc().getGlobal()->getName(), "g");
}

TEST(Parser, NegativeConstants) {
  ParseResult R = parseModule("func main() { x = -5; ret x; }");
  ASSERT_TRUE(R.succeeded());
  const auto *Copy = cast<ir::CopyInst>(
      R.M->findFunction("main")->getEntry()->instructions()[0].get());
  EXPECT_EQ(Copy->getSrc().getConst(), -5);
}

TEST(Parser, GepWithVariableIndex) {
  ParseResult R = parseModule(R"(
    func main() {
      p = alloc stack 8 uninit array;
      i = 3;
      q = gep p, i;
      *q = 1;
      ret 0;
    }
  )");
  ASSERT_TRUE(R.succeeded());
  bool Found = false;
  for (const auto &I :
       R.M->findFunction("main")->getEntry()->instructions())
    if (const auto *G = dyn_cast<ir::FieldAddrInst>(I.get()))
      Found = !G->hasConstIndex();
  EXPECT_TRUE(Found);
}

TEST(Parser, BareCallStatement) {
  ParseResult R = parseModule(R"(
    func work(n) { ret n; }
    func main() { work(1); ret 0; }
  )");
  ASSERT_TRUE(R.succeeded());
  const auto *Call = cast<ir::CallInst>(
      R.M->findFunction("main")->getEntry()->instructions()[0].get());
  EXPECT_EQ(Call->getDef(), nullptr);
}

//===----------------------------------------------------------------------===//
// Parser: diagnostics
//===----------------------------------------------------------------------===//

TEST(ParserDiagnostics, UseOfUndefinedName) {
  ParseResult R = parseModule("func main() { x = y + 1; ret x; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("undefined name 'y'"), std::string::npos);
}

TEST(ParserDiagnostics, UndefinedLabel) {
  ParseResult R = parseModule("func main() { goto nowhere; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("undefined label"), std::string::npos);
}

TEST(ParserDiagnostics, RedefinedLabel) {
  ParseResult R =
      parseModule("func main() { a: x = 1; a: ret x; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redefinition of label"),
            std::string::npos);
}

TEST(ParserDiagnostics, WrongArgumentCount) {
  ParseResult R = parseModule(R"(
    func two(a, b) { c = a + b; ret c; }
    func main() { x = two(1); ret x; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("passes 1 args, expected 2"),
            std::string::npos);
}

TEST(ParserDiagnostics, ReservedWordAsVariable) {
  ParseResult R = parseModule("func main() { heap = 1; ret heap; }");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("reserved"), std::string::npos);
}

TEST(ParserDiagnostics, AssigningGlobalDirectly) {
  ParseResult R = parseModule(R"(
    global g[1] init;
    func main() { g = 3; ret 0; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("store through a pointer"),
            std::string::npos);

  // Globals are known from the first pass on, so a declaration after the
  // function body blocks the assignment too.
  R = parseModule(R"(
    func main() { g = 3; ret 0; }
    global g[1] init;
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("cannot assign to global 'g'"),
            std::string::npos);
}

TEST(ParserDiagnostics, DuplicateFunction) {
  ParseResult R = parseModule(R"(
    func main() { ret 0; }
    func main() { ret 1; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redefinition of function"),
            std::string::npos);
}

TEST(ParserDiagnostics, DuplicateGlobal) {
  ParseResult R = parseModule(R"(
    global g[1] init;
    global g[2] uninit;
    func main() { ret 0; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redefinition of global 'g'"),
            std::string::npos);
}

TEST(ParserDiagnostics, VarRedeclaringGlobal) {
  ParseResult R = parseModule(R"(
    func main() { var x, g; ret 0; }
    global g[1] init;
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("redeclaration of 'g'"), std::string::npos);
}

TEST(ParserDiagnostics, CallToUndefinedFunction) {
  ParseResult R = parseModule(R"(
    func main() { nowhere(1); ret 0; }
    func elsewhere() { ret 0; }
  )");
  ASSERT_FALSE(R.succeeded());
  EXPECT_NE(R.Errors.front().find("call to undefined function 'nowhere'"),
            std::string::npos);
}

TEST(ParserDiagnostics, TruncatedExpressionReportsEndOfInput) {
  // Input cut off mid-expression: the diagnostic must carry line:col and
  // say "end of input" rather than quoting an empty token.
  ParseResult R = parseModule("func main() {\n  x = 1;\n  y = x +");
  ASSERT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  const std::string &E = R.Errors.front();
  EXPECT_NE(E.find("3:"), std::string::npos) << E;
  EXPECT_NE(E.find("end of input"), std::string::npos) << E;
  EXPECT_EQ(E.find("''"), std::string::npos) << E;
}

TEST(ParserDiagnostics, TruncatedFunctionReportsEndOfInput) {
  ParseResult R = parseModule("func main() {\n  x = 1;\n");
  ASSERT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  bool MentionsEof = false;
  for (const std::string &E : R.Errors)
    MentionsEof |= E.find("end of input") != std::string::npos;
  EXPECT_TRUE(MentionsEof) << R.Errors.front();
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

TEST(Printer, RoundTripsThroughTheParser) {
  const char *Src = R"(
    global table[8] uninit array;
    func helper(a, b) {
      c = a + b;
      p = alloc heap 4 init;
      q = gep p, 2;
      *q = c;
      v = *q;
      if v goto big;
      ret 0;
    big:
      ret v;
    }
    func main() {
      x = helper(1, 2);
      t = table;
      *t = x;
      y = *t;
      ret y;
    }
  )";
  ParseResult First = parseModule(Src);
  ASSERT_TRUE(First.succeeded());

  std::string Printed;
  raw_string_ostream OS(Printed);
  First.M->print(OS);

  ParseResult Second = parseModule(Printed);
  ASSERT_TRUE(Second.succeeded())
      << "reparse failed: " << Second.Errors.front() << "\n"
      << Printed;
  // Structure is preserved: same functions, same instruction counts per
  // function modulo the extra goto blocks the printer normalizes.
  EXPECT_EQ(First.M->functions().size(), Second.M->functions().size());
  EXPECT_EQ(First.M->objects().size(), Second.M->objects().size());
}

} // namespace
