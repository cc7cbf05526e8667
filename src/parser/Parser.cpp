//===- parser/Parser.cpp - TinyC text -> IR -------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"

#include "ir/IR.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "parser/Lexer.h"
#include "support/RawStream.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <utility>

using namespace usher;
using namespace usher::parser;
using ir::BasicBlock;
using ir::BinOpcode;
using ir::Function;
using ir::MemObject;
using ir::Operand;
using ir::Region;
using ir::Variable;

namespace {

/// Names with fixed meaning that may not be used as variables or labels.
bool isReservedWord(std::string_view Name) {
  static constexpr std::array<std::string_view, 13> Reserved = {
      "global", "func", "alloc", "gep",    "if",     "goto",
      "ret",    "stack", "heap",  "init",  "uninit", "array",
      "var"};
  return std::find(Reserved.begin(), Reserved.end(), Name) != Reserved.end();
}

/// "'Name'" for diagnostics.
std::string quoted(std::string_view Name) {
  return "'" + std::string(Name) + "'";
}

class ParserImpl {
public:
  ParserImpl(std::string_view Source) : C(Source) {}

  ParseResult run();

private:
  /// Where parsing stands: the lexer, the current token and, once
  /// peekNext() has looked, the one after it. Copying a Cursor saves the
  /// position; nothing else of the token stream is kept.
  struct Cursor {
    explicit Cursor(std::string_view Source) : Lex(Source), Tok(Lex.next()) {}
    Lexer Lex;
    Token Tok, Ahead;
    bool HasAhead = false;
  };

  // Token cursor helpers. The stream ends on an Eof or Error token, which
  // advance() never moves past.
  const Token &peek() const { return C.Tok; }
  const Token &peekNext() {
    if (!C.HasAhead) {
      C.Ahead = C.Lex.next();
      C.HasAhead = true;
    }
    return C.Ahead;
  }
  bool atEnd() const {
    return check(TokenKind::Eof) || check(TokenKind::Error);
  }
  Token advance() {
    Token T = C.Tok;
    if (!atEnd()) {
      C.Tok = C.HasAhead ? C.Ahead : C.Lex.next();
      C.HasAhead = false;
    }
    return T;
  }
  bool check(TokenKind K) const { return peek().is(K); }
  bool match(TokenKind K) {
    if (!check(K))
      return false;
    advance();
    return true;
  }
  bool expect(TokenKind K, const char *What) {
    if (match(K))
      return true;
    error(std::string("expected ") + What + ", found " + foundDesc());
    return false;
  }

  /// What the error position holds, for "expected X, found Y" messages.
  /// Truncated input yields "end of input" instead of an empty quote.
  std::string foundDesc() const {
    const Token &T = peek();
    if (T.is(TokenKind::Eof))
      return "end of input";
    return quoted(T.Text);
  }

  void error(const std::string &Msg) {
    const Token &T = peek();
    Errors.push_back(std::to_string(T.Line) + ":" + std::to_string(T.Col) +
                     ": " + Msg);
  }

  /// Skips tokens until just past the next ';' (or a brace boundary).
  void recover() {
    while (!atEnd() && !check(TokenKind::RBrace)) {
      if (advance().is(TokenKind::Semi))
        return;
    }
  }

  // Pass 1: create functions (with params) and globals. False on a
  // lexical error, which then is the only diagnostic.
  bool scanTopLevel();
  // Pass 2: parse bodies.
  void parseTopLevel();
  void parseGlobalDecl(bool Declare);
  void parseFunctionBody(Function *F);
  void parseStatement();
  bool parseOperand(Operand &Out);
  bool parseBinOpcode(BinOpcode &Out);

  template <class T>
  static T *find(const std::unordered_map<std::string_view, T *> &Map,
                 std::string_view Name) {
    auto It = Map.find(Name);
    return It == Map.end() ? nullptr : It->second;
  }
  Function *findFunction(std::string_view Name) const {
    return find(FunctionsByName, Name);
  }
  MemObject *findGlobal(std::string_view Name) const {
    return find(GlobalsByName, Name);
  }
  Variable *findVariable(std::string_view Name) const {
    return find(VarsByName, Name);
  }
  Variable *createVariable(std::string_view Name) {
    Variable *V = CurFn->createVariable(std::string(Name));
    VarsByName.emplace(V->getName(), V);
    return V;
  }

  Variable *resolveOrCreateDef(std::string_view Name);
  BasicBlock *lookupLabel(std::string_view Name);
  void startBlock(BasicBlock *BB);

  Cursor C;
  std::vector<std::string> Errors;

  std::unique_ptr<ir::Module> M;
  std::unique_ptr<ir::IRBuilder> Builder;
  // Name indices, filled where functions, globals and variables are
  // created. Keys view the source or the IR's own names, so a lookup
  // copies nothing. Module::findFunction/findGlobal and
  // Function::findVariable are linear scans, and names resolve once per
  // statement and operand. The index lives here rather than in Module
  // because the program linker renames symbols after parsing.
  std::unordered_map<std::string_view, Function *> FunctionsByName;
  std::unordered_map<std::string_view, MemObject *> GlobalsByName;

  // Per-function parsing state.
  struct Label {
    BasicBlock *BB;
    unsigned RefLine; ///< Line of the first reference.
    bool Defined = false;
  };
  Function *CurFn = nullptr;
  bool Terminated = false;
  unsigned ContCounter = 0;
  unsigned ObjCounter = 0;
  std::unordered_map<std::string_view, Variable *> VarsByName;
  std::map<std::string_view, Label> Labels; ///< By name, for diagnostics.
};

} // namespace

bool ParserImpl::scanTopLevel() {
  const Cursor Saved = C;
  while (!atEnd()) {
    if (peek().isKeyword("global")) {
      parseGlobalDecl(/*Declare=*/true);
      continue;
    }
    if (peek().isKeyword("func")) {
      advance();
      if (!check(TokenKind::Ident)) {
        error("expected function name after 'func'");
        break;
      }
      std::string_view Name = advance().Text;
      if (findFunction(Name)) {
        error("redefinition of function " + quoted(Name));
        break;
      }
      Function *F = M->createFunction(std::string(Name));
      FunctionsByName.emplace(Name, F);
      if (!expect(TokenKind::LParen, "'('"))
        break;
      if (!check(TokenKind::RParen)) {
        do {
          if (!check(TokenKind::Ident)) {
            error("expected parameter name");
            break;
          }
          std::string_view PName = advance().Text;
          if (isReservedWord(PName))
            error(quoted(PName) + " is reserved and cannot be a parameter");
          F->createVariable(std::string(PName), /*IsParam=*/true);
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        break;
      if (!expect(TokenKind::LBrace, "'{'"))
        break;
      // Skip to the matching brace.
      unsigned Depth = 1;
      while (Depth > 0 && !atEnd()) {
        if (check(TokenKind::LBrace))
          ++Depth;
        else if (check(TokenKind::RBrace))
          --Depth;
        advance();
      }
      continue;
    }
    error("expected 'global' or 'func' at top level");
    break;
  }
  // A lexical error anywhere in the source is the only diagnostic, so
  // lex on to the end of the source when a syntax error stopped the scan.
  while (!atEnd())
    advance();
  const bool LexError = check(TokenKind::Error);
  if (LexError)
    Errors.assign(1, std::to_string(peek().Line) + ":" +
                         std::to_string(peek().Col) + ": " +
                         std::string(peek().Text));
  C = Saved;
  return !LexError;
}

void ParserImpl::parseGlobalDecl(bool Declare) {
  advance(); // 'global'
  if (!check(TokenKind::Ident)) {
    error("expected global name");
    recover();
    return;
  }
  std::string_view Name = advance().Text;
  int64_t Size = 1;
  if (match(TokenKind::LBracket)) {
    if (!check(TokenKind::Int)) {
      error("expected size in global declaration");
      recover();
      return;
    }
    Size = advance().IntValue;
    if (!expect(TokenKind::RBracket, "']'")) {
      recover();
      return;
    }
  }
  bool Initialized;
  if (peek().isKeyword("init")) {
    advance();
    Initialized = true;
  } else if (peek().isKeyword("uninit")) {
    advance();
    Initialized = false;
  } else {
    error("expected 'init' or 'uninit' in global declaration");
    recover();
    return;
  }
  bool IsArray = false;
  if (peek().isKeyword("array")) {
    advance();
    IsArray = true;
  }
  if (!expect(TokenKind::Semi, "';'")) {
    recover();
    return;
  }
  if (!Declare)
    return;
  if (Size <= 0 || Size > (1 << 20)) {
    error("global " + quoted(Name) + " has invalid size");
    return;
  }
  if (findGlobal(Name)) {
    error("redefinition of global " + quoted(Name));
    return;
  }
  GlobalsByName.emplace(Name,
                        M->createObject(std::string(Name), Region::Global,
                                        static_cast<unsigned>(Size),
                                        Initialized, IsArray));
}

ir::BasicBlock *ParserImpl::lookupLabel(std::string_view Name) {
  auto It = Labels.find(Name);
  if (It != Labels.end())
    return It->second.BB;
  BasicBlock *BB = CurFn->createBlock(std::string(Name));
  Labels.emplace(Name, Label{BB, peek().Line});
  return BB;
}

void ParserImpl::startBlock(BasicBlock *BB) {
  if (!Terminated)
    Builder->createGoto(BB);
  Builder->setInsertPoint(BB);
  Terminated = false;
}

ir::Variable *ParserImpl::resolveOrCreateDef(std::string_view Name) {
  if (isReservedWord(Name)) {
    error(quoted(Name) + " is reserved and cannot be assigned");
    return nullptr;
  }
  if (Variable *V = findVariable(Name))
    return V;
  if (findGlobal(Name)) {
    error("cannot assign to global " + quoted(Name) +
          " directly; store through a pointer instead");
    return nullptr;
  }
  return createVariable(Name);
}

bool ParserImpl::parseOperand(Operand &Out) {
  if (check(TokenKind::Int)) {
    Out = Operand::constant(advance().IntValue);
    return true;
  }
  if (check(TokenKind::Minus) && peekNext().is(TokenKind::Int)) {
    advance();
    Out = Operand::constant(-advance().IntValue);
    return true;
  }
  if (check(TokenKind::Ident)) {
    std::string_view Name = peek().Text;
    if (Variable *V = findVariable(Name)) {
      advance();
      Out = Operand::var(V);
      return true;
    }
    if (MemObject *G = findGlobal(Name)) {
      advance();
      Out = Operand::global(G);
      return true;
    }
    error("use of undefined name " + quoted(Name));
    return false;
  }
  error("expected an operand, found " + foundDesc());
  return false;
}

bool ParserImpl::parseBinOpcode(BinOpcode &Out) {
  switch (peek().Kind) {
  case TokenKind::Plus:
    Out = BinOpcode::Add;
    break;
  case TokenKind::Minus:
    Out = BinOpcode::Sub;
    break;
  case TokenKind::Star:
    Out = BinOpcode::Mul;
    break;
  case TokenKind::Slash:
    Out = BinOpcode::Div;
    break;
  case TokenKind::Percent:
    Out = BinOpcode::Rem;
    break;
  case TokenKind::Amp:
    Out = BinOpcode::And;
    break;
  case TokenKind::Pipe:
    Out = BinOpcode::Or;
    break;
  case TokenKind::Caret:
    Out = BinOpcode::Xor;
    break;
  case TokenKind::Shl:
    Out = BinOpcode::Shl;
    break;
  case TokenKind::Shr:
    Out = BinOpcode::Shr;
    break;
  case TokenKind::EqEq:
    Out = BinOpcode::CmpEQ;
    break;
  case TokenKind::NotEq:
    Out = BinOpcode::CmpNE;
    break;
  case TokenKind::Less:
    Out = BinOpcode::CmpLT;
    break;
  case TokenKind::LessEq:
    Out = BinOpcode::CmpLE;
    break;
  case TokenKind::Greater:
    Out = BinOpcode::CmpGT;
    break;
  case TokenKind::GreaterEq:
    Out = BinOpcode::CmpGE;
    break;
  default:
    return false;
  }
  advance();
  return true;
}

void ParserImpl::parseStatement() {
  // Instructions created for this statement cite its first token.
  Builder->setCurrentLoc({peek().Line, peek().Col});

  // Label: IDENT ':'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::Colon)) {
    std::string_view Name = peek().Text;
    if (isReservedWord(Name)) {
      error(quoted(Name) + " is reserved and cannot be a label");
      advance();
      advance();
      return;
    }
    advance();
    advance();
    BasicBlock *BB = lookupLabel(Name);
    if (std::exchange(Labels.find(Name)->second.Defined, true)) {
      error("redefinition of label " + quoted(Name));
      return;
    }
    if (!BB->empty()) {
      error("label " + quoted(Name) + " already has code");
      return;
    }
    startBlock(BB);
    return;
  }

  // Any non-label statement after a terminator starts an unreachable
  // block; create one so parsing can continue (the verifier permits it
  // and removeUnreachableBlocks() cleans it up).
  if (Terminated) {
    BasicBlock *Dead =
        CurFn->createBlock("dead." + std::to_string(ContCounter++));
    Builder->setInsertPoint(Dead);
    Terminated = false;
  }

  // Declaration: 'var' NAME (',' NAME)* ';'. Creates (still undefined)
  // variables up front, so the printer can emit modules whose uses
  // precede their defs textually.
  if (peek().isKeyword("var")) {
    advance();
    do {
      if (!check(TokenKind::Ident)) {
        error("expected variable name in declaration");
        return recover();
      }
      std::string_view Name = advance().Text;
      if (isReservedWord(Name)) {
        error(quoted(Name) + " is reserved and cannot be declared");
        return recover();
      }
      if (findVariable(Name) || findGlobal(Name)) {
        error("redeclaration of " + quoted(Name));
        return recover();
      }
      createVariable(Name);
    } while (match(TokenKind::Comma));
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    return;
  }

  // Store: '*' operand '=' operand ';'.
  if (match(TokenKind::Star)) {
    Operand Ptr, Val;
    if (!parseOperand(Ptr))
      return recover();
    if (!expect(TokenKind::Assign, "'='"))
      return recover();
    if (!parseOperand(Val))
      return recover();
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createStore(Ptr, Val);
    return;
  }

  // Control flow.
  if (peek().isKeyword("if")) {
    advance();
    Operand Cond;
    if (!parseOperand(Cond))
      return recover();
    if (!(peek().isKeyword("goto"))) {
      error("expected 'goto' in if statement");
      return recover();
    }
    advance();
    if (!check(TokenKind::Ident)) {
      error("expected label after 'goto'");
      return recover();
    }
    std::string_view Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    BasicBlock *TrueBB = lookupLabel(Target);
    BasicBlock *Cont =
        CurFn->createBlock("cont." + std::to_string(ContCounter++));
    Builder->createCondBr(Cond, TrueBB, Cont);
    Builder->setInsertPoint(Cont);
    Terminated = false;
    return;
  }
  if (peek().isKeyword("goto")) {
    advance();
    if (!check(TokenKind::Ident)) {
      error("expected label after 'goto'");
      return recover();
    }
    std::string_view Target = advance().Text;
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createGoto(lookupLabel(Target));
    Terminated = true;
    return;
  }
  if (peek().isKeyword("ret")) {
    advance();
    Operand Val;
    if (!check(TokenKind::Semi)) {
      if (!parseOperand(Val))
        return recover();
    }
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Builder->createRet(Val);
    Terminated = true;
    return;
  }

  // Bare call: IDENT '(' args ')' ';'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::LParen)) {
    std::string_view Callee = advance().Text;
    Function *F = findFunction(Callee);
    if (!F) {
      error("call to undefined function " + quoted(Callee));
      return recover();
    }
    advance(); // '('
    std::vector<Operand> Args;
    if (!check(TokenKind::RParen)) {
      do {
        Operand Arg;
        if (!parseOperand(Arg))
          return recover();
        Args.push_back(Arg);
      } while (match(TokenKind::Comma));
    }
    if (!expect(TokenKind::RParen, "')'"))
      return recover();
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    if (Args.size() != F->params().size())
      error("call to " + quoted(Callee) + " passes " +
            std::to_string(Args.size()) + " args, expected " +
            std::to_string(F->params().size()));
    else
      Builder->createCall(nullptr, F, std::move(Args));
    return;
  }

  // Assignment: IDENT '=' rhs ';'.
  if (check(TokenKind::Ident) && peekNext().is(TokenKind::Assign)) {
    std::string_view DefName = advance().Text;
    advance(); // '='

    // RHS: alloc.
    if (peek().isKeyword("alloc")) {
      advance();
      Region R;
      if (peek().isKeyword("stack")) {
        R = Region::Stack;
      } else if (peek().isKeyword("heap")) {
        R = Region::Heap;
      } else {
        error("expected 'stack' or 'heap' after 'alloc'");
        return recover();
      }
      advance();
      if (!check(TokenKind::Int)) {
        error("expected field count in alloc");
        return recover();
      }
      int64_t Fields = advance().IntValue;
      bool Initialized;
      if (peek().isKeyword("init")) {
        Initialized = true;
      } else if (peek().isKeyword("uninit")) {
        Initialized = false;
      } else {
        error("expected 'init' or 'uninit' in alloc");
        return recover();
      }
      advance();
      bool IsArray = false;
      if (peek().isKeyword("array")) {
        advance();
        IsArray = true;
      }
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Fields <= 0 || Fields > (1 << 20)) {
        error("alloc has invalid field count");
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      std::string ObjName = CurFn->getName() + "." + std::string(DefName) +
                            "." + std::to_string(ObjCounter++);
      Builder->createAlloc(Def, R, static_cast<unsigned>(Fields), Initialized,
                           IsArray, ObjName);
      return;
    }

    // RHS: gep (constant or variable index).
    if (peek().isKeyword("gep")) {
      advance();
      Operand Base, Index;
      if (!parseOperand(Base))
        return recover();
      if (!expect(TokenKind::Comma, "','"))
        return recover();
      if (!parseOperand(Index))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Index.isConst() &&
          (Index.getConst() < 0 || Index.getConst() > (1 << 20))) {
        error("gep has invalid field index");
        return;
      }
      if (Index.isGlobal()) {
        error("gep index cannot be a global address");
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createFieldAddr(Def, Base, Index);
      return;
    }

    // RHS: load.
    if (match(TokenKind::Star)) {
      Operand Ptr;
      if (!parseOperand(Ptr))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createLoad(Def, Ptr);
      return;
    }

    // RHS: call.
    if (check(TokenKind::Ident) && peekNext().is(TokenKind::LParen) &&
        findFunction(peek().Text)) {
      std::string_view Callee = advance().Text;
      Function *F = findFunction(Callee);
      advance(); // '('
      std::vector<Operand> Args;
      if (!check(TokenKind::RParen)) {
        do {
          Operand Arg;
          if (!parseOperand(Arg))
            return recover();
          Args.push_back(Arg);
        } while (match(TokenKind::Comma));
      }
      if (!expect(TokenKind::RParen, "')'"))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      if (Args.size() != F->params().size()) {
        error("call to " + quoted(Callee) + " passes " +
              std::to_string(Args.size()) + " args, expected " +
              std::to_string(F->params().size()));
        return;
      }
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createCall(Def, F, std::move(Args));
      return;
    }

    // RHS: operand (binop operand)?.
    Operand LHS;
    if (!parseOperand(LHS))
      return recover();
    BinOpcode Op;
    if (parseBinOpcode(Op)) {
      Operand RHS;
      if (!parseOperand(RHS))
        return recover();
      if (!expect(TokenKind::Semi, "';'"))
        return recover();
      Variable *Def = resolveOrCreateDef(DefName);
      if (!Def)
        return;
      Builder->createBinOp(Def, Op, LHS, RHS);
      return;
    }
    if (!expect(TokenKind::Semi, "';'"))
      return recover();
    Variable *Def = resolveOrCreateDef(DefName);
    if (!Def)
      return;
    Builder->createCopy(Def, LHS);
    return;
  }

  error("expected a statement, found " + foundDesc());
  recover();
}

void ParserImpl::parseFunctionBody(Function *F) {
  CurFn = F;
  Labels.clear();
  VarsByName.clear();
  for (const auto &V : F->variables())
    VarsByName.emplace(V->getName(), V.get());
  ContCounter = 0;

  BasicBlock *Entry = F->createBlock("entry");
  Builder->setInsertPoint(Entry);
  Terminated = false;

  while (!check(TokenKind::RBrace) && !atEnd() && Errors.size() < 20)
    parseStatement();
  // The implicit return cites the closing brace.
  Builder->setCurrentLoc({peek().Line, peek().Col});
  expect(TokenKind::RBrace, "'}'");

  if (!Terminated)
    Builder->createRet(Operand());

  // Give every block created for an undefined forward label a body so the
  // verifier has a single failure mode: our diagnostic below.
  for (const auto &[Name, L] : Labels) {
    if (L.Defined)
      continue;
    Errors.push_back(std::to_string(L.RefLine) + ":1: undefined label " +
                     quoted(Name) + " in function " + quoted(F->getName()));
    Builder->setInsertPoint(L.BB);
    Builder->createRet(Operand());
  }
  CurFn = nullptr;
}

void ParserImpl::parseTopLevel() {
  while (!atEnd() && Errors.size() < 20) {
    if (peek().isKeyword("global")) {
      parseGlobalDecl(/*Declare=*/false);
      continue;
    }
    if (peek().isKeyword("func")) {
      advance();
      std::string_view Name = advance().Text; // validated in pass 1
      Function *F = findFunction(Name);
      // Skip the parameter list (created in pass 1).
      while (!check(TokenKind::LBrace) && !atEnd())
        advance();
      if (!expect(TokenKind::LBrace, "'{'"))
        return;
      if (!F)
        return; // Pass 1 already diagnosed.
      parseFunctionBody(F);
      continue;
    }
    return; // Pass 1 already diagnosed.
  }
}

ParseResult ParserImpl::run() {
  ParseResult Result;
  M = std::make_unique<ir::Module>();
  Builder = std::make_unique<ir::IRBuilder>(*M);

  if (scanTopLevel() && Errors.empty())
    parseTopLevel();

  Result.Errors = std::move(Errors);
  if (!Result.Errors.empty())
    return Result;

  M->renumber();
  Result.M = std::move(M);
  return Result;
}

ParseResult parser::parseModule(std::string_view Source) {
  return ParserImpl(Source).run();
}

std::unique_ptr<ir::Module>
parser::parseModuleOrAbort(std::string_view Source) {
  ParseResult Result = parseModule(Source);
  if (!Result.succeeded()) {
    for (const std::string &E : Result.Errors)
      errs() << "parse error: " << E << '\n';
    std::abort();
  }
  ir::verifyModuleOrAbort(*Result.M);
  return std::move(Result.M);
}
