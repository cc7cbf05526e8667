//===- parser/Lexer.cpp - TinyC tokenizer ---------------------------------===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "parser/Lexer.h"

#include "support/ParseNumber.h"

#include <array>
#include <string>

using namespace usher;
using namespace usher::parser;

/// "unexpected character 'C'" for every byte C, built once: Error tokens
/// view these.
static std::string_view unexpectedCharacter(char C) {
  static const std::array<std::string, 256> Messages = [] {
    std::array<std::string, 256> M;
    for (unsigned I = 0; I != M.size(); ++I)
      M[I] = std::string("unexpected character '") + static_cast<char>(I) +
             "'";
    return M;
  }();
  return Messages[static_cast<unsigned char>(C)];
}

namespace {
/// Character classes of the "C" locale's isspace (the four the grammar
/// allows), isalpha or '_', isalnum or '_' or '.', and isdigit.
enum : uint8_t { Blank = 1, IdentStart = 2, IdentRest = 4, Digit = 8 };
constexpr std::array<uint8_t, 256> CharClass = [] {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\r', '\n'})
    T[static_cast<unsigned char>(C)] = Blank;
  for (unsigned C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = IdentStart | IdentRest;
  for (unsigned C = '0'; C <= '9'; ++C)
    T[C] = Digit | IdentRest;
  T['_'] = IdentStart | IdentRest;
  T['.'] = IdentRest;
  return T;
}();
} // namespace

void Lexer::skipTrivia() {
  const size_t Size = Src.size();
  while (Pos != Size) {
    const char C = Src[Pos];
    if (CharClass[static_cast<unsigned char>(C)] & Blank) {
      if (C == '\n') {
        ++Line;
        LineStart = Pos + 1;
      }
      ++Pos;
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      const size_t Eol = Src.find('\n', Pos);
      Pos = Eol == std::string_view::npos ? Size : Eol;
      continue;
    }
    break;
  }
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Line = Line;
  T.Col = static_cast<unsigned>(Pos - LineStart + 1);
  if (atEnd())
    return T; // Eof.

  const size_t Start = Pos;
  auto Finish = [&](TokenKind K) {
    T.Kind = K;
    T.Text = Src.substr(Start, Pos - Start);
    return T;
  };
  // An error leaves the cursor on the offending character, so the stream
  // stays on its Error token.
  auto Fail = [&](std::string_view Message) {
    Pos = Start;
    T.Kind = TokenKind::Error;
    T.Text = Message;
    return T;
  };
  auto Skip = [&](uint8_t Class) {
    while (Pos != Src.size() &&
           (CharClass[static_cast<unsigned char>(Src[Pos])] & Class))
      ++Pos;
  };

  const char C = Src[Pos++];
  const uint8_t Class = CharClass[static_cast<unsigned char>(C)];
  if (Class & IdentStart) {
    Skip(IdentRest);
    return Finish(TokenKind::Ident);
  }
  if (Class & Digit) {
    Skip(Digit);
    uint64_t Value;
    if (!parseDecimal(Src.substr(Start, Pos - Start), Value) ||
        Value > static_cast<uint64_t>(INT64_MAX))
      return Fail("integer literal out of range");
    T.IntValue = static_cast<int64_t>(Value);
    return Finish(TokenKind::Int);
  }

  switch (C) {
  case ';':
    return Finish(TokenKind::Semi);
  case ',':
    return Finish(TokenKind::Comma);
  case '(':
    return Finish(TokenKind::LParen);
  case ')':
    return Finish(TokenKind::RParen);
  case '{':
    return Finish(TokenKind::LBrace);
  case '}':
    return Finish(TokenKind::RBrace);
  case '[':
    return Finish(TokenKind::LBracket);
  case ']':
    return Finish(TokenKind::RBracket);
  case ':':
    return Finish(TokenKind::Colon);
  case '*':
    return Finish(TokenKind::Star);
  case '+':
    return Finish(TokenKind::Plus);
  case '-':
    return Finish(TokenKind::Minus);
  case '/':
    return Finish(TokenKind::Slash);
  case '%':
    return Finish(TokenKind::Percent);
  case '&':
    return Finish(TokenKind::Amp);
  case '|':
    return Finish(TokenKind::Pipe);
  case '^':
    return Finish(TokenKind::Caret);
  case '=':
    if (peek() == '=') {
      ++Pos;
      return Finish(TokenKind::EqEq);
    }
    return Finish(TokenKind::Assign);
  case '!':
    if (peek() == '=') {
      ++Pos;
      return Finish(TokenKind::NotEq);
    }
    return Fail(unexpectedCharacter(C));
  case '<':
    if (peek() == '<') {
      ++Pos;
      return Finish(TokenKind::Shl);
    }
    if (peek() == '=') {
      ++Pos;
      return Finish(TokenKind::LessEq);
    }
    return Finish(TokenKind::Less);
  case '>':
    if (peek() == '>') {
      ++Pos;
      return Finish(TokenKind::Shr);
    }
    if (peek() == '=') {
      ++Pos;
      return Finish(TokenKind::GreaterEq);
    }
    return Finish(TokenKind::Greater);
  default:
    return Fail(unexpectedCharacter(C));
  }
}

std::vector<Token> parser::tokenize(std::string_view Source) {
  std::vector<Token> Tokens;
  Lexer L(Source);
  do
    Tokens.push_back(L.next());
  while (!Tokens.back().is(TokenKind::Eof) &&
         !Tokens.back().is(TokenKind::Error));
  return Tokens;
}
