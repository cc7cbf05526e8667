//===- parser/Lexer.h - TinyC tokenizer -------------------------*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the textual TinyC syntax. `//` starts a line comment.
/// The parser pulls tokens from a Lexer cursor as it goes, so its memory
/// does not grow with the length of the source.
///
//===----------------------------------------------------------------------===//

#ifndef USHER_PARSER_LEXER_H
#define USHER_PARSER_LEXER_H

#include <cstdint>
#include <string_view>
#include <vector>

namespace usher {
namespace parser {

/// Token categories produced by the lexer.
enum class TokenKind {
  Eof,
  Ident,
  Int,
  // Punctuation.
  Assign,    // =
  Semi,      // ;
  Comma,     // ,
  LParen,    // (
  RParen,    // )
  LBrace,    // {
  RBrace,    // }
  LBracket,  // [
  RBracket,  // ]
  Colon,     // :
  Star,      // *
  // Operators (other than Star, which doubles as dereference).
  Plus,      // +
  Minus,     // -
  Slash,     // /
  Percent,   // %
  Amp,       // &
  Pipe,      // |
  Caret,     // ^
  Shl,       // <<
  Shr,       // >>
  EqEq,      // ==
  NotEq,     // !=
  Less,      // <
  LessEq,    // <=
  Greater,   // >
  GreaterEq, // >=
  Error
};

/// A single token with source coordinates. Its text views the source
/// (for an Error token, a static message), so a token owns nothing.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  std::string_view Text;
  int64_t IntValue = 0;
  unsigned Line = 0;
  unsigned Col = 0;

  bool is(TokenKind K) const { return Kind == K; }
  /// True for an identifier spelled exactly \p Keyword.
  bool isKeyword(std::string_view Keyword) const {
    return Kind == TokenKind::Ident && Text == Keyword;
  }
};

/// A cursor that lexes \p Source one token at a time; no token stream is
/// ever stored. The stream ends with an Eof token or, on a lexical error,
/// with an Error token carrying a message at the offending position;
/// next() keeps returning that last token. A Lexer is a small value:
/// copying it saves a cursor to re-lex from.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Src(Source) {}

  Token next();

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }
  bool atEnd() const { return Pos >= Src.size(); }
  void skipTrivia();

  std::string_view Src;
  size_t Pos = 0;
  /// The current line and the offset where it starts; a column is the
  /// distance from LineStart. No token spans a newline, so only
  /// skipTrivia() moves them.
  unsigned Line = 1;
  size_t LineStart = 0;
};

/// Every token of \p Source up to and including the Eof or Error token.
std::vector<Token> tokenize(std::string_view Source);

} // namespace parser
} // namespace usher

#endif // USHER_PARSER_LEXER_H
