//===- serialize/TextFormat.cpp ---------------------------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "serialize/TextFormat.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pbt;
using namespace pbt::serialize;

std::string serialize::formatDouble(double V) {
  // 17 significant digits round-trip every finite double exactly; %g keeps
  // small integers (counts, labels stored as doubles) short and readable.
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

Writer &Writer::key(const std::string &K) {
  assert(!InLine && "previous line not ended");
  assert(!K.empty() && K.find_first_of(" \n") == std::string::npos &&
         "keys are single tokens");
  Out += K;
  InLine = true;
  return *this;
}

Writer &Writer::u64(uint64_t V) {
  assert(InLine && "token outside a line");
  Out += ' ';
  Out += std::to_string(V);
  return *this;
}

Writer &Writer::f(double V) {
  assert(InLine && "token outside a line");
  Out += ' ';
  Out += formatDouble(V);
  return *this;
}

Writer &Writer::word(const std::string &W) {
  assert(InLine && "token outside a line");
  assert(!W.empty() && W.find_first_of(" \n") == std::string::npos &&
         "words are single tokens");
  Out += ' ';
  Out += W;
  return *this;
}

Writer &Writer::text(const std::string &T) {
  assert(InLine && "token outside a line");
  assert(T.find('\n') == std::string::npos && "text cannot span lines");
  // Reader::rest() trims leading separators and rejects an empty
  // remainder, so only edge-space-free, non-empty text round-trips.
  assert(!T.empty() && T.front() != ' ' && T.back() != ' ' &&
         "text must be non-empty without edge spaces");
  Out += ' ';
  Out += T;
  return *this;
}

Writer &Writer::end() {
  assert(InLine && "no line to end");
  Out += '\n';
  InLine = false;
  return *this;
}

void Writer::doubles(const std::string &K, const std::vector<double> &V) {
  key(K).u64(V.size());
  for (double X : V)
    f(X);
  end();
}

void Writer::u64s(const std::string &K, const std::vector<uint64_t> &V) {
  key(K).u64(V.size());
  for (uint64_t X : V)
    u64(X);
  end();
}

void Writer::matrix(const std::string &Name, const linalg::Matrix &M) {
  key("matrix").word(Name).u64(M.rows()).u64(M.cols()).end();
  for (size_t R = 0; R != M.rows(); ++R) {
    key("row");
    for (size_t C = 0; C != M.cols(); ++C)
      f(M.at(R, C));
    end();
  }
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

Reader::Reader(std::string TextIn) : Text(std::move(TextIn)) {
  // Position "before" the first line: nextKey()/expect() advance first.
  Pos = LineEnd = 0;
}

bool Reader::fail(const std::string &Msg) {
  if (Error.empty())
    Error = "line " + std::to_string(Line) + ": " + Msg;
  return false;
}

bool Reader::atEnd() const { return LineEnd >= Text.size(); }

bool Reader::nextToken(std::string_view &Tok) {
  Tok = {};
  if (!ok())
    return false;
  while (Pos < LineEnd && Text[Pos] == ' ')
    ++Pos;
  if (Pos >= LineEnd)
    return false;
  size_t Start = Pos;
  while (Pos < LineEnd && Text[Pos] != ' ')
    ++Pos;
  Tok = std::string_view(Text).substr(Start, Pos - Start);
  return true;
}

std::string Reader::nextKey() {
  if (!ok())
    return "";
  // Skip the unread remainder of the current line.
  size_t Next = LineEnd;
  if (Next >= Text.size())
    return "";
  // After the first line, LineEnd sits on the previous newline. At
  // start-of-input (Line == 0) position 0 is content: a file opening
  // with a blank line must be rejected, not silently skipped.
  if (Line > 0 && Text[Next] == '\n')
    ++Next;
  if (Next >= Text.size())
    return "";
  Pos = Next;
  size_t NL = Text.find('\n', Next);
  LineEnd = NL == std::string::npos ? Text.size() : NL;
  ++Line;
  std::string_view Key;
  if (!nextToken(Key)) {
    fail("empty line");
    return "";
  }
  return std::string(Key);
}

bool Reader::expect(const std::string &Key) {
  if (!ok())
    return false;
  if (atEnd())
    return fail("unexpected end of input, expected '" + Key + "'");
  std::string Got = nextKey();
  if (!ok())
    return false;
  if (Got != Key)
    return fail("expected '" + Key + "', got '" + Got + "'");
  return true;
}

// f() and u64() parse the tokens Writer emits (plain decimal digits,
// finite doubles) with std::from_chars, straight from the line. Any token
// it does not take whole -- a sign, leading whitespace, hex, inf/nan, an
// out-of-range value -- goes through the strtod/strtoull path instead, so
// the accepted syntax and every parsed bit are strtod's and strtoull's.

uint64_t Reader::u64() {
  std::string_view View;
  if (!nextToken(View)) {
    fail("expected unsigned integer");
    return 0;
  }
  uint64_t Fast = 0;
  const char *ViewEnd = View.data() + View.size();
  auto [Ptr, Ec] = std::from_chars(View.data(), ViewEnd, Fast);
  if (Ec == std::errc() && Ptr == ViewEnd)
    return Fast;
  std::string Tok(View);
  if (Tok[0] == '-' || Tok[0] == '+') {
    fail("expected unsigned integer, got '" + Tok + "'");
    return 0;
  }
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Tok.c_str(), &End, 10);
  if (errno != 0 || End != Tok.c_str() + Tok.size()) {
    fail("bad unsigned integer '" + Tok + "'");
    return 0;
  }
  return V;
}

uint64_t Reader::count(uint64_t Max) {
  uint64_t V = u64();
  if (ok() && V > Max) {
    fail("count " + std::to_string(V) + " exceeds limit " +
         std::to_string(Max));
    return 0;
  }
  return ok() ? V : 0;
}

double Reader::f() {
  std::string_view View;
  if (!nextToken(View)) {
    fail("expected number");
    return 0.0;
  }
  double Fast = 0.0;
  const char *ViewEnd = View.data() + View.size();
  auto [Ptr, Ec] = std::from_chars(View.data(), ViewEnd, Fast);
  if (Ec == std::errc() && Ptr == ViewEnd && std::isfinite(Fast))
    return Fast;
  std::string Tok(View);
  char *End = nullptr;
  double V = std::strtod(Tok.c_str(), &End);
  if (End != Tok.c_str() + Tok.size()) {
    fail("bad number '" + Tok + "'");
    return 0.0;
  }
  return V;
}

std::string Reader::word() {
  std::string_view Tok;
  if (!nextToken(Tok))
    fail("expected word");
  return std::string(Tok);
}

std::string Reader::rest() {
  if (!ok())
    return "";
  size_t Start = Pos;
  while (Start < LineEnd && Text[Start] == ' ')
    ++Start;
  if (Start >= LineEnd) {
    fail("expected text");
    return "";
  }
  Pos = LineEnd;
  return Text.substr(Start, LineEnd - Start);
}

bool Reader::endLine() {
  if (!ok())
    return false;
  size_t P = Pos;
  while (P < LineEnd && Text[P] == ' ')
    ++P;
  if (P != LineEnd)
    return fail("trailing tokens on line");
  return true;
}

bool Reader::doubles(const std::string &Key, std::vector<double> &Out,
                     uint64_t MaxCount) {
  Out.clear();
  if (!expect(Key))
    return false;
  uint64_t N = count(MaxCount);
  for (uint64_t I = 0; I != N && ok(); ++I)
    Out.push_back(f());
  return endLine();
}

bool Reader::u64s(const std::string &Key, std::vector<uint64_t> &Out,
                  uint64_t MaxCount) {
  Out.clear();
  if (!expect(Key))
    return false;
  uint64_t N = count(MaxCount);
  for (uint64_t I = 0; I != N && ok(); ++I)
    Out.push_back(u64());
  return endLine();
}

bool Reader::matrix(const std::string &Name, linalg::Matrix &Out,
                    uint64_t MaxRows, uint64_t MaxCols) {
  if (!expect("matrix"))
    return false;
  std::string Got = word();
  if (ok() && Got != Name)
    return fail("expected matrix '" + Name + "', got '" + Got + "'");
  uint64_t Rows = count(MaxRows);
  uint64_t Cols = count(MaxCols);
  if (!endLine())
    return false;
  // Fill row by row, and reserve no more than the rest of the text can
  // carry (every number takes at least a separator and a digit), so a
  // corrupt header cannot allocate more than the input actually holds.
  std::vector<double> Data;
  Data.reserve(std::min<uint64_t>(Rows * Cols, (Text.size() - Pos) / 2));
  for (uint64_t R = 0; R != Rows && ok(); ++R) {
    if (!expect("row"))
      return false;
    for (uint64_t C = 0; C != Cols && ok(); ++C)
      Data.push_back(f());
    if (!endLine())
      return false;
  }
  if (!ok())
    return false;
  Out = linalg::Matrix::fromData(Rows, Cols, std::move(Data));
  return true;
}
