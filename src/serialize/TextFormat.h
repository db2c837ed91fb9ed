//===- serialize/TextFormat.h - Versioned line-oriented model format ------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate of the model-persistence layer: a line-oriented,
/// human-diffable text format with no external dependencies.
///
/// Every line is `key token token ...`. Doubles are printed with 17
/// significant digits, which round-trips every IEEE-754 double exactly, so
/// parse -> emit is byte-identical -- the property the golden-file
/// regression suite pins. The Writer emits; the Reader consumes with a
/// sticky error state: the first malformed line latches an error message,
/// every later accessor returns a neutral value, and loaders bail out
/// cleanly instead of crashing on truncated or corrupted input.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SERIALIZE_TEXTFORMAT_H
#define PBT_SERIALIZE_TEXTFORMAT_H

#include "linalg/Matrix.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pbt {
namespace serialize {

/// Formats \p V with enough digits that strtod recovers the exact bits.
std::string formatDouble(double V);

/// Emits the line-oriented text format. Tokens are space-separated; a line
/// is open between key() and end().
class Writer {
public:
  /// Starts a new line with its key token.
  Writer &key(const std::string &K);
  Writer &u64(uint64_t V);
  Writer &f(double V);
  /// A single whitespace-free token.
  Writer &word(const std::string &W);
  /// Rest-of-line text (may contain spaces, not newlines); must be the
  /// last token before end().
  Writer &text(const std::string &T);
  /// Terminates the current line.
  Writer &end();

  /// `key` alone on a line.
  void line(const std::string &K) { key(K).end(); }
  /// `key <n> v0 v1 ...` -- a counted vector on one line.
  void doubles(const std::string &K, const std::vector<double> &V);
  void u64s(const std::string &K, const std::vector<uint64_t> &V);
  /// `matrix <name> <rows> <cols>` followed by one `row ...` per row.
  void matrix(const std::string &Name, const linalg::Matrix &M);

  const std::string &str() const { return Out; }

private:
  std::string Out;
  bool InLine = false;
};

/// Consumes Writer output line by line with sticky error reporting. All
/// accessors are safe to call after a failure (they return zeros/empties),
/// so loaders can run linearly and check ok() at commit points.
class Reader {
public:
  explicit Reader(std::string Text);

  /// Advances to the next line and fails unless its key is \p Key.
  bool expect(const std::string &Key);
  /// Advances to the next line and returns its key ("" at end of input,
  /// which is not an error; use expect() when a line is mandatory).
  std::string nextKey();

  uint64_t u64();
  /// u64 checked against an inclusive upper bound -- the defence against
  /// corrupt counts triggering huge allocations.
  uint64_t count(uint64_t Max);
  double f();
  std::string word();
  /// Rest of the current line (trimmed of the leading separator).
  std::string rest();

  /// Fails unless every token of the current line was consumed.
  bool endLine();

  /// `key <n> v0...` with n <= MaxCount, consuming the whole line.
  bool doubles(const std::string &Key, std::vector<double> &Out,
               uint64_t MaxCount);
  bool u64s(const std::string &Key, std::vector<uint64_t> &Out,
            uint64_t MaxCount);
  /// Mirrors Writer::matrix. Dimensions are capped to keep corrupt
  /// headers from allocating unbounded memory.
  bool matrix(const std::string &Name, linalg::Matrix &Out,
              uint64_t MaxRows = 1u << 22, uint64_t MaxCols = 1u << 16);

  bool atEnd() const;
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }
  /// 1-based line number of the current line (0 before the first
  /// advance) -- lets loaders tag their own semantic failures with the
  /// position the way fail() tags syntactic ones.
  size_t lineNumber() const { return Line; }
  /// Latches the first error (tagged with the current line number).
  /// Always returns false so loaders can `return R.fail(...)`.
  bool fail(const std::string &Msg);

private:
  /// The next space-separated token of the current line, as a view into
  /// Text (valid until the Reader is destroyed).
  bool nextToken(std::string_view &Tok);

  std::string Text;
  size_t Pos = 0;       // cursor within the current line
  size_t LineEnd = 0;   // one past the current line's last char
  size_t Line = 0;      // 1-based line number of the current line
  std::string Error;
};

} // namespace serialize
} // namespace pbt

#endif // PBT_SERIALIZE_TEXTFORMAT_H
