//===- support/Json.h - One JSON writer for reports and Stats ------------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JsonWriter builds one JSON document in a string: the daemon's Stats
/// reply and every pbt-bench report. It owns escaping, the
/// `"key": value` separator, the commas between members and empty
/// containers (`{}`, `[]`). A number prints to six significant digits
/// (%.6g), a non-finite one as null.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_SUPPORT_JSON_H
#define PBT_SUPPORT_JSON_H

#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pbt {
namespace support {

class JsonWriter {
public:
  enum class Layout {
    /// One line, members separated by ", ": the Stats reply, where
    /// perfbench finds a key by its first match of `"key": `.
    Compact,
    /// A report file: the members of the root and of its direct
    /// children one per line, indented two spaces per level; deeper
    /// containers on one line; a closing newline.
    Indented,
  };

  explicit JsonWriter(Layout Style) : Style(Style) {}

  /// Opens an object: the root, or an element of the innermost array.
  JsonWriter &beginObject();
  /// Opens an object or array member \p Key of the innermost object.
  JsonWriter &beginObject(std::string_view Key);
  JsonWriter &beginArray(std::string_view Key);
  /// Closes the innermost open object or array.
  JsonWriter &end();

  // Members of the innermost object.
  JsonWriter &string(std::string_view Key, std::string_view Value);
  JsonWriter &number(std::string_view Key, double Value);
  template <typename Int,
            typename = std::enable_if_t<std::is_integral_v<Int>>>
  JsonWriter &number(std::string_view Key, Int Value) {
    return raw(Key, std::to_string(Value));
  }
  JsonWriter &number(std::string_view Key, bool Value) = delete;
  JsonWriter &boolean(std::string_view Key, bool Value);
  /// \p Json, an already serialized value, copied as it is.
  JsonWriter &raw(std::string_view Key, std::string_view Json);

  /// The document; complete once every container is closed.
  const std::string &str() const { return Out; }

private:
  struct Container {
    char Close;
    bool Empty;
  };

  /// Writes the separator and indent that precede the next value.
  void next();
  /// next(), then `"Key": `.
  void key(std::string_view Key);
  void quote(std::string_view S);
  void open(char Bracket);
  /// Whether the container at \p Depth (0 = the root) puts each member
  /// on its own line.
  bool breaks(size_t Depth) const {
    return Style == Layout::Indented && Depth < 2;
  }

  Layout Style;
  std::string Out;
  std::vector<Container> Open;
};

} // namespace support
} // namespace pbt

#endif // PBT_SUPPORT_JSON_H
