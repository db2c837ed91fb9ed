//===- support/Json.cpp - One JSON writer for reports and Stats ----------===//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cmath>
#include <cstdio>

using namespace pbt::support;

void JsonWriter::next() {
  if (Open.empty())
    return; // the root
  size_t Depth = Open.size() - 1;
  bool First = Open.back().Empty;
  Open.back().Empty = false;
  if (breaks(Depth)) {
    Out += First ? "\n" : ",\n";
    Out.append(2 * (Depth + 1), ' ');
  } else if (!First) {
    Out += ", ";
  }
}

void JsonWriter::key(std::string_view Key) {
  assert(!Open.empty() && Open.back().Close == '}' &&
         "a keyed member belongs to an object");
  next();
  quote(Key);
  Out += ": ";
}

void JsonWriter::quote(std::string_view S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C == '\r') {
      Out += "\\r";
    } else if (C == '\t') {
      Out += "\\t";
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", static_cast<unsigned>(C));
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

void JsonWriter::open(char Bracket) {
  Out += Bracket;
  Open.push_back({Bracket == '{' ? '}' : ']', true});
}

JsonWriter &JsonWriter::beginObject() {
  assert((Open.empty() ? Out.empty() : Open.back().Close == ']') &&
         "an unkeyed object is the root or an array element");
  next();
  open('{');
  return *this;
}

JsonWriter &JsonWriter::beginObject(std::string_view Key) {
  key(Key);
  open('{');
  return *this;
}

JsonWriter &JsonWriter::beginArray(std::string_view Key) {
  key(Key);
  open('[');
  return *this;
}

JsonWriter &JsonWriter::end() {
  assert(!Open.empty() && "end() without an open container");
  Container C = Open.back();
  Open.pop_back();
  if (!C.Empty && breaks(Open.size())) {
    Out += '\n';
    Out.append(2 * Open.size(), ' ');
  }
  Out += C.Close;
  if (Open.empty() && Style == Layout::Indented)
    Out += '\n';
  return *this;
}

JsonWriter &JsonWriter::string(std::string_view Key, std::string_view Value) {
  key(Key);
  quote(Value);
  return *this;
}

JsonWriter &JsonWriter::number(std::string_view Key, double Value) {
  if (!std::isfinite(Value))
    return raw(Key, "null");
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return raw(Key, Buf);
}

JsonWriter &JsonWriter::boolean(std::string_view Key, bool Value) {
  return raw(Key, Value ? "true" : "false");
}

JsonWriter &JsonWriter::raw(std::string_view Key, std::string_view Json) {
  key(Key);
  Out += Json;
  return *this;
}
