//===- telemetry/Json.h - Minimal JSON emission and parsing -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dependency-free JSON helpers for the telemetry layer: string escaping
/// per RFC 8259, a small single-line writer that produces well-formed
/// documents by construction, and a strict parser so tests
/// can round-trip every emitted remark, stats dump and bench report
/// without an external JSON library.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_TELEMETRY_JSON_H
#define GMDIV_TELEMETRY_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace gmdiv {
namespace telemetry {
namespace json {

/// Escapes \p S for inclusion inside a JSON string literal (quotes not
/// included): ", \, and control characters below 0x20 are encoded;
/// everything else (including multi-byte UTF-8) passes through.
std::string escape(const std::string &S);

/// Builds a single-line JSON document. Usage mirrors the document
/// structure:
///   Writer W;
///   W.beginObject().key("d").value(int64_t{7}).key("m").value("0x9249")
///    .endObject();
///   std::string Doc = W.str();
/// The writer asserts on misuse (value without key inside an object,
/// unbalanced begin/end), so any string it returns is valid JSON.
class Writer {
public:
  Writer &beginObject();
  Writer &endObject();
  Writer &beginArray();
  Writer &endArray();
  Writer &key(const std::string &K);
  Writer &value(const std::string &V);
  Writer &value(const char *V);
  Writer &value(uint64_t V);
  Writer &value(int64_t V);
  Writer &value(int V) { return value(static_cast<int64_t>(V)); }
  Writer &value(double V);
  Writer &value(bool V);
  Writer &null();

  /// The finished document. All containers must be closed.
  std::string str() const;

private:
  void beforeValue();
  void beforeContainer();

  std::string Out;
  /// One entry per open container: true once the first element has been
  /// written (i.e. the next element needs a comma).
  std::vector<bool> NeedComma;
  bool PendingKey = false;
};

/// A parsed JSON value. The tree is plain data: objects keep insertion
/// order (bench reports are diffed in order), numbers are doubles
/// (every value the telemetry layer emits fits), strings are unescaped
/// UTF-8. Built by parse(); accessors return safe defaults on a kind
/// mismatch so report readers can probe optional fields without
/// exploding on hand-edited files.
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool asBool() const { return K == Kind::Bool && Bool; }
  double asNumber() const { return K == Kind::Number ? Number : 0.0; }
  const std::string &asString() const {
    static const std::string Empty;
    return K == Kind::String ? Str : Empty;
  }
  const std::vector<Value> &array() const {
    static const std::vector<Value> Empty;
    return K == Kind::Array ? Arr : Empty;
  }
  const std::vector<std::pair<std::string, Value>> &object() const {
    static const std::vector<std::pair<std::string, Value>> Empty;
    return K == Kind::Object ? Obj : Empty;
  }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value *find(const std::string &Key) const;

  /// Numeric member with a default — the idiom for optional stats.
  double numberOr(const std::string &Key, double Default) const;

  /// String member with a default.
  std::string stringOr(const std::string &Key,
                       const std::string &Default) const;

  /// Construction is internal to the parser but public for tests.
  static Value makeNull() { return Value(); }
  static Value makeBool(bool B);
  static Value makeNumber(double N);
  static Value makeString(std::string S);
  static Value makeArray(std::vector<Value> A);
  static Value makeObject(std::vector<std::pair<std::string, Value>> O);

private:
  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Strict parse of one JSON document (object, array, or any other
/// value) with nothing but whitespace around it into a Value tree.
/// Returns true iff \p Text is well-formed per RFC 8259 and its \u
/// escapes form valid UTF-16 (surrogates correctly paired). Containers
/// nested deeper than 256 levels are rejected: the parser is
/// recursive-descent, and the bound keeps adversarial "[[[[..." inputs
/// from overflowing the stack.
bool parse(const std::string &Text, Value &Out);

/// True iff parse() accepts \p Text.
bool isValid(const std::string &Text);

} // namespace json
} // namespace telemetry
} // namespace gmdiv

#endif // GMDIV_TELEMETRY_JSON_H
