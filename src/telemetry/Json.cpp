//===- telemetry/Json.cpp - Minimal JSON emission and parsing -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Json.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

using namespace gmdiv;
using namespace gmdiv::telemetry;

std::string json::escape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (const char C : S) {
    const unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (U < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

void json::Writer::beforeValue() {
  if (NeedComma.empty()) {
    assert(Out.empty() && "only one top-level value per document");
    return;
  }
  if (PendingKey) {
    PendingKey = false;
    return; // key() already wrote the comma and the colon follows it.
  }
  if (NeedComma.back())
    Out += ',';
  NeedComma.back() = true;
}

void json::Writer::beforeContainer() { beforeValue(); }

json::Writer &json::Writer::beginObject() {
  beforeContainer();
  Out += '{';
  NeedComma.push_back(false);
  return *this;
}

json::Writer &json::Writer::endObject() {
  assert(!NeedComma.empty() && !PendingKey && "unbalanced endObject");
  NeedComma.pop_back();
  Out += '}';
  return *this;
}

json::Writer &json::Writer::beginArray() {
  beforeContainer();
  Out += '[';
  NeedComma.push_back(false);
  return *this;
}

json::Writer &json::Writer::endArray() {
  assert(!NeedComma.empty() && !PendingKey && "unbalanced endArray");
  NeedComma.pop_back();
  Out += ']';
  return *this;
}

json::Writer &json::Writer::key(const std::string &K) {
  assert(!NeedComma.empty() && !PendingKey && "key() outside an object");
  if (NeedComma.back())
    Out += ',';
  NeedComma.back() = true;
  Out += '"';
  Out += escape(K);
  Out += "\":";
  PendingKey = true;
  return *this;
}

json::Writer &json::Writer::value(const std::string &V) {
  beforeValue();
  Out += '"';
  Out += escape(V);
  Out += '"';
  return *this;
}

json::Writer &json::Writer::value(const char *V) {
  return value(std::string(V));
}

json::Writer &json::Writer::value(uint64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

json::Writer &json::Writer::value(int64_t V) {
  beforeValue();
  Out += std::to_string(V);
  return *this;
}

json::Writer &json::Writer::value(double V) {
  beforeValue();
  if (!std::isfinite(V)) {
    Out += "null"; // JSON has no NaN/Inf.
    return *this;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  // %g may produce "1e+05" style output, which is valid JSON; bare "inf"
  // is excluded above.
  Out += Buf;
  return *this;
}

json::Writer &json::Writer::value(bool V) {
  beforeValue();
  Out += V ? "true" : "false";
  return *this;
}

json::Writer &json::Writer::null() {
  beforeValue();
  Out += "null";
  return *this;
}

std::string json::Writer::str() const {
  assert(NeedComma.empty() && !PendingKey && "unclosed container or key");
  return Out;
}

//===----------------------------------------------------------------------===//
// Value tree
//===----------------------------------------------------------------------===//

const json::Value *json::Value::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Member] : Obj)
    if (Name == Key)
      return &Member;
  return nullptr;
}

double json::Value::numberOr(const std::string &Key, double Default) const {
  const Value *Member = find(Key);
  return Member && Member->kind() == Kind::Number ? Member->asNumber()
                                                  : Default;
}

std::string json::Value::stringOr(const std::string &Key,
                                  const std::string &Default) const {
  const Value *Member = find(Key);
  return Member && Member->kind() == Kind::String ? Member->asString()
                                                  : Default;
}

json::Value json::Value::makeBool(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.Bool = B;
  return V;
}

json::Value json::Value::makeNumber(double N) {
  Value V;
  V.K = Kind::Number;
  V.Number = N;
  return V;
}

json::Value json::Value::makeString(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

json::Value json::Value::makeArray(std::vector<Value> A) {
  Value V;
  V.K = Kind::Array;
  V.Arr = std::move(A);
  return V;
}

json::Value
json::Value::makeObject(std::vector<std::pair<std::string, Value>> O) {
  Value V;
  V.K = Kind::Object;
  V.Obj = std::move(O);
  return V;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Containers nested deeper than this fail the parse: the parser is
/// recursive-descent, so the bound turns a potential stack overflow on
/// adversarial input ("[[[[...") into a clean rejection. 256 is far
/// beyond any document the project emits.
constexpr int MaxParseDepth = 256;

/// Recursive-descent parser building a Value tree: RFC 8259 grammar,
/// string unescaping (with UTF-16 surrogate pairing) and number
/// conversion.
class Parser {
public:
  Parser(const char *Begin, const char *End) : Cur(Begin), End(End) {}

  bool parseDocument(json::Value &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    return Cur == End;
  }

private:
  void skipWs() {
    while (Cur != End &&
           (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r'))
      ++Cur;
  }

  bool eat(char C) {
    if (Cur == End || *Cur != C)
      return false;
    ++Cur;
    return true;
  }

  bool parseLiteral(const char *Word) {
    for (; *Word; ++Word)
      if (!eat(*Word))
        return false;
    return true;
  }

  bool parseValue(json::Value &Out) {
    if (Cur == End)
      return false;
    switch (*Cur) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = json::Value::makeString(std::move(S));
      return true;
    }
    case 't':
      Out = json::Value::makeBool(true);
      return parseLiteral("true");
    case 'f':
      Out = json::Value::makeBool(false);
      return parseLiteral("false");
    case 'n':
      Out = json::Value::makeNull();
      return parseLiteral("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(json::Value &Out) {
    if (!eat('{') || ++Depth > MaxParseDepth)
      return false;
    std::vector<std::pair<std::string, json::Value>> Members;
    skipWs();
    if (eat('}')) {
      --Depth;
      Out = json::Value::makeObject(std::move(Members));
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      json::Value Member;
      if (!parseValue(Member))
        return false;
      Members.emplace_back(std::move(Key), std::move(Member));
      skipWs();
      if (eat('}')) {
        --Depth;
        Out = json::Value::makeObject(std::move(Members));
        return true;
      }
      if (!eat(','))
        return false;
    }
  }

  bool parseArray(json::Value &Out) {
    if (!eat('[') || ++Depth > MaxParseDepth)
      return false;
    std::vector<json::Value> Elements;
    skipWs();
    if (eat(']')) {
      --Depth;
      Out = json::Value::makeArray(std::move(Elements));
      return true;
    }
    while (true) {
      skipWs();
      json::Value Element;
      if (!parseValue(Element))
        return false;
      Elements.push_back(std::move(Element));
      skipWs();
      if (eat(']')) {
        --Depth;
        Out = json::Value::makeArray(std::move(Elements));
        return true;
      }
      if (!eat(','))
        return false;
    }
  }

  static int hexDigit(char C) {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  }

  bool parseHex4(uint32_t &Out) {
    Out = 0;
    for (int I = 0; I < 4; ++I, ++Cur) {
      if (Cur == End)
        return false;
      const int Digit = hexDigit(*Cur);
      if (Digit < 0)
        return false;
      Out = Out << 4 | static_cast<uint32_t>(Digit);
    }
    return true;
  }

  static void appendUtf8(std::string &Out, uint32_t Cp) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else if (Cp < 0x10000) {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Cp >> 18));
      Out += static_cast<char>(0x80 | ((Cp >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool parseString(std::string &Out) {
    if (!eat('"'))
      return false;
    Out.clear();
    while (Cur != End) {
      const unsigned char C = static_cast<unsigned char>(*Cur);
      if (C == '"') {
        ++Cur;
        return true;
      }
      if (C < 0x20)
        return false;
      if (C != '\\') {
        Out += static_cast<char>(C);
        ++Cur;
        continue;
      }
      ++Cur;
      if (Cur == End)
        return false;
      switch (*Cur) {
      case '"':
        Out += '"';
        ++Cur;
        break;
      case '\\':
        Out += '\\';
        ++Cur;
        break;
      case '/':
        Out += '/';
        ++Cur;
        break;
      case 'b':
        Out += '\b';
        ++Cur;
        break;
      case 'f':
        Out += '\f';
        ++Cur;
        break;
      case 'n':
        Out += '\n';
        ++Cur;
        break;
      case 'r':
        Out += '\r';
        ++Cur;
        break;
      case 't':
        Out += '\t';
        ++Cur;
        break;
      case 'u': {
        ++Cur;
        uint32_t Cp;
        if (!parseHex4(Cp))
          return false;
        if (Cp >= 0xDC00 && Cp <= 0xDFFF)
          return false; // Lone low surrogate.
        if (Cp >= 0xD800 && Cp <= 0xDBFF) {
          // High surrogate: a \uXXXX low surrogate must follow.
          if (!eat('\\') || !eat('u'))
            return false;
          uint32_t Low;
          if (!parseHex4(Low) || Low < 0xDC00 || Low > 0xDFFF)
            return false;
          Cp = 0x10000 + ((Cp - 0xD800) << 10) + (Low - 0xDC00);
        }
        appendUtf8(Out, Cp);
        break;
      }
      default:
        return false;
      }
    }
    return false; // Unterminated.
  }

  bool parseNumber(json::Value &Out) {
    const char *Start = Cur;
    eat('-');
    if (Cur == End)
      return false;
    if (*Cur == '0') {
      ++Cur;
    } else if (!parseDigits()) {
      return false;
    }
    if (Cur != End && *Cur == '.') {
      ++Cur;
      if (!parseDigits())
        return false;
    }
    if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
      ++Cur;
      if (Cur != End && (*Cur == '+' || *Cur == '-'))
        ++Cur;
      if (!parseDigits())
        return false;
    }
    Out = json::Value::makeNumber(
        std::strtod(std::string(Start, Cur).c_str(), nullptr));
    return true;
  }

  bool parseDigits() {
    if (Cur == End || *Cur < '0' || *Cur > '9')
      return false;
    while (Cur != End && *Cur >= '0' && *Cur <= '9')
      ++Cur;
    return true;
  }

  const char *Cur;
  const char *End;
  int Depth = 0;
};

} // namespace

bool json::parse(const std::string &Text, Value &Out) {
  Parser P(Text.data(), Text.data() + Text.size());
  return P.parseDocument(Out);
}

bool json::isValid(const std::string &Text) {
  Value Discarded;
  return parse(Text, Discarded);
}
