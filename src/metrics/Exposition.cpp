//===- metrics/Exposition.cpp - Prometheus / JSON snapshot writers --------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "metrics/Exposition.h"

#include "telemetry/Json.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

using namespace gmdiv;
using namespace gmdiv::metrics;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

namespace {

std::string escapeHelp(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

std::string formatValue(double V) {
  if (std::isnan(V))
    return "NaN";
  if (std::isinf(V))
    return V > 0 ? "+Inf" : "-Inf";
  // Counters and bucket counts are integers; print them as such.
  if (V == std::floor(V) && std::fabs(V) < 9.2e18) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, static_cast<int64_t>(V));
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// One sample line: name{labels} value. Extra label pairs (le) are
/// appended after the sample's own labels.
void writeLine(std::string &Out, const std::string &Name,
               const LabelSet &Labels, const LabelSet &Extra, double Value) {
  LabelSet All = Labels;
  All.insert(All.end(), Extra.begin(), Extra.end());
  Out += seriesKey(Name, All);
  Out += " ";
  Out += formatValue(Value);
  Out += "\n";
}

} // namespace

std::string gmdiv::metrics::prometheusText(const Snapshot &S) {
  std::string Out;
  for (const Family &F : S.Families) {
    if (!F.Help.empty())
      Out += "# HELP " + F.Name + " " + escapeHelp(F.Help) + "\n";
    Out += "# TYPE " + F.Name + " " + kindName(F.K) + "\n";
    for (const Sample &Sm : F.Samples) {
      switch (F.K) {
      case Kind::Counter:
      case Kind::Gauge:
        writeLine(Out, F.Name, Sm.Labels, {}, Sm.Value);
        break;
      case Kind::Histogram: {
        for (const auto &[Le, Cum] : Sm.CumulativeBuckets)
          writeLine(Out, F.Name + "_bucket", Sm.Labels,
                    {{"le", formatValue(Le)}}, static_cast<double>(Cum));
        writeLine(Out, F.Name + "_bucket", Sm.Labels, {{"le", "+Inf"}},
                  static_cast<double>(Sm.Count));
        writeLine(Out, F.Name + "_sum", Sm.Labels, {}, Sm.Sum);
        writeLine(Out, F.Name + "_count", Sm.Labels, {},
                  static_cast<double>(Sm.Count));
        break;
      }
      }
    }
  }
  return Out;
}

std::string gmdiv::metrics::snapshotJson(const Snapshot &S) {
  using telemetry::json::Writer;
  Writer W;
  W.beginObject()
      .key("gmdiv_metrics")
      .value(int64_t{1})
      .key("unix_ms")
      .value(S.UnixMs)
      .key("families")
      .beginArray();
  for (const Family &F : S.Families) {
    W.beginObject()
        .key("name")
        .value(F.Name)
        .key("kind")
        .value(kindName(F.K))
        .key("help")
        .value(F.Help)
        .key("samples")
        .beginArray();
    for (const Sample &Sm : F.Samples) {
      W.beginObject().key("labels").beginObject();
      for (const auto &[K, V] : Sm.Labels)
        W.key(K).value(V);
      W.endObject();
      switch (F.K) {
      case Kind::Counter:
      case Kind::Gauge:
        W.key("value").value(Sm.Value);
        break;
      case Kind::Histogram:
        W.key("buckets").beginArray();
        for (const auto &[Le, Cum] : Sm.CumulativeBuckets)
          W.beginArray().value(Le).value(Cum).endArray();
        W.endArray();
        W.key("sum").value(Sm.Sum).key("count").value(Sm.Count);
        break;
      }
      W.endObject();
    }
    W.endArray().endObject();
  }
  W.endArray().endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

bool isNameStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_' || C == ':';
}
bool isNameChar(char C) {
  return isNameStart(C) || std::isdigit(static_cast<unsigned char>(C));
}
bool isLabelStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool isLabelChar(char C) {
  return isLabelStart(C) || std::isdigit(static_cast<unsigned char>(C));
}

struct LineParser {
  const std::string &Line;
  size_t Pos = 0;

  explicit LineParser(const std::string &Line) : Line(Line) {}

  bool done() const { return Pos >= Line.size(); }
  char peek() const { return Pos < Line.size() ? Line[Pos] : '\0'; }
  void skipSpaces() {
    while (Pos < Line.size() && (Line[Pos] == ' ' || Line[Pos] == '\t'))
      ++Pos;
  }

  bool name(std::string &Out, bool Label) {
    if (done() || !(Label ? isLabelStart(peek()) : isNameStart(peek())))
      return false;
    const size_t Start = Pos;
    while (!done() && (Label ? isLabelChar(peek()) : isNameChar(peek())))
      ++Pos;
    Out = Line.substr(Start, Pos - Start);
    return true;
  }

  bool quotedValue(std::string &Out, std::string &Err) {
    if (peek() != '"') {
      Err = "expected '\"'";
      return false;
    }
    ++Pos;
    Out.clear();
    while (!done() && peek() != '"') {
      char C = Line[Pos++];
      if (C == '\\') {
        if (done()) {
          Err = "dangling escape in label value";
          return false;
        }
        char E = Line[Pos++];
        if (E == '\\')
          Out += '\\';
        else if (E == '"')
          Out += '"';
        else if (E == 'n')
          Out += '\n';
        else {
          Err = "invalid escape in label value";
          return false;
        }
      } else {
        Out += C;
      }
    }
    if (done()) {
      Err = "unterminated label value";
      return false;
    }
    ++Pos; // closing quote
    return true;
  }

  bool number(double &Out, std::string &Err) {
    const char *Start = Line.c_str() + Pos;
    char *End = nullptr;
    Out = std::strtod(Start, &End);
    if (End == Start) {
      Err = "expected a value";
      return false;
    }
    Pos += static_cast<size_t>(End - Start);
    return true;
  }
};

/// Per-family bookkeeping for HELP/TYPE ordering rules.
struct FamilyState {
  bool HasHelp = false;
  bool HasType = false;
  bool SawSample = false;
  std::string Type;
};

bool isKnownType(const std::string &T) {
  return T == "counter" || T == "gauge" || T == "histogram" ||
         T == "summary" || T == "untyped";
}

/// The family a sample name belongs to: the name itself when declared,
/// else the base of a _bucket/_sum/_count suffix whose base family is a
/// declared histogram or summary.
std::string familyOf(const std::string &Name,
                     const std::map<std::string, FamilyState> &Families) {
  if (Families.count(Name))
    return Name;
  for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
    const size_t Len = std::string(Suffix).size();
    if (Name.size() > Len &&
        Name.compare(Name.size() - Len, Len, Suffix) == 0) {
      const std::string Base = Name.substr(0, Name.size() - Len);
      auto Found = Families.find(Base);
      if (Found != Families.end() &&
          (Found->second.Type == "histogram" ||
           Found->second.Type == "summary" || !Found->second.HasType))
        return Base;
    }
  }
  return Name;
}

} // namespace

bool gmdiv::metrics::parsePrometheusText(const std::string &Text,
                                         std::vector<ParsedSample> &Out,
                                         std::string *Error) {
  Out.clear();
  std::map<std::string, FamilyState> Families;
  std::set<std::string> Series;

  size_t LineNo = 0;
  size_t Start = 0;
  auto fail = [&](const std::string &What) {
    if (Error)
      *Error = "line " + std::to_string(LineNo) + ": " + What;
    return false;
  };

  while (Start <= Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    const std::string Line = Text.substr(Start, End - Start);
    Start = End + 1;
    ++LineNo;
    if (Line.empty()) {
      if (Start > Text.size())
        break;
      continue;
    }

    LineParser P(Line);
    if (P.peek() == '#') {
      ++P.Pos;
      P.skipSpaces();
      std::string Keyword;
      const size_t Save = P.Pos;
      P.name(Keyword, /*Label=*/false);
      if (Keyword != "HELP" && Keyword != "TYPE") {
        // Any other comment is legal and ignored.
        continue;
      }
      P.Pos = Keyword.empty() ? Save : P.Pos;
      P.skipSpaces();
      std::string Name;
      if (!P.name(Name, /*Label=*/false))
        return fail("expected a metric name after # " + Keyword);
      FamilyState &F = Families[Name];
      if (F.SawSample)
        return fail("# " + Keyword + " for " + Name + " after its samples");
      P.skipSpaces();
      if (Keyword == "TYPE") {
        if (F.HasType)
          return fail("duplicate # TYPE for " + Name);
        std::string Type;
        if (!P.name(Type, /*Label=*/true) || !isKnownType(Type))
          return fail("unknown type for " + Name);
        F.HasType = true;
        F.Type = Type;
      } else {
        if (F.HasHelp)
          return fail("duplicate # HELP for " + Name);
        F.HasHelp = true; // Rest of line is free-form help text.
      }
      continue;
    }

    // Sample line: name [{labels}] value [timestamp]
    ParsedSample Sample;
    std::string Err;
    if (!P.name(Sample.Name, /*Label=*/false))
      return fail("expected a metric name");
    if (P.peek() == '{') {
      ++P.Pos;
      P.skipSpaces();
      while (P.peek() != '}') {
        std::string LabelName, LabelValue;
        if (!P.name(LabelName, /*Label=*/true))
          return fail("expected a label name");
        P.skipSpaces();
        if (P.peek() != '=')
          return fail("expected '=' after label " + LabelName);
        ++P.Pos;
        P.skipSpaces();
        if (!P.quotedValue(LabelValue, Err))
          return fail(Err);
        Sample.Labels.emplace_back(LabelName, LabelValue);
        P.skipSpaces();
        if (P.peek() == ',') {
          ++P.Pos;
          P.skipSpaces();
          continue; // Trailing comma before '}' is legal.
        }
        if (P.peek() != '}')
          return fail("expected ',' or '}' in label set");
      }
      ++P.Pos; // '}'
    }
    P.skipSpaces();
    if (!P.number(Sample.Value, Err))
      return fail(Err);
    P.skipSpaces();
    if (!P.done()) {
      // Optional timestamp: integer milliseconds.
      double Ts;
      if (!P.number(Ts, Err))
        return fail("trailing garbage after value");
      P.skipSpaces();
      if (!P.done())
        return fail("trailing garbage after timestamp");
    }

    // Series uniqueness, label order ignored.
    LabelSet Sorted = Sample.Labels;
    std::sort(Sorted.begin(), Sorted.end());
    const std::string Key = seriesKey(Sample.Name, Sorted);
    if (!Series.insert(Key).second)
      return fail("duplicate series " + Key);
    Families[familyOf(Sample.Name, Families)].SawSample = true;
    Out.push_back(std::move(Sample));
  }
  return true;
}

const ParsedSample *
gmdiv::metrics::findSample(const std::vector<ParsedSample> &Samples,
                           const std::string &Name, const LabelSet &Labels) {
  for (const ParsedSample &S : Samples) {
    if (S.Name != Name)
      continue;
    bool All = true;
    for (const auto &Want : Labels) {
      bool Found = false;
      for (const auto &Have : S.Labels)
        if (Have == Want) {
          Found = true;
          break;
        }
      if (!Found) {
        All = false;
        break;
      }
    }
    if (All)
      return &S;
  }
  return nullptr;
}
