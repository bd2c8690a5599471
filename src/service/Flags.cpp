//===- Flags.cpp - The option vocabulary every front end shares -----------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Flags.h"

#include "interp/simd/SimdDispatch.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace mvec;

namespace {

/// Maps \p Name to the enumerator whose index it has in \p Names.
template <class E, size_t N>
bool lookup(const std::string &Name, const char *const (&Names)[N], E &Out) {
  for (size_t I = 0; I != N; ++I)
    if (Name == Names[I]) {
      Out = static_cast<E>(I);
      return true;
    }
  return false;
}

} // namespace

bool mvec::parseEngineMode(const std::string &Name, EngineMode &Out) {
  static const char *const Names[] = {"ast", "vm", "both"};
  return lookup(Name, Names, Out);
}

bool mvec::parseExecEngine(const std::string &Name, ExecEngine &Out) {
  EngineMode M;
  if (!parseEngineMode(Name, M) || M == EngineMode::Both)
    return false;
  Out = M == EngineMode::Vm ? ExecEngine::Vm : ExecEngine::Ast;
  return true;
}

bool mvec::parseCostMode(const std::string &Name, CostMode &Out) {
  static const char *const Names[] = {"off", "on", "both"};
  return lookup(Name, Names, Out);
}

bool mvec::parseNumber(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || !std::isdigit(static_cast<unsigned char>(Text[0])))
    return false;
  char *End = nullptr;
  errno = 0;
  Out = std::strtoull(Text.c_str(), &End, 10);
  return errno == 0 && *End == '\0';
}

bool mvec::parseNumber(const std::string &Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text.c_str(), &End);
  return End != Text.c_str() && *End == '\0' && Out >= 0;
}

std::unique_ptr<cost::CostModel>
mvec::loadCostModel(const std::string &ProfilePath,
                    const std::string &LogTag) {
  std::string Diag;
  auto Model = std::make_unique<cost::CostModel>(
      cost::loadCostProfileOrDefault(ProfilePath, Diag));
  if (!Diag.empty())
    std::fprintf(stderr, "%s: %s\n", LogTag.c_str(), Diag.c_str());
  return Model;
}

const char *FlagReader::value(const char *Name) {
  if (!is(Name))
    return nullptr;
  // A following `--flag` is the next option, not this one's value: taken
  // verbatim, `mvecd --store --print-config` would start a daemon on a
  // store directory named "--print-config".
  if (I + 1 == Argc || std::strncmp(Argv[I + 1], "--", 2) == 0) {
    std::fprintf(stderr, "error: %s requires a value\n", Name);
    std::exit(2);
  }
  return Argv[++I];
}

void FlagReader::require(bool Ok, const char *Name, const char *Value,
                         const std::string &Expected) const {
  if (Ok)
    return;
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", Name,
               Expected.c_str(), Value);
  std::exit(2);
}

bool FlagReader::read(const char *Name, std::string &Out) {
  const char *V = value(Name);
  if (V)
    Out = V;
  return V;
}

bool FlagReader::readNumber(const char *Name, uint64_t &Out, uint64_t Min,
                            uint64_t Max) {
  const char *V = value(Name);
  if (V)
    require(parseNumber(V, Out) && Out >= Min && Out <= Max, Name, V,
            "a whole number in [" + std::to_string(Min) + ", " +
                std::to_string(Max) + "]");
  return V;
}

bool FlagReader::read(const char *Name, double &Out) {
  const char *V = value(Name);
  if (V)
    require(parseNumber(V, Out), Name, V, "a non-negative number");
  return V;
}

bool FlagReader::read(const char *Name, std::chrono::milliseconds &Out) {
  unsigned Ms = 0;
  if (!read(Name, Ms))
    return false;
  Out = std::chrono::milliseconds(Ms);
  return true;
}

bool FlagReader::simd() { return simd::handleSimdFlag(Argc, Argv, I); }
