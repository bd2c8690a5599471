//===- Flags.h - The option vocabulary every front end shares ---*- C++ -*-===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option spellings mvec's front ends share, declared once: engine and
/// cost-model names, number syntax, the cost-profile loader, and
/// FlagReader, every tool's command-line reader. Daemon config keys
/// (daemon/Config.h) validate with the same functions.
///
//===----------------------------------------------------------------------===//

#ifndef MVEC_SERVICE_FLAGS_H
#define MVEC_SERVICE_FLAGS_H

#include "cost/CostModel.h"
#include "driver/Pipeline.h"

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>

namespace mvec {

/// Which tier(s) validate: "ast" or "vm" runs the differential on one;
/// "both" also cross-checks the two for byte identity (engineDiffRun()).
enum class EngineMode { Ast, Vm, Both };

/// Whether the cost model participates: "off" vectorizes whenever legal
/// (the paper), "on" consults the model, "both" runs each job both ways
/// and demands identical behaviour.
enum class CostMode { Off, On, Both };

/// Name-to-value maps; false on any other spelling. parseExecEngine
/// takes the single-tier names only.
bool parseEngineMode(const std::string &Name, EngineMode &Out);
bool parseExecEngine(const std::string &Name, ExecEngine &Out);
bool parseCostMode(const std::string &Name, CostMode &Out);

/// A whole decimal number: digits only (no sign, space or suffix) that
/// fit in 64 bits.
bool parseNumber(const std::string &Text, uint64_t &Out);
/// A non-negative decimal number consumed to the end of \p Text.
bool parseNumber(const std::string &Text, double &Out);

/// The cost model \p ProfilePath calibrates (built-in defaults when
/// empty); a profile that fails to load falls back to the defaults with a
/// diagnostic on stderr prefixed by \p LogTag.
std::unique_ptr<cost::CostModel> loadCostModel(const std::string &ProfilePath,
                                               const std::string &LogTag);

/// Walks argv in the idiom of simd::handleSimdFlag: each reader returns
/// false when the current argument is not its flag, and otherwise
/// consumes `FLAG VALUE`. A missing, malformed or out-of-range VALUE
/// (another `--flag` in its place counts as missing) prints a diagnostic
/// and exits 2, the tools' usage-error status.
class FlagReader {
public:
  FlagReader(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Steps to the next argument; false past the last one.
  bool next() { return ++I < Argc; }
  std::string arg() const { return Argv[I]; }
  bool is(const char *Name) const { return arg() == Name; }
  /// The switch \p Name: sets \p Out to \p Value.
  bool flag(const char *Name, bool &Out, bool Value = true) {
    if (is(Name))
      Out = Value;
    return is(Name);
  }

  /// `Name VALUE`, VALUE taken verbatim.
  bool read(const char *Name, std::string &Out);
  /// `Name N` for an unsigned integer field: N is a whole decimal number
  /// in [Min, Max] (Max at most T's maximum).
  template <class T>
  bool read(const char *Name, T &Out, uint64_t Min = 0,
            uint64_t Max = std::numeric_limits<T>::max()) {
    static_assert(std::is_unsigned_v<T>, "FlagReader reads unsigned fields");
    uint64_t V = 0;
    if (!readNumber(Name, V, Min, Max))
      return false;
    Out = static_cast<T>(V);
    return true;
  }
  /// `Name X`, X a non-negative decimal number.
  bool read(const char *Name, double &Out);
  /// `Name MS`, a whole number of milliseconds (at most UINT_MAX).
  bool read(const char *Name, std::chrono::milliseconds &Out);

  /// `--engine ast|vm|both`; the ExecEngine form takes ast|vm only.
  bool engine(EngineMode &Out) {
    return choice("--engine", Out, parseEngineMode, "ast|vm|both");
  }
  bool engine(ExecEngine &Out) {
    return choice("--engine", Out, parseExecEngine, "ast|vm");
  }
  /// `--cost-model off|on|both`.
  bool costModel(CostMode &Out) {
    return choice("--cost-model", Out, parseCostMode, "off|on|both");
  }
  bool costProfile(std::string &Out) { return read("--cost-profile", Out); }
  /// `--simd LEVEL` / `--simd=LEVEL` (simd::handleSimdFlag).
  bool simd();

private:
  /// The value after \p Name, or null when the current argument is not
  /// \p Name. A missing value, or a next argument starting with `--`,
  /// exits 2.
  const char *value(const char *Name);
  /// Exits 2 with a diagnostic unless \p Ok.
  void require(bool Ok, const char *Name, const char *Value,
               const std::string &Expected) const;
  bool readNumber(const char *Name, uint64_t &Out, uint64_t Min,
                  uint64_t Max);
  /// `Name VALUE`, VALUE a spelling \p Parse accepts.
  template <class T>
  bool choice(const char *Name, T &Out,
              bool (*Parse)(const std::string &, T &), const char *Expected) {
    const char *V = value(Name);
    if (V)
      require(Parse(V, Out), Name, V, Expected);
    return V;
  }

  int Argc;
  char **Argv;
  int I = 0;
};

} // namespace mvec

#endif // MVEC_SERVICE_FLAGS_H
