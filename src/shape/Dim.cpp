//===- Dim.cpp - Abstract dimensionality ----------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "shape/Dim.h"

#include <algorithm>

using namespace mvec;

std::string DimSymbol::str() const {
  switch (TheKind) {
  case Kind::One:
    return "1";
  case Kind::Star:
    return "*";
  case Kind::Range: {
    std::string Out = "r";
    Out += std::to_string(Loop);
    return Out;
  }
  }
  return "?";
}

Dimensionality::Dimensionality(std::initializer_list<DimSymbol> Init)
    : Symbols(Init) {
  padToTwo();
}

Dimensionality::Dimensionality(std::vector<DimSymbol> Init)
    : Symbols(std::move(Init)) {
  padToTwo();
}

void Dimensionality::padToTwo() {
  while (Symbols.size() < 2)
    Symbols.push_back(DimSymbol::one());
}

Dimensionality Dimensionality::reduced() const {
  std::vector<DimSymbol> Result = Symbols;
  while (!Result.empty() && Result.back().isOne())
    Result.pop_back();
  Dimensionality D;
  D.Symbols = std::move(Result); // may be shorter than two: reduced form
  return D;
}

Dimensionality Dimensionality::reversed() const {
  Dimensionality D;
  D.Symbols.assign(Symbols.rbegin(), Symbols.rend());
  return D;
}

std::optional<DimSymbol> Dimensionality::fmax() const {
  DimSymbol Max = DimSymbol::one();
  unsigned NumLarge = 0;
  for (DimSymbol S : Symbols) {
    if (!S.isGreaterThanOne())
      continue;
    ++NumLarge;
    Max = S;
  }
  if (NumLarge > 1)
    return std::nullopt;
  return Max;
}

bool Dimensionality::isScalarShape() const {
  return std::all_of(Symbols.begin(), Symbols.end(),
                     [](DimSymbol S) { return S.isOne(); });
}

bool Dimensionality::isVectorShape() const {
  unsigned NumLarge = 0;
  for (DimSymbol S : Symbols)
    if (S.isGreaterThanOne())
      ++NumLarge;
  return NumLarge <= 1;
}

bool Dimensionality::isMatrixShape() const { return !isVectorShape(); }

bool Dimensionality::containsRange(LoopId Loop) const {
  return std::any_of(Symbols.begin(), Symbols.end(), [Loop](DimSymbol S) {
    return S.isRange() && S.loop() == Loop;
  });
}

bool Dimensionality::containsAnyRange() const {
  return std::any_of(Symbols.begin(), Symbols.end(),
                     [](DimSymbol S) { return S.isRange(); });
}

std::string Dimensionality::str() const {
  std::string Out = "(";
  for (size_t I = 0; I != Symbols.size(); ++I) {
    if (I != 0)
      Out += ',';
    Out += Symbols[I].str();
  }
  Out += ')';
  return Out;
}

bool mvec::compatible(const Dimensionality &A, const Dimensionality &B) {
  return A.reduced() == B.reduced();
}
