//===- DimChecker.cpp - Vectorized dimensionality checking ------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vectorizer/DimChecker.h"

#include "cost/CostModel.h"
#include "frontend/ASTUtils.h"
#include "interp/Builtins.h"

#include <algorithm>
#include <bit>
#include <cmath>

using namespace mvec;

namespace {

bool containsStar(const Dimensionality &D) {
  for (DimSymbol S : D.symbols())
    if (S.isStar())
      return true;
  return false;
}

/// First position of range \p Loop in \p D, or -1.
int rangePosition(const Dimensionality &D, LoopId Loop) {
  for (size_t I = 0; I != D.size(); ++I)
    if (D[I].isRange() && D[I].loop() == Loop)
      return static_cast<int>(I);
  return -1;
}

/// A range symbol occurring more than once (the diagonal-access case).
std::optional<LoopId> duplicatedRange(const Dimensionality &D) {
  for (size_t I = 0; I != D.size(); ++I) {
    if (!D[I].isRange())
      continue;
    for (size_t J = I + 1; J != D.size(); ++J)
      if (D[J] == D[I])
        return D[I].loop();
  }
  return std::nullopt;
}

std::string dimsMismatch(const Dimensionality &A, const Dimensionality &B) {
  return A.str() + " vs " + B.str();
}

} // namespace

DimChecker::DimChecker(const LoopNest &Nest, unsigned Level, unsigned MaxLevel,
                       const ShapeEnv &Env, const PatternDatabase &DB,
                       const VectorizerOptions &Opts, DimCheckMemo *Memo)
    : Nest(Nest), Level(Level), MaxLevel(MaxLevel), Env(Env), DB(DB),
      Opts(Opts), Memo(Memo) {}

uint32_t DimCheckMemo::levelsMask(const Expr &E) {
  auto It = Masks.find(&E);
  if (It != Masks.end())
    return It->second;
  uint32_t M = 0;
  switch (E.kind()) {
  case Expr::Kind::Number:
  case Expr::Kind::String:
  case Expr::Kind::MagicColon:
  case Expr::Kind::EndKeyword:
    break;
  case Expr::Kind::Ident: {
    Symbol S = cast<IdentExpr>(E).sym();
    for (size_t I = 0; I != LevelSyms.size() && I < 32; ++I)
      if (LevelSyms[I] == S) {
        M = 1u << I;
        break;
      }
    break;
  }
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    M = levelsMask(*R.start()) | levelsMask(*R.stop());
    if (R.step())
      M |= levelsMask(*R.step());
    break;
  }
  case Expr::Kind::Unary:
    M = levelsMask(*cast<UnaryExpr>(E).operand());
    break;
  case Expr::Kind::Binary: {
    const auto &B = cast<BinaryExpr>(E);
    M = levelsMask(*B.lhs()) | levelsMask(*B.rhs());
    break;
  }
  case Expr::Kind::Transpose:
    M = levelsMask(*cast<TransposeExpr>(E).operand());
    break;
  case Expr::Kind::Index: {
    const auto &I = cast<IndexExpr>(E);
    M = levelsMask(*I.base());
    for (unsigned A = 0, N = I.numArgs(); A != N; ++A)
      M |= levelsMask(*I.arg(A));
    break;
  }
  case Expr::Kind::Matrix:
    for (const auto &Row : cast<MatrixExpr>(E).rows())
      for (const ExprPtr &Elt : Row)
        M |= levelsMask(*Elt);
    break;
  }
  Masks.emplace(&E, M);
  return M;
}

unsigned DimCheckMemo::suffixKey(const Expr &E, unsigned Level) {
  uint32_t M = levelsMask(E);
  if (Level > 1)
    M &= Level > 32 ? 0u : ~((1u << (Level - 1)) - 1);
  if (!M)
    return 0;
  return static_cast<unsigned>(std::countr_zero(M)) + 1;
}

std::optional<LoopId> DimChecker::vectorizedLoop(Symbol Name) const {
  for (unsigned L = Level; L <= MaxLevel && L <= Nest.Loops.size(); ++L)
    if (Nest.Loops[L - 1].IndexSym == Name)
      return Nest.Loops[L - 1].Id;
  return std::nullopt;
}

bool DimChecker::isSequentialLoopVar(Symbol Name) const {
  for (unsigned L = 1; L <= Nest.Loops.size(); ++L) {
    if (L >= Level && L <= MaxLevel)
      continue;
    if (Nest.Loops[L - 1].IndexSym == Name)
      return true;
  }
  return false;
}

PatternContext
DimChecker::patternContext(const PatternBindings &Bindings) const {
  PatternContext Ctx;
  Ctx.Nest = &Nest;
  Ctx.Bindings = Bindings;
  return Ctx;
}

bool DimChecker::rhoConsistent(const CheckedExpr &L,
                               const CheckedExpr &R) const {
  for (LoopId Loop : L.Rho)
    if (R.Dims.containsRange(Loop))
      return false;
  for (LoopId Loop : R.Rho)
    if (L.Dims.containsRange(Loop))
      return false;
  return true;
}

CheckedExpr DimChecker::gammaReduce(CheckedExpr E, LoopId Loop) {
  int Pos = rangePosition(E.Dims, Loop);
  if (Pos >= 0) {
    std::vector<ExprPtr> Args;
    Args.push_back(std::move(E.E));
    Args.push_back(makeNumber(Pos + 1));
    E.E = makeCall("sum", std::move(Args));
    E.Dims.set(Pos, DimSymbol::one());
  } else {
    const LoopHeader *H = headerOf(Loop);
    assert(H && "reducing an unknown loop");
    E.E = makeBinary(BinaryOp::Mul, H->makeTripCountExpr(), std::move(E.E));
  }
  E.Rho.insert(Loop);
  return E;
}

//===----------------------------------------------------------------------===//
// Statement-level checking
//===----------------------------------------------------------------------===//

const Expr *DimChecker::matchAdditiveReduction(const AssignStmt &S,
                                               bool &IsSub) {
  const auto *B = dyn_cast<BinaryExpr>(S.rhs());
  if (!B)
    return nullptr;
  if (B->op() == BinaryOp::Add) {
    IsSub = false;
    if (exprEquals(*S.lhs(), *B->lhs()))
      return B->rhs();
    if (exprEquals(*S.lhs(), *B->rhs()))
      return B->lhs();
    return nullptr;
  }
  if (B->op() == BinaryOp::Sub) {
    IsSub = true;
    if (exprEquals(*S.lhs(), *B->lhs()))
      return B->rhs();
  }
  return nullptr;
}

std::optional<CheckedStmt>
DimChecker::checkStatement(const AssignStmt &S,
                           const std::set<LoopId> &RV) {
  Failure.clear();
  ReductionLoops.clear();

  if (RV.empty()) {
    auto R = check(*S.rhs());
    if (!R)
      return std::nullopt;
    auto L = checkLValue(*S.lhs());
    if (!L)
      return std::nullopt;
    if (!compatible(L->Dims, R->Dims) && !R->Dims.isScalarShape()) {
      if (Opts.EnableTransposes &&
          compatible(L->Dims, R->Dims.reversed())) {
        R->E = makeTranspose(std::move(R->E));
      } else {
        fail("assignment dimensionalities are incompatible: " +
             dimsMismatch(L->Dims, R->Dims));
        return std::nullopt;
      }
    }
    return CheckedStmt{std::move(L->E), std::move(R->E)};
  }

  // --- Additive reduction: A(J) = A(J) +/- E (Sec. 3.1).
  bool IsSub = false;
  const Expr *E = matchAdditiveReduction(S, IsSub);
  if (!E) {
    fail("statement is not an additive reduction");
    return std::nullopt;
  }
  auto L = checkLValue(*S.lhs());
  if (!L)
    return std::nullopt;

  ReductionLoops = RV;
  auto CE = check(*E);
  ReductionLoops.clear();
  if (!CE)
    return std::nullopt;

  // Apply Gamma to any reduction variable not yet consumed, outermost
  // first.
  for (const LoopHeader &H : Nest.Loops)
    if (RV.count(H.Id) && !CE->Rho.count(H.Id))
      *CE = gammaReduce(std::move(*CE), H.Id);
  if (CE->Rho != RV) {
    fail("reduced-variable set mismatch in reduction statement");
    return std::nullopt;
  }

  if (!compatible(L->Dims, CE->Dims) && !CE->Dims.isScalarShape()) {
    if (Opts.EnableTransposes && compatible(L->Dims, CE->Dims.reversed())) {
      CE->E = makeTranspose(std::move(CE->E));
    } else {
      fail("reduction dimensionalities are incompatible: " +
           dimsMismatch(L->Dims, CE->Dims));
      return std::nullopt;
    }
  }

  ExprPtr AccumRead = L->E->clone();
  ExprPtr NewRHS =
      makeBinary(IsSub ? BinaryOp::Sub : BinaryOp::Add, std::move(AccumRead),
                 std::move(CE->E));
  return CheckedStmt{std::move(L->E), std::move(NewRHS)};
}

std::optional<CheckedExpr> DimChecker::checkLValue(const Expr &E) {
  if (const auto *Ident = dyn_cast<IdentExpr>(&E)) {
    auto Shape = Env.getShape(Ident->name());
    if (!Shape)
      return fail("unknown shape for assignment target '" + Ident->name() +
                  "'");
    CheckedExpr C;
    C.E = E.clone();
    C.Dims = *Shape;
    return C;
  }
  if (const auto *Index = dyn_cast<IndexExpr>(&E))
    return checkIndex(*Index);
  return fail("unsupported assignment target");
}

std::optional<CheckedExpr> DimChecker::checkExpr(const Expr &E) {
  Failure.clear();
  return check(E);
}

//===----------------------------------------------------------------------===//
// Expression checking (Table 1 rules)
//===----------------------------------------------------------------------===//

std::optional<CheckedExpr> DimChecker::check(const Expr &E) {
  // Every recursive step funnels through here, so one counter bounds the
  // whole traversal (including the memoized fast path, whose clone() of a
  // cached subtree still recurses over the result).
  if (Depth >= MaxCheckDepth)
    return fail("expression nesting exceeds the vectorizer depth limit");
  ++Depth;
  struct DepthGuard {
    unsigned &D;
    ~DepthGuard() { --D; }
  } Guard{Depth};

  // Reduction checks thread gamma/rho state through the recursion; their
  // results are not a function of (node, level window) alone.
  if (!Memo || !ReductionLoops.empty())
    return checkImpl(E);

  unsigned Key = Memo->suffixKey(E, Level);
  auto It = Memo->Cache.find({&E, Key});
  if (It != Memo->Cache.end()) {
    const DimCheckMemo::Entry &Ent = It->second;
    if (!Ent.FailureDelta.empty())
      fail(Ent.FailureDelta);
    if (!Ent.Result)
      return std::nullopt;
    return Ent.Result->clone();
  }

  // Compute against a clean failure slot so the entry captures exactly the
  // diagnostics this subtree produces; fail()'s first-wins rule is then
  // reapplied against the caller's saved state.
  std::string Saved = std::move(Failure);
  Failure.clear();
  std::optional<CheckedExpr> R = checkImpl(E);
  DimCheckMemo::Entry Ent;
  Ent.FailureDelta = Failure;
  if (R)
    Ent.Result = R->clone();
  Memo->Cache.emplace(std::make_pair(&E, Key), std::move(Ent));
  if (!Saved.empty())
    Failure = std::move(Saved);
  return R;
}

std::optional<CheckedExpr> DimChecker::checkImpl(const Expr &E) {
  switch (E.kind()) {
  case Expr::Kind::Number: {
    CheckedExpr C;
    C.E = E.clone();
    C.Dims = Dimensionality::scalar();
    return C;
  }
  case Expr::Kind::String:
    return fail("string literals are not vectorizable");
  case Expr::Kind::Ident: {
    static const Symbol PiSym = internSymbol("pi");
    Symbol Name = cast<IdentExpr>(E).sym();
    CheckedExpr C;
    C.E = E.clone();
    if (auto Loop = vectorizedLoop(Name)) {
      C.Dims = Dimensionality{DimSymbol::one(), DimSymbol::range(*Loop)};
      return C;
    }
    if (isSequentialLoopVar(Name) || Name == PiSym) {
      C.Dims = Dimensionality::scalar();
      return C;
    }
    if (auto Shape = Env.getShape(Name.str())) {
      C.Dims = *Shape;
      return C;
    }
    return fail("unknown shape for variable '" + Name.str() + "'");
  }
  case Expr::Kind::MagicColon:
    return fail("':' outside of a subscript");
  case Expr::Kind::EndKeyword: {
    CheckedExpr C;
    C.E = E.clone();
    C.Dims = Dimensionality::scalar();
    return C;
  }
  case Expr::Kind::Range: {
    const auto &R = cast<RangeExpr>(E);
    auto Start = check(*R.start());
    if (!Start)
      return std::nullopt;
    std::optional<CheckedExpr> Step;
    if (R.step()) {
      Step = check(*R.step());
      if (!Step)
        return std::nullopt;
    }
    auto Stop = check(*R.stop());
    if (!Stop)
      return std::nullopt;
    if (!Start->Dims.isScalarShape() || !Stop->Dims.isScalarShape() ||
        (Step && !Step->Dims.isScalarShape()))
      return fail("range endpoints must stay scalar under vectorization");
    CheckedExpr C;
    C.E = makeRange(std::move(Start->E),
                    Step ? std::move(Step->E) : nullptr, std::move(Stop->E));
    C.Dims = Dimensionality::rowVector();
    return C;
  }
  case Expr::Kind::Unary: {
    const auto &U = cast<UnaryExpr>(E);
    auto Operand = check(*U.operand());
    if (!Operand)
      return std::nullopt;
    CheckedExpr C;
    C.E = makeUnary(U.op(), std::move(Operand->E));
    C.Dims = Operand->Dims;
    C.Rho = Operand->Rho;
    return C;
  }
  case Expr::Kind::Binary:
    return checkBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Transpose: {
    auto Operand = check(*cast<TransposeExpr>(E).operand());
    if (!Operand)
      return std::nullopt;
    CheckedExpr C;
    C.E = makeTranspose(std::move(Operand->E));
    C.Dims = Operand->Dims.reversed();
    C.Rho = Operand->Rho;
    return C;
  }
  case Expr::Kind::Index:
    return checkIndex(cast<IndexExpr>(E));
  case Expr::Kind::Matrix:
    return fail("matrix literals are not vectorizable");
  }
  return fail("unsupported expression");
}

std::optional<CheckedExpr> DimChecker::checkBinary(const BinaryExpr &E) {
  BinaryOp Op = E.op();

  if (Op == BinaryOp::AndAnd || Op == BinaryOp::OrOr) {
    auto L = check(*E.lhs());
    auto R = check(*E.rhs());
    if (!L || !R)
      return std::nullopt;
    if (!L->Dims.isScalarShape() || !R->Dims.isScalarShape())
      return fail("short-circuit operators require scalar operands");
    CheckedExpr C;
    C.E = makeBinary(Op, std::move(L->E), std::move(R->E));
    C.Dims = Dimensionality::scalar();
    return C;
  }

  if (Op == BinaryOp::Mul)
    return checkMulChain(E);

  auto L = check(*E.lhs());
  if (!L)
    return std::nullopt;
  auto R = check(*E.rhs());
  if (!R)
    return std::nullopt;

  if (Op == BinaryOp::Add || Op == BinaryOp::Sub) {
    // Synchronize reduced-variable sets with Gamma (Sec. 3.1).
    for (LoopId Loop : std::set<LoopId>(R->Rho))
      if (!L->Rho.count(Loop))
        *L = gammaReduce(std::move(*L), Loop);
    for (LoopId Loop : std::set<LoopId>(L->Rho))
      if (!R->Rho.count(Loop))
        *R = gammaReduce(std::move(*R), Loop);
    if (ReductionLoops.empty())
      return combinePointwise(Op, std::move(*L), std::move(*R));

    // In a reduction context, Gamma is applied selectively wherever it
    // makes operands consistent (Sec. 3.1): when the sides carry
    // different reduction ranges (v(i) + w(j) under reduction of both i
    // and j), reduce those ranges out of both sides and retry.
    auto First = combinePointwise(Op, L->clone(), R->clone());
    if (First)
      return First;
    Failure.clear();
    for (const LoopHeader &H : Nest.Loops) {
      if (!ReductionLoops.count(H.Id))
        continue;
      bool InL = L->Dims.containsRange(H.Id);
      bool InR = R->Dims.containsRange(H.Id);
      if (!InL && !InR)
        continue;
      if (!L->Rho.count(H.Id))
        *L = gammaReduce(std::move(*L), H.Id);
      if (!R->Rho.count(H.Id))
        *R = gammaReduce(std::move(*R), H.Id);
    }
    return combinePointwise(Op, std::move(*L), std::move(*R));
  }

  if (Op == BinaryOp::Div) {
    if (!rhoConsistent(*L, *R))
      return fail("reduced variables appear in the other '/' operand");
    if (R->Dims.isScalarShape()) {
      CheckedExpr C;
      C.Dims = L->Dims;
      C.Rho = L->Rho;
      for (LoopId Loop : R->Rho)
        C.Rho.insert(Loop);
      C.E = makeBinary(Op, std::move(L->E), std::move(R->E));
      return C;
    }
    if (!containsStar(L->Dims) && !containsStar(R->Dims))
      return combinePointwise(BinaryOp::DotDiv, std::move(*L),
                              std::move(*R));
    return fail("matrix division is not vectorizable");
  }

  if (Op == BinaryOp::Pow) {
    if (L->Dims.isScalarShape() && R->Dims.isScalarShape()) {
      CheckedExpr C;
      C.Dims = Dimensionality::scalar();
      C.E = makeBinary(Op, std::move(L->E), std::move(R->E));
      return C;
    }
    if (!containsStar(L->Dims) && !containsStar(R->Dims))
      return combinePointwise(BinaryOp::DotPow, std::move(*L),
                              std::move(*R));
    return fail("matrix power is not vectorizable");
  }

  // Pointwise arithmetic, comparisons and elementwise logic.
  if (!rhoConsistent(*L, *R))
    return fail("reduced variables appear in the other operand");
  return combinePointwise(Op, std::move(*L), std::move(*R));
}

std::optional<CheckedExpr> DimChecker::combinePointwise(BinaryOp Op,
                                                        CheckedExpr L,
                                                        CheckedExpr R) {
  if (!rhoConsistent(L, R))
    return fail("reduced variables appear in the other operand");
  std::set<LoopId> Rho = L.Rho;
  Rho.insert(R.Rho.begin(), R.Rho.end());

  auto Finish = [&Rho](ExprPtr E, Dimensionality Dims) {
    CheckedExpr C;
    C.E = std::move(E);
    C.Dims = std::move(Dims);
    C.Rho = std::move(Rho);
    return C;
  };

  // Scalar operands are compatible with anything (Sec. 2.1 rules 2/3).
  if (L.Dims.isScalarShape())
    return Finish(makeBinary(Op, std::move(L.E), std::move(R.E)), R.Dims);
  if (R.Dims.isScalarShape())
    return Finish(makeBinary(Op, std::move(L.E), std::move(R.E)), L.Dims);

  if (compatible(L.Dims, R.Dims))
    return Finish(makeBinary(Op, std::move(L.E), std::move(R.E)), L.Dims);

  if (Opts.EnableTransposes) {
    if (compatible(L.Dims, R.Dims.reversed()))
      return Finish(makeBinary(Op, std::move(L.E),
                               makeTranspose(std::move(R.E))),
                    L.Dims);
    if (compatible(L.Dims.reversed(), R.Dims))
      return Finish(makeBinary(Op, makeTranspose(std::move(L.E)),
                               std::move(R.E)),
                    R.Dims);
  }

  if (Opts.EnablePatterns) {
    const bool TransposeChoices[2] = {false, true};
    for (bool TL : TransposeChoices) {
      for (bool TR : TransposeChoices) {
        if ((TL || TR) && !Opts.EnableTransposes)
          continue;
        Dimensionality DL = TL ? L.Dims.reversed() : L.Dims;
        Dimensionality DR = TR ? R.Dims.reversed() : R.Dims;
        for (const BinaryMatch &Match : DB.matchBinaryAll(Op, DL, DR)) {
          ExprPtr EL = TL ? makeTranspose(L.E->clone()) : L.E->clone();
          ExprPtr ER = TR ? makeTranspose(R.E->clone()) : R.E->clone();
          ExprPtr T = Match.Pattern->Transform(
              Op, std::move(EL), std::move(ER),
              patternContext(Match.Bindings));
          if (!T)
            continue;
          return Finish(std::move(T), Match.OutDims);
        }
      }
    }
  }

  return fail("incompatible pointwise operands: " +
              dimsMismatch(L.Dims, R.Dims));
}

double DimChecker::dimExtent(DimSymbol D) const {
  double Assumed = Opts.Cost ? Opts.Cost->assumedTrip() : 64.0;
  if (D.isOne())
    return 1.0;
  if (D.isRange()) {
    if (const LoopHeader *H = headerOf(D.loop())) {
      double Start, Stop, Step = 1.0;
      bool StepKnown = !H->Step || evaluateConstant(*H->Step, Step);
      if (H->StepConst)
        Step = *H->StepConst, StepKnown = true;
      if (H->Start && H->Stop && StepKnown && Step != 0 &&
          evaluateConstant(*H->Start, Start) &&
          evaluateConstant(*H->Stop, Stop)) {
        double Trips = std::floor((Stop - Start) / Step) + 1;
        if (Trips > 0)
          return Trips;
      }
    }
  }
  return Assumed; // Star or symbolic bounds: "assume large".
}

double DimChecker::dimsElems(const Dimensionality &D) const {
  double Elems = 1.0;
  for (DimSymbol S : D.symbols())
    Elems *= dimExtent(S);
  return Elems;
}

std::optional<CheckedExpr> DimChecker::combineMul(const CheckedExpr &L,
                                                  const CheckedExpr &R) {
  if (!rhoConsistent(L, R))
    return std::nullopt;
  std::set<LoopId> Rho = L.Rho;
  Rho.insert(R.Rho.begin(), R.Rho.end());

  // Each legal combination carries the modeled cost of its kernels so
  // checkMulChain can rank associative groupings; KernelNs is this
  // combination's own contribution on top of the operands'.
  double BaseNs = L.CostNs + R.CostNs;
  const cost::CostProfile &CP =
      (Opts.Cost ? *Opts.Cost : cost::builtinCostModel()).profile();
  auto Result = [&](ExprPtr E, Dimensionality Dims, double KernelNs,
                    std::optional<LoopId> Reduced = std::nullopt) {
    CheckedExpr C;
    C.E = std::move(E);
    C.Dims = std::move(Dims);
    C.Rho = Rho;
    C.CostNs = BaseNs + KernelNs;
    if (Reduced)
      C.Rho.insert(*Reduced);
    return C;
  };
  // Price of materializing a transposed operand.
  auto TransNs = [&](const CheckedExpr &Op) {
    return CP.TransposeNs * dimsElems(Op.Dims);
  };

  // Scalars multiply anything with a native '*'.
  if (L.Dims.isScalarShape())
    return Result(makeBinary(BinaryOp::Mul, L.E->clone(), R.E->clone()),
                  R.Dims, CP.ElementwiseNs * dimsElems(R.Dims));
  if (R.Dims.isScalarShape())
    return Result(makeBinary(BinaryOp::Mul, L.E->clone(), R.E->clone()),
                  L.Dims, CP.ElementwiseNs * dimsElems(L.Dims));

  const bool BothScalarPerIteration =
      !containsStar(L.Dims) && !containsStar(R.Dims);

  // Pointwise products take priority over reduction by matrix
  // multiplication (Sec. 3.1, footnote 1). A '*' between per-iteration
  // scalars vectorizes as '.*'.
  if (BothScalarPerIteration) {
    if (compatible(L.Dims, R.Dims))
      return Result(makeBinary(BinaryOp::DotMul, L.E->clone(), R.E->clone()),
                    L.Dims, CP.ElementwiseNs * dimsElems(L.Dims));
    if (Opts.EnableTransposes) {
      if (compatible(L.Dims, R.Dims.reversed()))
        return Result(makeBinary(BinaryOp::DotMul, L.E->clone(),
                                 makeTranspose(R.E->clone())),
                      L.Dims,
                      CP.ElementwiseNs * dimsElems(L.Dims) + TransNs(R));
      if (compatible(L.Dims.reversed(), R.Dims))
        return Result(makeBinary(BinaryOp::DotMul,
                                 makeTranspose(L.E->clone()), R.E->clone()),
                      R.Dims,
                      CP.ElementwiseNs * dimsElems(R.Dims) + TransNs(L));
    }
  }

  const bool TransposeChoices[2] = {false, true};

  // Implicit reduction through native matrix multiplication (Sec. 3.1).
  if (!ReductionLoops.empty()) {
    for (bool TL : TransposeChoices) {
      for (bool TR : TransposeChoices) {
        if ((TL || TR) && !Opts.EnableTransposes)
          continue;
        Dimensionality DL = TL ? L.Dims.reversed() : L.Dims;
        Dimensionality DR = TR ? R.Dims.reversed() : R.Dims;
        if (DL.size() != 2 || DR.size() != 2)
          continue;
        DimSymbol Inner = DL[1];
        if (!Inner.isRange() || DR[0] != Inner)
          continue;
        LoopId Reduced = Inner.loop();
        if (!ReductionLoops.count(Reduced) || Rho.count(Reduced))
          continue;
        // The reduced range must vanish from the result.
        if ((DL[0].isRange() && DL[0].loop() == Reduced) ||
            (DR[1].isRange() && DR[1].loop() == Reduced))
          continue;
        // A native product computes all (row, col) pairs; if both outer
        // dimensions carried the same range the original code only needed
        // the diagonal, so the product form is not equivalent.
        if (DL[0].isRange() && DL[0] == DR[1])
          continue;
        ExprPtr EL = TL ? makeTranspose(L.E->clone()) : L.E->clone();
        ExprPtr ER = TR ? makeTranspose(R.E->clone()) : R.E->clone();
        double MulNs = CP.MatMulNs * dimExtent(DL[0]) * dimExtent(Inner) *
                           dimExtent(DR[1]) +
                       (TL ? TransNs(L) : 0.0) + (TR ? TransNs(R) : 0.0);
        return Result(makeBinary(BinaryOp::Mul, std::move(EL),
                                 std::move(ER)),
                      Dimensionality{DL[0], DR[1]}, MulNs, Reduced);
      }
    }
  }

  if (Opts.EnablePatterns) {
    // Product patterns first (dot product, general matrix forms)...
    for (BinaryOp PatternOp : {BinaryOp::Mul, BinaryOp::DotMul}) {
      if (PatternOp == BinaryOp::DotMul && !BothScalarPerIteration)
        continue; // '.*' reinterpretation only for per-iteration scalars
      for (bool TL : TransposeChoices) {
        for (bool TR : TransposeChoices) {
          if ((TL || TR) && !Opts.EnableTransposes)
            continue;
          Dimensionality DL = TL ? L.Dims.reversed() : L.Dims;
          Dimensionality DR = TR ? R.Dims.reversed() : R.Dims;
          for (const BinaryMatch &Match :
               DB.matchBinaryAll(PatternOp, DL, DR)) {
            ExprPtr EL = TL ? makeTranspose(L.E->clone()) : L.E->clone();
            ExprPtr ER = TR ? makeTranspose(R.E->clone()) : R.E->clone();
            ExprPtr T = Match.Pattern->Transform(
                PatternOp, std::move(EL), std::move(ER),
                patternContext(Match.Bindings));
            if (!T)
              continue;
            // Pattern forms touch both inputs and materialize the output;
            // price them as one pass over each.
            double PatNs =
                CP.ElementwiseNs * (dimsElems(DL) + dimsElems(DR) +
                                    dimsElems(Match.OutDims)) +
                (TL ? TransNs(L) : 0.0) + (TR ? TransNs(R) : 0.0);
            return Result(std::move(T), Match.OutDims, PatNs);
          }
        }
      }
    }
  }

  return std::nullopt;
}

std::optional<CheckedExpr> DimChecker::checkMulChain(const BinaryExpr &E) {
  // Flatten the maximal '*' chain.
  std::vector<const Expr *> Factors;
  std::function<void(const Expr &)> Flatten = [&](const Expr &Node) {
    if (const auto *B = dyn_cast<BinaryExpr>(&Node)) {
      if (B->op() == BinaryOp::Mul) {
        Flatten(*B->lhs());
        Flatten(*B->rhs());
        return;
      }
    }
    Factors.push_back(&Node);
  };
  Flatten(E);

  std::vector<CheckedExpr> Checked;
  Checked.reserve(Factors.size());
  for (const Expr *F : Factors) {
    auto C = check(*F);
    if (!C)
      return std::nullopt;
    Checked.push_back(std::move(*C));
  }

  size_t N = Checked.size();
  assert(N >= 2 && "a Mul node has at least two factors");

  if (!Opts.EnableReassociation || N > 6) {
    // Left-associative folding only.
    CheckedExpr Acc = std::move(Checked[0]);
    for (size_t I = 1; I != N; ++I) {
      auto Next = combineMul(Acc, Checked[I]);
      if (!Next)
        return fail("incompatible '*' operands: " +
                    dimsMismatch(Acc.Dims, Checked[I].Dims));
      Acc = std::move(*Next);
    }
    return Acc;
  }

  // Dynamic programming over associative groupings (Sec. 3.1 footnote 2):
  // Table[Lo][Hi] holds candidate results for the subchain [Lo, Hi].
  constexpr size_t MaxCandidates = 6;
  std::vector<std::vector<std::vector<CheckedExpr>>> Table(N);
  for (auto &Row : Table)
    Row.resize(N);
  for (size_t I = 0; I != N; ++I)
    Table[I][I].push_back(Checked[I].clone());

  auto Signature = [](const CheckedExpr &C) {
    std::string Sig = C.Dims.str();
    for (LoopId Loop : C.Rho) {
      Sig += '|';
      Sig += std::to_string(Loop);
    }
    return Sig;
  };

  for (size_t Len = 2; Len <= N; ++Len) {
    for (size_t Lo = 0; Lo + Len <= N; ++Lo) {
      size_t Hi = Lo + Len - 1;
      std::set<std::string> Seen;
      for (size_t Split = Lo; Split != Hi; ++Split) {
        for (const CheckedExpr &A : Table[Lo][Split]) {
          for (const CheckedExpr &B : Table[Split + 1][Hi]) {
            if (Table[Lo][Hi].size() >= MaxCandidates)
              break;
            auto C = combineMul(A, B);
            if (!C)
              continue;
            std::string Sig = Signature(*C);
            if (!Seen.insert(Sig).second)
              continue;
            Table[Lo][Hi].push_back(std::move(*C));
          }
        }
      }
    }
  }

  std::vector<CheckedExpr> &Final = Table[0][N - 1];
  if (Final.empty())
    return fail("no legal association of the multiplication chain");
  // Prefer groupings that fold the most reductions into native matrix
  // multiplications (fewest leftover Gamma sums and temporaries); ties
  // keep discovery order.
  std::stable_sort(Final.begin(), Final.end(),
                   [](const CheckedExpr &A, const CheckedExpr &B) {
                     return A.Rho.size() > B.Rho.size();
                   });
  if (!Opts.Cost || Final.size() < 2)
    return std::move(Final.front());

  // Cost-model variant selection: re-rank the candidates by modeled
  // kernel cost. A reduction a candidate left unfolded still has to
  // happen as a Gamma sum pass downstream, so each candidate is charged
  // ReduceNs over its intermediate for every loop some sibling managed to
  // fold but it did not — otherwise fewer-folded variants would look
  // artificially cheap. Ties keep the default (Rho-major) order.
  const cost::CostProfile &CP = Opts.Cost->profile();
  std::set<LoopId> Foldable;
  for (const CheckedExpr &C : Final)
    Foldable.insert(C.Rho.begin(), C.Rho.end());
  auto Adjusted = [&](const CheckedExpr &C) {
    double Ns = C.CostNs;
    // The gamma pass walks the candidate's intermediate, whose dims still
    // carry the unfolded range, so dimsElems(C.Dims) already includes it.
    for (LoopId Loop : Foldable)
      if (!C.Rho.count(Loop))
        Ns += CP.ReduceNs * dimsElems(C.Dims);
    return Ns;
  };
  size_t Best = 0;
  double BestNs = Adjusted(Final[0]);
  for (size_t I = 1; I != Final.size(); ++I) {
    double Ns = Adjusted(Final[I]);
    if (Ns < BestNs) {
      Best = I;
      BestNs = Ns;
    }
  }
  if (Best != 0)
    ++VariantOverrides;
  return std::move(Final[Best]);
}

//===----------------------------------------------------------------------===//
// Subscripts and calls
//===----------------------------------------------------------------------===//

std::optional<CheckedExpr> DimChecker::checkCall(const IndexExpr &E,
                                                 const std::string &Name) {
  // Function-call dimensionality signatures from the pattern database
  // (paper Sec. 7): the call's result shape follows from its arguments'.
  if (DB.knowsCall(Name)) {
    std::vector<CheckedExpr> Args;
    std::vector<Dimensionality> ArgDims;
    for (unsigned I = 0, K = E.numArgs(); I != K; ++I) {
      auto Arg = check(*E.arg(I));
      if (!Arg)
        return std::nullopt;
      ArgDims.push_back(Arg->Dims);
      Args.push_back(std::move(*Arg));
    }
    if (auto Out = DB.matchCall(Name, ArgDims)) {
      // Reduced variables of one argument must not appear in another's
      // dimensionality (the Sec. 3.1 consistency rule), and propagate.
      std::set<LoopId> Rho;
      for (size_t I = 0; I != Args.size(); ++I)
        for (size_t J = 0; J != Args.size(); ++J)
          if (I != J && !rhoConsistent(Args[I], Args[J]))
            return fail("inconsistent reductions in call to '" + Name +
                        "'");
      std::vector<ExprPtr> NewArgs;
      for (CheckedExpr &A : Args) {
        Rho.insert(A.Rho.begin(), A.Rho.end());
        NewArgs.push_back(std::move(A.E));
      }
      CheckedExpr C;
      C.E = makeCall(Name, std::move(NewArgs));
      C.Dims = *Out;
      C.Rho = std::move(Rho);
      return C;
    }
    return fail("no call signature for '" + Name +
                "' accepts the argument shapes");
  }

  if (Name == "size" || Name == "numel" || Name == "length") {
    // Loop-invariant queries stay scalar (or a small row vector for
    // size(X)); they must not involve vectorized index variables.
    std::vector<ExprPtr> Args;
    for (unsigned I = 0, K = E.numArgs(); I != K; ++I) {
      for (unsigned L = Level; L <= MaxLevel && L <= Nest.Loops.size(); ++L)
        if (mentionsIdentifier(*E.arg(I), Nest.Loops[L - 1].IndexSym))
          return fail("size query depends on a vectorized index variable");
      Args.push_back(E.arg(I)->clone());
    }
    CheckedExpr C;
    C.E = makeCall(Name, std::move(Args));
    C.Dims = (Name == "size" && E.numArgs() == 1)
                 ? Dimensionality::rowVector()
                 : Dimensionality::scalar();
    return C;
  }

  return fail("call to '" + Name + "' blocks vectorization");
}

std::optional<CheckedExpr> DimChecker::checkIndex(const IndexExpr &E) {
  const auto *BaseIdent = dyn_cast<IdentExpr>(E.base());
  if (!BaseIdent)
    return fail("unsupported subscript base expression");
  const std::string &Name = BaseIdent->name();

  // Calls: a name that is not a known variable but is a builtin.
  if (!Env.knows(Name) && !vectorizedLoop(BaseIdent->sym()) &&
      !isSequentialLoopVar(BaseIdent->sym()) && isBuiltinName(Name))
    return checkCall(E, Name);

  std::optional<Dimensionality> BaseShape = Env.getShape(Name);
  unsigned K = E.numArgs();

  if (K == 0) {
    // x() is just x.
    if (!BaseShape)
      return fail("unknown shape for variable '" + Name + "'");
    CheckedExpr C;
    C.E = makeIdent(Name);
    C.Dims = *BaseShape;
    return C;
  }

  if (K > 2)
    return fail("subscripts with more than two dimensions are unsupported");

  std::vector<ExprPtr> RebuiltArgs;
  Dimensionality Dims;

  if (K == 1) {
    const Expr *Arg = E.arg(0);
    if (isa<MagicColonExpr>(Arg)) {
      if (!BaseShape)
        return fail("unknown shape for variable '" + Name + "'");
      DimSymbol S = BaseShape->isScalarShape() ? DimSymbol::one()
                                               : DimSymbol::star();
      Dims = Dimensionality{S, DimSymbol::one()};
      RebuiltArgs.push_back(std::make_unique<MagicColonExpr>(Arg->loc()));
    } else {
      auto CA = check(*Arg);
      if (!CA)
        return std::nullopt;
      if (!CA->Rho.empty())
        return fail("reduction inside a subscript");
      if (CA->Dims.isMatrixShape() ||
          (BaseShape && BaseShape->isMatrixShape() &&
           CA->Dims.isScalarShape())) {
        // Table 1: M(e1) takes e1's shape when either is a matrix. A
        // scalar subscript is orientation-free, and a matrix-shaped
        // subscript forces its own shape even on a vector base.
        Dims = CA->Dims;
      } else if (BaseShape && BaseShape->isMatrixShape()) {
        // A '*' extent admits 1, so a base declared (*,*) may be a
        // runtime column vector — and MATLAB then orients the slice
        // along the base, not the subscript. The abstract shape of a
        // vector slice is underivable from the annotation: stay
        // sequential rather than guess.
        return fail("vector slice of matrix-shaped '" + Name +
                    "' has data-dependent orientation");
      } else if (BaseShape) {
        auto S = CA->Dims.fmax();
        if (!S)
          return fail("subscript of '" + Name +
                      "' has no single largest dimension");
        // Vector bases orient the result along themselves (A(1:n) is a
        // column for column A).
        if ((*BaseShape)[0].isOne())
          Dims = Dimensionality{DimSymbol::one(), *S};
        else
          Dims = Dimensionality{*S, DimSymbol::one()};
      } else {
        return fail("unknown shape for variable '" + Name + "'");
      }
      RebuiltArgs.push_back(std::move(CA->E));
    }
  } else { // K == 2
    std::vector<DimSymbol> Symbols;
    for (unsigned D = 0; D != 2; ++D) {
      const Expr *Arg = E.arg(D);
      if (isa<MagicColonExpr>(Arg)) {
        if (!BaseShape)
          return fail("unknown shape for variable '" + Name + "'");
        Symbols.push_back((*BaseShape)[D]);
        RebuiltArgs.push_back(std::make_unique<MagicColonExpr>(Arg->loc()));
        continue;
      }
      auto CA = check(*Arg);
      if (!CA)
        return std::nullopt;
      if (!CA->Rho.empty())
        return fail("reduction inside a subscript");
      auto S = CA->Dims.fmax();
      if (!S)
        return fail("subscript of '" + Name +
                    "' has no single largest dimension");
      Symbols.push_back(*S);
      RebuiltArgs.push_back(std::move(CA->E));
    }
    Dims = Dimensionality(std::move(Symbols));
  }

  ExprPtr Rebuilt = std::make_unique<IndexExpr>(
      makeIdent(Name), std::move(RebuiltArgs), E.loc());

  // A repeated range symbol (e.g. the diagonal A(i,i)) must be resolved by
  // a matrix-access pattern (operator class "(.)", Sec. 3).
  if (duplicatedRange(Dims)) {
    if (!Opts.EnablePatterns)
      return fail("repeated range in subscript of '" + Name +
                  "' (patterns disabled)");
    for (const AccessMatch &Match : DB.matchAccessAll(Dims)) {
      ExprPtr T = Match.Pattern->Transform(cast<IndexExpr>(*Rebuilt),
                                           patternContext(Match.Bindings));
      if (!T)
        continue; // the pattern declined; try the next one
      CheckedExpr C;
      C.E = std::move(T);
      C.Dims = Match.OutDims;
      return C;
    }
    return fail("no access pattern accepts subscript dims " + Dims.str());
  }

  CheckedExpr C;
  C.E = std::move(Rebuilt);
  C.Dims = Dims;
  return C;
}
