//===- Generator.cpp - Random annotated-program generator -------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include <algorithm>

using namespace mvec;
using namespace mvec::fuzz;

namespace {

std::string num(int Value) { return std::to_string(Value); }

} // namespace

GenProgram Generator::next() {
  return generate(static_cast<unsigned>(R.range(0, NumFamilies - 1)));
}

GenProgram Generator::generate(unsigned FamilyIndex) {
  switch (FamilyIndex) {
  case 0:
    return pointwise();
  case 1:
    return nest2D();
  case 2:
    return reduction();
  case 3:
    return affineAccess();
  case 4:
    return dependence();
  case 5:
    return nestedAccumulator();
  case 6:
    return compound();
  default:
    return edgeRanges();
  }
}

//===----------------------------------------------------------------------===//
// Family: pointwise expressions over randomly oriented vectors
//===----------------------------------------------------------------------===//

GenProgram Generator::pointwise() {
  // Three operand vectors with random orientations; one output. Operands
  // are scalar loads x(i), y(i) and constants; denominators stay away
  // from zero because rand() is in (0,1) and we add 0.5.
  std::vector<std::string> Shapes = {"(1,n)", "(n,1)"};
  std::string SX = R.pick(Shapes), SY = R.pick(Shapes), SZ = R.pick(Shapes);
  auto Ann = [](const std::string &S) {
    return S == "(1,n)" ? "(1,*)" : "(*,1)";
  };
  std::vector<std::string> Ops = {"+", "-", ".*", "*", "./", "/"};
  std::string Op1 = R.pick(Ops), Op2 = R.pick(Ops);

  GenProgram P;
  P.Family = "pointwise";
  // Orientation mismatches are exactly what the transpose machinery must
  // absorb; every combination must vectorize.
  P.ExpectVectorized = true;
  P.Source =
      "n = " + num(R.range(3, 9)) + ";\n"
      "x = rand" + SX + "+0.5;\n"
      "y = rand" + SY + "+0.5;\n"
      "z = zeros" + SZ + ";\n"
      "%! x" + Ann(SX) + " y" + Ann(SY) + " z" + Ann(SZ) + " n(1)\n"
      "for i=1:n\n"
      "  z(i) = (x(i) " + Op1 + " y(i)) " + Op2 + " " +
      num(R.range(1, 3)) + ";\n"
      "end\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: two-dimensional nests with transposed reads and broadcasts
//===----------------------------------------------------------------------===//

GenProgram Generator::nest2D() {
  std::vector<std::string> Terms = {"B(i,j)", "B(j,i)'", "c(i)",   "r(j)",
                                    "2",      "B(i,j)",  "B(j,i)"};
  // Note: B(j,i)' reads a scalar, so the transpose has no runtime effect;
  // both forms exercise the analysis identically.
  std::vector<std::string> Ops = {"+", "-", ".*"};
  std::string T1 = R.pick(Terms), T2 = R.pick(Terms);
  std::string Op = R.pick(Ops);
  int M = R.range(3, 6), N = R.range(3, 6);

  GenProgram P;
  P.Family = "nest2d";
  P.Source =
      "m = " + num(M) + "; n = " + num(N) + ";\n"
      "B = rand(" + num(std::max(M, N)) + "," + num(std::max(M, N)) + ");\n"
      "c = rand(m,1);\nr = rand(1,n);\nA = zeros(m,n);\n"
      "%! B(*,*) c(*,1) r(1,*) A(*,*) m(1) n(1)\n"
      "for i=1:m\n for j=1:n\n"
      "  A(i,j) = " + T1 + " " + Op + " " + T2 + ";\n"
      " end\nend\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: additive reductions
//===----------------------------------------------------------------------===//

GenProgram Generator::reduction() {
  std::vector<std::string> Factors = {"v(i)", "w(j)", "M(i,j)", "M(j,i)",
                                      "2",    "v(i)"};
  std::string F1 = R.pick(Factors), F2 = R.pick(Factors);
  std::string AccOp = R.flip() ? "+" : "-";
  int N = R.range(3, 7);

  GenProgram P;
  P.Family = "reduction";
  P.Source =
      "n = " + num(N) + ";\n"
      "v = rand(1,n);\nw = rand(n,1);\nM = rand(n,n);\ns = 1;\n"
      "%! v(1,*) w(*,1) M(*,*) s(1) n(1)\n"
      "for i=1:n\n for j=1:n\n"
      "  s = s " + AccOp + " " + F1 + "*" + F2 + ";\n"
      " end\nend\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: strided loops and affine diagonal-style accesses
//===----------------------------------------------------------------------===//

GenProgram Generator::affineAccess() {
  int C1 = R.range(1, 2), C2 = R.range(0, 2);
  int C3 = R.range(1, 2), C4 = R.range(0, 2);
  int Trip = R.range(3, 6);
  int Start = R.range(1, 2), Step = R.range(1, 2);
  // Large enough for the largest affine access 2*i+2 at the last
  // iteration.
  int Size = 2 * (Start + Step * (Trip - 1)) + 4;
  auto Affine = [&](int A, int B) {
    std::string S = A == 1 ? "i" : num(A) + "*i";
    if (B != 0) {
      S += '+';
      S += num(B);
    }
    return S;
  };
  int Stop = Start + Step * (Trip - 1);

  GenProgram P;
  P.Family = "affine";
  P.Source =
      "A = rand(" + num(Size) + "," + num(Size) + ");\n"
      "b = rand(1," + num(Size) + ");\n"
      "a = zeros(1," + num(Size) + ");\n"
      "%! A(*,*) b(1,*) a(1,*)\n"
      "for i=" + num(Start) + ":" + num(Step) + ":" + num(Stop) + "\n"
      "  a(i) = A(" + Affine(C1, C2) + "," + Affine(C3, C4) + ")*b(i);\n"
      "end\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: recurrences and dependences — the vectorizer must never break
// programs it cannot fully vectorize
//===----------------------------------------------------------------------===//

GenProgram Generator::dependence() {
  std::vector<std::string> Bodies = {
      "v(i) = v(i-1)+x(i);",          // true recurrence
      "v(i) = x(i); y(i) = v(i)*2;",  // forward flow
      "y(i) = x(i+1); x(i) = 0.5;",   // anti dependence
      "v(i) = x(i); v(i) = v(i)+1;",  // output dependence
      "s = s + x(i); y(i) = x(i);",   // reduction + independent
      "y(i) = x(n+1-i);",             // reversal read (independent)
  };
  std::string Body = R.pick(Bodies);
  int N = R.range(4, 9);

  GenProgram P;
  P.Family = "dependence";
  P.Source =
      "n = " + num(N) + ";\n"
      "x = rand(1,n+1);\nv = rand(1,n);\ny = zeros(1,n);\ns = 0;\n"
      "%! x(1,*) v(1,*) y(1,*) s(1) n(1)\n"
      "for i=2:n\n  " + Body + "\nend\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: nested accumulators — inner scalar reduction feeding an outer
// elementwise write (the matvec shape)
//===----------------------------------------------------------------------===//

GenProgram Generator::nestedAccumulator() {
  int M = R.range(2, 5), N = R.range(2, 5);
  bool RowW = R.flip(), RowU = R.flip(), RowZ = R.flip();
  std::vector<std::string> Terms = {"M(i,j)*w(j)", "M(i,j)",
                                    "w(j)*u(i)", "M(i,j)*w(j)*u(i)"};
  std::string Term = R.pick(Terms);
  std::vector<std::string> Inits = {"0", "u(i)"};
  std::string Init = R.pick(Inits);
  std::vector<std::string> Finals = {"t", "t*2", "t+u(i)"};
  std::string Final = R.pick(Finals);

  GenProgram P;
  P.Family = "nested-acc";
  P.Source =
      "m = " + num(M) + "; n = " + num(N) + ";\n"
      "M = rand(m,n);\n"
      "w = rand(" + std::string(RowW ? "1,n" : "n,1") + ");\n"
      "u = rand(" + std::string(RowU ? "1,m" : "m,1") + ");\n"
      "z = zeros(" + std::string(RowZ ? "1,m" : "m,1") + ");\n"
      "%! M(*,*) w" + (RowW ? "(1,*)" : "(*,1)") +
      " u" + (RowU ? "(1,*)" : "(*,1)") +
      " z" + (RowZ ? "(1,*)" : "(*,1)") + " t(1) m(1) n(1)\n"
      "for i=1:m\n"
      "  t = " + Init + ";\n"
      "  for j=1:n\n"
      "    t = t + " + Term + ";\n"
      "  end\n"
      "  z(i) = " + Final + ";\n"
      "end\n";
  return P;
}

//===----------------------------------------------------------------------===//
// Family: compound scripts — several loops and whole-array statements over
// shared arrays, mixing diagonals, broadcasts, reductions, builtins and
// powers
//===----------------------------------------------------------------------===//

GenProgram Generator::compound() {
  std::vector<std::string> Segments = {
      // Diagonal read via duplicate loop symbol.
      "for i=1:n\n  a(i) = X(i,i)*x(i);\nend\n",
      // Transposed read plus column broadcast.
      "for i=1:n\n for j=1:n\n  A(i,j) = X(j,i)+y(i);\n end\nend\n",
      // Full 2-D reduction with both orientations in the term.
      "for i=1:n\n for j=1:n\n  s = s + X(i,j)*y(i)*x(j);\n end\nend\n",
      // Strided recurrence: must stay sequential.
      "for i=2:2:n\n  a(i) = a(i-1)+1;\nend\n",
      // Powers (matrix ^ on scalars, pointwise .^).
      "for i=1:n\n  b(i) = x(i)^2 + y(i).^2;\nend\n",
      // Pointwise builtins with call-dimensionality signatures.
      "for i=1:n\n  a(i) = abs(x(i)) + sqrt(y(i));\nend\n",
      // Two-argument elementwise builtins.
      "for i=1:n\n  b(i) = max(x(i), y(i)) - min(x(i), 0.5);\nend\n",
      // Loop index used as a value inside the expression.
      "for i=1:n\n  a(i) = mod(i, 3) + x(i);\nend\n",
      // Reversal read.
      "for i=1:n\n  a(i) = x(n+1-i)*2;\nend\n",
      // Whole-array statement between loops.
      "x = x*0.5;\n",
      // Observable output must survive the transformation byte-for-byte.
      "disp(s);\n",
  };
  int NumSegments = R.range(2, 4);

  GenProgram P;
  P.Family = "compound";
  P.Source =
      "n = " + num(R.range(4, 7)) + ";\n"
      "X = rand(n,n);\nx = rand(1,n);\ny = rand(n,1)+0.5;\n"
      "a = zeros(1,n);\nb = zeros(n,1);\nA = zeros(n,n);\ns = 0;\n"
      "%! X(*,*) x(1,*) y(*,1) a(1,*) b(*,1) A(*,*) s(1) n(1)\n";
  for (int I = 0; I != NumSegments; ++I)
    P.Source += R.pick(Segments);
  return P;
}

//===----------------------------------------------------------------------===//
// Family: degenerate and descending ranges
//===----------------------------------------------------------------------===//

GenProgram Generator::edgeRanges() {
  int N = R.range(0, 5); // may be zero: some loops never run
  int M = R.range(2, 6);
  std::vector<std::string> Headers = {
      "for i=1:n\n",    "for i=2:n\n",   "for i=n:-1:1\n",
      "for i=m:-2:1\n", "for i=1:0\n",   "for i=3:3\n",
      "for i=1:2:m\n",
  };
  std::vector<std::string> Bodies = {
      "  y(i) = x(i)+1;\n",
      "  y(i) = x(i+2)*x(i);\n",
      "  s = s + x(i);\n",
      "  y(i) = i;\n",
  };
  int NumLoops = R.range(1, 2);

  GenProgram P;
  P.Family = "edge-ranges";
  P.Source =
      "n = " + num(N) + "; m = " + num(M) + ";\n"
      "x = rand(1," + num(M + N + 4) + ");\n"
      "y = zeros(1," + num(M + N + 4) + ");\ns = 0;\n"
      "%! x(1,*) y(1,*) s(1) n(1) m(1)\n";
  for (int I = 0; I != NumLoops; ++I)
    P.Source += R.pick(Headers) + R.pick(Bodies) + "end\n";
  return P;
}
