//===- InterpreterTest.cpp - Interpreter integration tests ----------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "frontend/Parser.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace mvec;

namespace {

/// Runs a script and returns the interpreter for inspection.
Interpreter runOk(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_TRUE(Interp.run(R.Prog)) << Interp.errorMessage();
  return Interp;
}

/// Runs a script expecting a runtime error.
std::string runError(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_FALSE(Interp.run(R.Prog));
  return Interp.errorMessage();
}

double scalarVar(const Interpreter &Interp, const std::string &Name) {
  const Value *V = Interp.getVariable(Name);
  EXPECT_NE(V, nullptr) << "missing variable " << Name;
  if (!V || !V->isScalar())
    return std::nan("");
  return V->scalarValue();
}

TEST(InterpreterTest, ScalarArithmetic) {
  Interpreter I = runOk("x = 2+3*4;\ny = (2+3)*4;\nz = 2^3^2;\nw = -2^2;");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 14);
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 20);
  EXPECT_DOUBLE_EQ(scalarVar(I, "z"), 64); // left-assoc (2^3)^2
  EXPECT_DOUBLE_EQ(scalarVar(I, "w"), -4);
}

TEST(InterpreterTest, RangeConstruction) {
  Interpreter I = runOk("r = 1:5;\ns = 2:2:10;\ne = 5:1;\nd = 10:-2:5;");
  const Value *R = I.getVariable("r");
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->rows(), 1u);
  EXPECT_EQ(R->cols(), 5u);
  EXPECT_DOUBLE_EQ(R->linear(4), 5);
  const Value *S = I.getVariable("s");
  EXPECT_EQ(S->cols(), 5u);
  EXPECT_DOUBLE_EQ(S->linear(4), 10);
  EXPECT_TRUE(I.getVariable("e")->isEmpty());
  const Value *D = I.getVariable("d");
  EXPECT_EQ(D->cols(), 3u);
  EXPECT_DOUBLE_EQ(D->linear(2), 6);
}

TEST(InterpreterTest, MatrixLiteralAndIndexing) {
  Interpreter I = runOk("A = [1 2 3; 4 5 6];\nx = A(2,3);\ny = A(4);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 6);
  // Column-major linear indexing: element 4 is row 2, col 2.
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 5);
}

TEST(InterpreterTest, ColumnMajorFlatten) {
  Interpreter I = runOk("A = [1 2; 3 4];\nv = A(:);");
  const Value *V = I.getVariable("v");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->rows(), 4u);
  EXPECT_EQ(V->cols(), 1u);
  EXPECT_DOUBLE_EQ(V->linear(0), 1);
  EXPECT_DOUBLE_EQ(V->linear(1), 3);
  EXPECT_DOUBLE_EQ(V->linear(2), 2);
  EXPECT_DOUBLE_EQ(V->linear(3), 4);
}

TEST(InterpreterTest, RowAndColumnSlices) {
  Interpreter I = runOk("A = [1 2 3; 4 5 6];\nr = A(2,:);\nc = A(:,2);");
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->rows(), 1u);
  EXPECT_EQ(R->cols(), 3u);
  EXPECT_DOUBLE_EQ(R->linear(2), 6);
  const Value *C = I.getVariable("c");
  EXPECT_EQ(C->rows(), 2u);
  EXPECT_EQ(C->cols(), 1u);
  EXPECT_DOUBLE_EQ(C->linear(1), 5);
}

TEST(InterpreterTest, VectorIndexKeepsBaseOrientation) {
  // MATLAB quirk the paper's dim rules rely on: indexing a column vector
  // with a row range yields a column.
  Interpreter I = runOk("A = [1;2;3;4];\nx = A(1:3);\nr = [1 2 3 4];\n"
                        "y = r((1:3)');");
  const Value *X = I.getVariable("x");
  EXPECT_EQ(X->rows(), 3u);
  EXPECT_EQ(X->cols(), 1u);
  const Value *Y = I.getVariable("y");
  EXPECT_EQ(Y->rows(), 1u);
  EXPECT_EQ(Y->cols(), 3u);
}

TEST(InterpreterTest, MatrixIndexTakesIndexShape) {
  // Indexing a row vector with a matrix index yields the index's shape.
  Interpreter I = runOk("t = [10 20 30 40];\nM = [1 2; 3 4];\nr = t(M);");
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->rows(), 2u);
  EXPECT_EQ(R->cols(), 2u);
  EXPECT_DOUBLE_EQ(R->at(0, 0), 10);
  EXPECT_DOUBLE_EQ(R->at(1, 1), 40);
}

TEST(InterpreterTest, EndKeyword) {
  Interpreter I = runOk("v = [1 2 3 4 5];\nx = v(end);\ny = v(end-1);\n"
                        "z = v(2:end);\nA = [1 2;3 4];\nw = A(end,end);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 4);
  EXPECT_EQ(I.getVariable("z")->numel(), 4u);
  EXPECT_DOUBLE_EQ(scalarVar(I, "w"), 4);
}

TEST(InterpreterTest, AutoGrowVector) {
  Interpreter I = runOk("x(3) = 7;");
  const Value *X = I.getVariable("x");
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->rows(), 1u);
  EXPECT_EQ(X->cols(), 3u);
  EXPECT_DOUBLE_EQ(X->linear(0), 0);
  EXPECT_DOUBLE_EQ(X->linear(2), 7);
}

TEST(InterpreterTest, AutoGrowMatrix) {
  Interpreter I = runOk("A(2,3) = 5;\nA(4,1) = 1;");
  const Value *A = I.getVariable("A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->rows(), 4u);
  EXPECT_EQ(A->cols(), 3u);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 5);
  EXPECT_DOUBLE_EQ(A->at(3, 0), 1);
}

TEST(InterpreterTest, GrowPreservesContents) {
  Interpreter I = runOk("A = [1 2; 3 4];\nA(3,3) = 9;");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 0), 1);
  EXPECT_DOUBLE_EQ(A->at(1, 1), 4);
  EXPECT_DOUBLE_EQ(A->at(2, 2), 9);
  EXPECT_DOUBLE_EQ(A->at(0, 2), 0);
}

TEST(InterpreterTest, SlicedAssignment) {
  Interpreter I = runOk("A = zeros(3,3);\nA(2,:) = [1 2 3];\n"
                        "A(:,1) = [7;8;9];\nA(1:2,2:3) = [1 2; 3 4];");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(1, 0), 8);
  EXPECT_DOUBLE_EQ(A->at(0, 1), 1);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 4);
}

TEST(InterpreterTest, OrientationMismatchedVectorAssignmentAllowed) {
  // MATLAB allows A(1,1:3) = [1;2;3].
  Interpreter I = runOk("A = zeros(2,3);\nA(1,1:3) = [1;2;3];");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 2), 3);
}

TEST(InterpreterTest, ScalarBroadcastAssignment) {
  Interpreter I = runOk("A = ones(2,2);\nA(:,1) = 9;");
  const Value *A = I.getVariable("A");
  EXPECT_DOUBLE_EQ(A->at(0, 0), 9);
  EXPECT_DOUBLE_EQ(A->at(1, 0), 9);
  EXPECT_DOUBLE_EQ(A->at(0, 1), 1);
}

TEST(InterpreterTest, MatrixMultiply) {
  Interpreter I = runOk("A = [1 2; 3 4];\nB = [5 6; 7 8];\nC = A*B;");
  const Value *C = I.getVariable("C");
  EXPECT_DOUBLE_EQ(C->at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C->at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C->at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C->at(1, 1), 50);
}

TEST(InterpreterTest, DotProductRowTimesColumn) {
  Interpreter I = runOk("x = [1 2 3];\ny = [4;5;6];\nd = x*y;");
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 32);
}

TEST(InterpreterTest, InnerDimensionMismatchFails) {
  std::string Msg = runError("A = [1 2; 3 4];\nB = [1 2 3];\nC = A*B;");
  EXPECT_NE(Msg.find("inner matrix dimensions"), std::string::npos);
}

TEST(InterpreterTest, ElementwiseShapeMismatchFails) {
  std::string Msg = runError("x = [1 2 3] + [1 2];");
  EXPECT_NE(Msg.find("dimensions must agree"), std::string::npos);
}

TEST(InterpreterTest, NoImplicitRowColumnBroadcast) {
  // MATLAB 7 (the paper's target) rejects row + column.
  std::string Msg = runError("x = [1 2 3] + [1;2;3];");
  EXPECT_FALSE(Msg.empty());
}

TEST(InterpreterTest, Transpose) {
  Interpreter I = runOk("A = [1 2 3];\nB = A';\nC = (A+1)';");
  EXPECT_EQ(I.getVariable("B")->rows(), 3u);
  EXPECT_DOUBLE_EQ(I.getVariable("C")->linear(2), 4);
}

TEST(InterpreterTest, ForLoopAccumulation) {
  Interpreter I = runOk("s = 0;\nfor i=1:100, s = s + i; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 5050);
}

TEST(InterpreterTest, ForLoopWithStep) {
  Interpreter I = runOk("c = 0;\nfor i=2:2:10, c = c + 1; end\n"
                        "d = 0;\nfor j=10:-3:1, d = d + j; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 22); // 10+7+4+1
}

TEST(InterpreterTest, ForLoopOverMatrixColumns) {
  Interpreter I = runOk("A = [1 2; 3 4];\ns = 0;\n"
                        "for col=A, s = s + col(1) + col(2); end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 10);
}

TEST(InterpreterTest, EmptyRangeLoopDoesNotRun) {
  Interpreter I = runOk("x = 0;\nfor i=5:1, x = 1; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 0);
}

TEST(InterpreterTest, WhileBreakContinue) {
  Interpreter I = runOk("i = 0; s = 0;\n"
                        "while 1\n"
                        "  i = i + 1;\n"
                        "  if i > 10, break; end\n"
                        "  if mod(i,2) == 0, continue; end\n"
                        "  s = s + i;\n"
                        "end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 25); // 1+3+5+7+9
}

TEST(InterpreterTest, IfElseChain) {
  Interpreter I = runOk("x = 5;\nif x < 3, y = 1; elseif x < 7, y = 2; "
                        "else y = 3; end");
  EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 2);
}

TEST(InterpreterTest, LogicalOperators) {
  Interpreter I = runOk("a = 1 < 2 && 3 > 4;\nb = 1 < 2 || 3 > 4;\n"
                        "c = [1 0 1] & [1 1 0];\nd = ~[1 0];");
  EXPECT_DOUBLE_EQ(scalarVar(I, "a"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b"), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(0), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(1), 0);
  EXPECT_DOUBLE_EQ(I.getVariable("d")->linear(0), 0);
}

TEST(InterpreterTest, Builtins) {
  Interpreter I = runOk("A = zeros(2,3);\nr = size(A,1);\nc = size(A,2);\n"
                        "n = numel(A);\nl = length(A);\n"
                        "s = sum([1 2 3]);\ncs = cumsum([1 2 3]);\n"
                        "p = prod([2 3 4]);\nI2 = eye(2);\n"
                        "m = max([3 1 2]);\nmn = min(5, [7 2]);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "r"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "n"), 6);
  EXPECT_DOUBLE_EQ(scalarVar(I, "l"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "s"), 6);
  EXPECT_DOUBLE_EQ(I.getVariable("cs")->linear(2), 6);
  EXPECT_DOUBLE_EQ(scalarVar(I, "p"), 24);
  EXPECT_DOUBLE_EQ(I.getVariable("I2")->at(0, 0), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("I2")->at(0, 1), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "m"), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("mn")->linear(0), 5);
  EXPECT_DOUBLE_EQ(I.getVariable("mn")->linear(1), 2);
}

TEST(InterpreterTest, SumAlongDimensions) {
  Interpreter I = runOk("A = [1 2; 3 4];\nc = sum(A);\nr = sum(A,2);\n"
                        "t = sum(A(:));");
  const Value *C = I.getVariable("c");
  EXPECT_EQ(C->rows(), 1u);
  EXPECT_DOUBLE_EQ(C->linear(0), 4);
  EXPECT_DOUBLE_EQ(C->linear(1), 6);
  const Value *R = I.getVariable("r");
  EXPECT_EQ(R->cols(), 1u);
  EXPECT_DOUBLE_EQ(R->linear(0), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "t"), 10);
}

TEST(InterpreterTest, Repmat) {
  Interpreter I = runOk("v = [1;2];\nA = repmat(v, 1, 3);\n"
                        "B = repmat([1 2], [2 2]);");
  const Value *A = I.getVariable("A");
  EXPECT_EQ(A->rows(), 2u);
  EXPECT_EQ(A->cols(), 3u);
  EXPECT_DOUBLE_EQ(A->at(1, 2), 2);
  const Value *B = I.getVariable("B");
  EXPECT_EQ(B->rows(), 2u);
  EXPECT_EQ(B->cols(), 4u);
}

TEST(InterpreterTest, HistAndCumsum) {
  Interpreter I =
      runOk("x = [0 0 1 2 2 2];\nh = hist(x, [0 1 2]);\nc = cumsum(h);");
  const Value *H = I.getVariable("h");
  ASSERT_EQ(H->numel(), 3u);
  EXPECT_DOUBLE_EQ(H->linear(0), 2);
  EXPECT_DOUBLE_EQ(H->linear(1), 1);
  EXPECT_DOUBLE_EQ(H->linear(2), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(2), 6);
}

TEST(InterpreterTest, Diag) {
  Interpreter I = runOk("A = [1 2; 3 4];\nd = diag(A);\nD = diag([5 6]);");
  const Value *D1 = I.getVariable("d");
  EXPECT_EQ(D1->rows(), 2u);
  EXPECT_DOUBLE_EQ(D1->linear(1), 4);
  const Value *D2 = I.getVariable("D");
  EXPECT_DOUBLE_EQ(D2->at(1, 1), 6);
  EXPECT_DOUBLE_EQ(D2->at(0, 1), 0);
}

TEST(InterpreterTest, DispAndFprintf) {
  Interpreter I = runOk("disp(42);\nfprintf('x=%d y=%.2f\\n', 3, 1.5);");
  EXPECT_EQ(I.output(), "42\nx=3 y=1.50\n");
}

TEST(InterpreterTest, RandIsDeterministicPerSeed) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("x = rand(2,2);", Diags);
  Interpreter A, B;
  A.seedRandom(42);
  B.seedRandom(42);
  A.run(R.Prog);
  B.run(R.Prog);
  EXPECT_TRUE(A.getVariable("x")->equals(*B.getVariable("x")));
  Interpreter C;
  C.seedRandom(43);
  C.run(R.Prog);
  EXPECT_FALSE(A.getVariable("x")->equals(*C.getVariable("x")));
}

TEST(InterpreterTest, UndefinedVariableFails) {
  std::string Msg = runError("y = nope + 1;");
  EXPECT_NE(Msg.find("undefined"), std::string::npos);
}

TEST(InterpreterTest, OutOfBoundsReadFails) {
  std::string Msg = runError("v = [1 2 3];\nx = v(7);");
  EXPECT_NE(Msg.find("exceeds"), std::string::npos);
}

TEST(InterpreterTest, NonIntegerIndexFails) {
  std::string Msg = runError("v = [1 2 3];\nx = v(1.5);");
  EXPECT_NE(Msg.find("positive integers"), std::string::npos);
}

TEST(InterpreterTest, LinearGrowOfMatrixFails) {
  std::string Msg = runError("A = [1 2; 3 4];\nA(9) = 1;");
  EXPECT_FALSE(Msg.empty());
}

TEST(InterpreterTest, StepLimitStopsRunawayLoop) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab("while 1\n x = 1;\nend", Diags);
  Interpreter I;
  I.setStepLimit(1000);
  EXPECT_FALSE(I.run(R.Prog));
  EXPECT_NE(I.errorMessage().find("step limit"), std::string::npos);
}

TEST(InterpreterTest, HistogramEqualizationPipelineRuns) {
  // The paper's Fig. 3 loop code on a small synthetic image.
  Interpreter I = runOk(
      "im = mod(reshape(0:24-1, 4, 6), 8);\n"
      "h = hist(im(:), [0:255]);\n"
      "heq = 255*cumsum(h(:))/sum(h(:));\n"
      "for i=1:size(im,1)\n"
      "  for j=1:size(im,2)\n"
      "    im2(i,j) = heq(im(i,j)+1);\n"
      "  end\n"
      "end");
  const Value *Im2 = I.getVariable("im2");
  ASSERT_NE(Im2, nullptr);
  EXPECT_EQ(Im2->rows(), 4u);
  EXPECT_EQ(Im2->cols(), 6u);
  // Equalized intensities are monotone in the input intensity.
  const Value *Im = I.getVariable("im");
  for (size_t A = 0; A != Im->numel(); ++A)
    for (size_t B = 0; B != Im->numel(); ++B)
      if (Im->linear(A) <= Im->linear(B)) {
        EXPECT_LE(Im2->linear(A), Im2->linear(B) + 1e-12);
      }
}

TEST(InterpreterTest, WorkspaceComparison) {
  Interpreter A = runOk("x = [1 2 3];");
  Interpreter B = runOk("x = [1 2 3];");
  EXPECT_EQ(compareWorkspaces(A, B), "");
  Interpreter C = runOk("x = [1 2 4];");
  EXPECT_NE(compareWorkspaces(A, C), "");
  Interpreter D = runOk("x = [1 2 3]; y = 1;");
  EXPECT_NE(compareWorkspaces(A, D), "");
}

} // namespace

namespace {

TEST(InterpreterTest, FindAnyAllNnz) {
  Interpreter I = runOk("v = [0 3 0 5];\nf = find(v);\n"
                        "a1 = any(v);\na2 = any([0 0]);\n"
                        "b1 = all(v);\nb2 = all([1 2]);\n"
                        "c = nnz(v);\n"
                        "M = [1 0; 1 1];\nam = any(M);\nal = all(M);");
  const Value *F = I.getVariable("f");
  ASSERT_EQ(F->numel(), 2u);
  EXPECT_TRUE(F->isRow());
  EXPECT_DOUBLE_EQ(F->linear(0), 2);
  EXPECT_DOUBLE_EQ(F->linear(1), 4);
  EXPECT_DOUBLE_EQ(scalarVar(I, "a1"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "a2"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b1"), 0);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b2"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 2);
  EXPECT_DOUBLE_EQ(I.getVariable("am")->linear(1), 1);
  EXPECT_DOUBLE_EQ(I.getVariable("al")->linear(1), 0);
}

TEST(InterpreterTest, FindOnColumnYieldsColumn) {
  Interpreter I = runOk("f = find([0;7;8]);");
  const Value *F = I.getVariable("f");
  EXPECT_TRUE(F->isColumn());
  EXPECT_EQ(F->numel(), 2u);
}

TEST(InterpreterTest, NormAndDot) {
  Interpreter I = runOk("n = norm([3 4]);\nd = dot([1 2 3],[4;5;6]);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "n"), 5);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 32);
}

TEST(InterpreterTest, Flips) {
  Interpreter I = runOk("r = fliplr([1 2 3]);\nc = flipud([1;2;3]);\n"
                        "M = flipud([1 2;3 4]);");
  EXPECT_DOUBLE_EQ(I.getVariable("r")->linear(0), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("c")->linear(0), 3);
  EXPECT_DOUBLE_EQ(I.getVariable("M")->at(0, 0), 3);
}

TEST(InterpreterTest, FindFeedsIndexing) {
  Interpreter I = runOk("v = [10 0 30 0 50];\nw = v(find(v));");
  const Value *W = I.getVariable("w");
  ASSERT_EQ(W->numel(), 3u);
  EXPECT_DOUBLE_EQ(W->linear(2), 50);
}

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// Logical values and mask indexing
//===----------------------------------------------------------------------===//

TEST(LogicalTest, ComparisonsProduceLogical) {
  Interpreter I = runOk("m = [1 5 3] > 2;\nn = ~m;\nd = double(m);\n"
                        "t = true; f = false;\nil = islogical(m);\n"
                        "id = islogical(d);");
  EXPECT_TRUE(I.getVariable("m")->isLogical());
  EXPECT_TRUE(I.getVariable("n")->isLogical());
  EXPECT_FALSE(I.getVariable("d")->isLogical());
  EXPECT_TRUE(I.getVariable("t")->isLogical());
  EXPECT_DOUBLE_EQ(scalarVar(I, "il"), 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "id"), 0);
}

TEST(LogicalTest, MaskReadSelectsElements) {
  Interpreter I = runOk("x = [10 20 30 40];\ny = x(x > 15);\n"
                        "c = [1;2;3];\nz = c(c >= 2);");
  const Value *Y = I.getVariable("y");
  ASSERT_EQ(Y->numel(), 3u);
  EXPECT_TRUE(Y->isRow()); // row base -> row result
  EXPECT_DOUBLE_EQ(Y->linear(0), 20);
  const Value *Z = I.getVariable("z");
  EXPECT_TRUE(Z->isColumn());
  EXPECT_EQ(Z->numel(), 2u);
}

TEST(LogicalTest, MaskWriteAssignsElements) {
  Interpreter I = runOk("x = [1 2 3 4 5];\nx(x > 3) = 0;\n"
                        "y = [1 2 3];\ny(y < 3) = [8 9];");
  const Value *X = I.getVariable("x");
  EXPECT_DOUBLE_EQ(X->linear(3), 0);
  EXPECT_DOUBLE_EQ(X->linear(4), 0);
  EXPECT_DOUBLE_EQ(X->linear(2), 3);
  const Value *Y = I.getVariable("y");
  EXPECT_DOUBLE_EQ(Y->linear(0), 8);
  EXPECT_DOUBLE_EQ(Y->linear(1), 9);
}

TEST(LogicalTest, MaskRowSelectionOnMatrix) {
  Interpreter I = runOk("A = [1 2; 3 4; 5 6];\nm = [1 0 1] > 0;\n"
                        "B = A(m', :);\nC = A(logical([0;1;0]), :);");
  const Value *B = I.getVariable("B");
  EXPECT_EQ(B->rows(), 2u);
  EXPECT_DOUBLE_EQ(B->at(1, 0), 5);
  const Value *C = I.getVariable("C");
  EXPECT_EQ(C->rows(), 1u);
  EXPECT_DOUBLE_EQ(C->at(0, 1), 4);
}

TEST(LogicalTest, MaskTooLongFails) {
  std::string Msg = runError("x = [1 2];\ny = x(logical([1 0 1]));");
  EXPECT_NE(Msg.find("logical index"), std::string::npos);
}

TEST(LogicalTest, ArithmeticStripsLogical) {
  Interpreter I = runOk("m = [1 0 1] > 0;\ns = m + 0;");
  EXPECT_FALSE(I.getVariable("s")->isLogical());
}

TEST(LogicalTest, CountingWithMasksMatchesBuiltins) {
  Interpreter I = runOk("v = [3 -1 4 -1 5];\nneg = sum(v < 0);\n"
                        "k = nnz(v < 0);");
  EXPECT_DOUBLE_EQ(scalarVar(I, "neg"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "k"), 2);
}

TEST(LogicalTest, MaskSizeMismatchOnWriteFails) {
  std::string Msg = runError("x = [1 2 3];\nx(x > 1) = [7 8 9];");
  EXPECT_NE(Msg.find("mismatch"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Scalar fast path (evalScalar and the scalar subscript primitives). Each
// case pins what the general path produces — value, shape, logical flag,
// error text and location (an index error sits at its '(') — at an edge
// of the admission set, so the fast path can never diverge from it
// unnoticed.
//===----------------------------------------------------------------------===//

/// "message @line:col" of a script's runtime error.
std::string errorAt(const std::string &Source) {
  DiagnosticEngine Diags;
  ParseResult R = parseMatlab(Source, Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  Interpreter Interp;
  EXPECT_FALSE(Interp.run(R.Prog)) << Source;
  return Interp.errorMessage() + " @" + std::to_string(Interp.errorLoc().Line) +
         ":" + std::to_string(Interp.errorLoc().Col);
}

void expectShape(const Interpreter &I, const std::string &Name, size_t Rows,
                 size_t Cols) {
  const Value *V = I.getVariable(Name);
  ASSERT_NE(V, nullptr) << Name;
  EXPECT_EQ(V->rows(), Rows) << Name;
  EXPECT_EQ(V->cols(), Cols) << Name;
}

TEST(ScalarFastPathTest, LogicalScalarSubscriptSelectsByMask) {
  Interpreter I = runOk("v = [10 20 30];\nA = [1 2; 3 4];\n"
                        "t = 1 > 0; f = 0 > 1;\n"
                        "a = v(t);\nb = v(f);\nc = A(f, 1);\nd = A(t, 2);\n"
                        "e = v(t) + 1;\n");
  EXPECT_DOUBLE_EQ(scalarVar(I, "a"), 10);
  expectShape(I, "b", 1, 0); // a false mask on a row selects nothing
  expectShape(I, "c", 0, 1);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 2);
  EXPECT_DOUBLE_EQ(scalarVar(I, "e"), 11);
  // A logical scalar subscript in a write masks as well.
  Interpreter W = runOk("w = [1 2 3];\nw(0 > 1) = 9;\nm = 1 > 0;\nw(m) = 7;");
  const Value *V = W.getVariable("w");
  ASSERT_EQ(V->numel(), 3u);
  EXPECT_DOUBLE_EQ(V->linear(0), 7);
  EXPECT_DOUBLE_EQ(V->linear(1), 2);
}

TEST(ScalarFastPathTest, LogicalBaseStaysLogical) {
  Interpreter I = runOk("b = [1 2 3] > 1;\nB = [1 2; 3 4] > 2;\n"
                        "x = b(2);\ny = B(2, 1);\nz = b(2) + 1;\n"
                        "w = zeros(1, 2);\nw(1) = b(3);\n");
  EXPECT_TRUE(I.getVariable("x")->isLogical());
  EXPECT_DOUBLE_EQ(scalarVar(I, "x"), 1);
  EXPECT_TRUE(I.getVariable("y")->isLogical());
  EXPECT_FALSE(I.getVariable("z")->isLogical());
  EXPECT_DOUBLE_EQ(scalarVar(I, "z"), 2);
  EXPECT_FALSE(I.getVariable("w")->isLogical());
  EXPECT_DOUBLE_EQ(I.getVariable("w")->linear(0), 1);
}

TEST(ScalarFastPathTest, BadSubscriptsReportExactErrors) {
  const std::string Setup = "v = [1 2 3];\nA = [1 2; 3 4];\n";
  const std::string Positive = "subscript indices must be positive integers";
  EXPECT_EQ(errorAt(Setup + "x = v(0) + 1;"), Positive + " @3:6");
  EXPECT_EQ(errorAt(Setup + "x = 1 + v(1.5);"), Positive + " @3:10");
  EXPECT_EQ(errorAt(Setup + "x = v(0 - 1);"), Positive + " @3:6");
  EXPECT_EQ(errorAt(Setup + "x = v(0 / 0);"), Positive + " @3:6");
  EXPECT_EQ(errorAt(Setup + "x = v(1 / 0);"), Positive + " @3:6");
  EXPECT_EQ(errorAt(Setup + "x = A(1, 0 / 0) * 2;"), Positive + " @3:6");
  EXPECT_EQ(errorAt(Setup + "x = v(4);"),
            "index 4 exceeds matrix dimension (3) @3:6");
  EXPECT_EQ(errorAt(Setup + "x = 2 * A(3, 1);"),
            "index 3 exceeds matrix dimension (2) @3:10");
  EXPECT_EQ(errorAt(Setup + "x = A(1, 2 + 1);"),
            "index 3 exceeds matrix dimension (2) @3:6");
  EXPECT_EQ(errorAt(Setup + "x = v(A(2, 2));"),
            "index 4 exceeds matrix dimension (3) @3:6");
  // The same subscripts on the write side.
  EXPECT_EQ(errorAt(Setup + "v(0) = 1;"), Positive + " @3:2");
  EXPECT_EQ(errorAt(Setup + "v(1.5) = 1;"), Positive + " @3:2");
  EXPECT_EQ(errorAt(Setup + "v(0 / 0) = 1;"), Positive + " @3:2");
  EXPECT_EQ(errorAt(Setup + "A(1 / 0, 1) = 1;"), Positive + " @3:2");
  EXPECT_EQ(errorAt(Setup + "A(-1, 1) = 1;"), Positive + " @3:2");
}

TEST(ScalarFastPathTest, WriteGrowthMatchesIndexWrite) {
  Interpreter I = runOk("e = [];\ne(3) = 1;\n"
                        "z = zeros(0, 1);\nz(3) = 1;\n"
                        "r = [1 2];\nr(4) = 5;\n"
                        "c = [1; 2];\nc(4) = 5;\n"
                        "s = 7;\ns(3) = 1;\n"
                        "g = [];\ng(2, 3) = 4;\n"
                        "h = [1 2];\nh(3, 1) = 6;\n"
                        "k = [1 2; 3 4];\nk(2, 2) = 8;\n");
  expectShape(I, "e", 1, 3);
  expectShape(I, "z", 1, 3);
  expectShape(I, "r", 1, 4);
  EXPECT_DOUBLE_EQ(I.getVariable("r")->linear(3), 5);
  EXPECT_DOUBLE_EQ(I.getVariable("r")->linear(2), 0);
  expectShape(I, "c", 4, 1);
  expectShape(I, "s", 1, 3);
  EXPECT_DOUBLE_EQ(I.getVariable("s")->linear(0), 7);
  expectShape(I, "g", 2, 3);
  EXPECT_DOUBLE_EQ(I.getVariable("g")->at(1, 2), 4);
  expectShape(I, "h", 3, 2);
  EXPECT_DOUBLE_EQ(I.getVariable("h")->at(0, 1), 2);
  EXPECT_DOUBLE_EQ(I.getVariable("h")->at(2, 0), 6);
  EXPECT_DOUBLE_EQ(I.getVariable("k")->at(1, 1), 8);
  EXPECT_EQ(errorAt("M = ones(2);\nM(7) = 1;"),
            "linear indexed assignment cannot grow a matrix @2:2");
  EXPECT_EQ(errorAt("M = zeros(2, 0);\nM(1) = 1;"),
            "linear indexed assignment cannot grow a matrix @2:2");
}

TEST(ScalarFastPathTest, EndInsideSubscripts) {
  Interpreter I = runOk("v = [4 5 6];\nA = [1 2; 3 4];\n"
                        "a = v(end);\nb = v(end - 1) * 2;\nc = A(end, 1);\n"
                        "d = A(1, end) + v(end);\nv(end + 1) = 7;\n"
                        "A(end, end) = 9;\ne = v(v(1) - 3);\n");
  EXPECT_DOUBLE_EQ(scalarVar(I, "a"), 6);
  EXPECT_DOUBLE_EQ(scalarVar(I, "b"), 10);
  EXPECT_DOUBLE_EQ(scalarVar(I, "c"), 3);
  EXPECT_DOUBLE_EQ(scalarVar(I, "d"), 8);
  expectShape(I, "v", 1, 4);
  EXPECT_DOUBLE_EQ(I.getVariable("v")->linear(3), 7);
  EXPECT_DOUBLE_EQ(I.getVariable("A")->at(1, 1), 9);
  EXPECT_DOUBLE_EQ(scalarVar(I, "e"), 4);
  EXPECT_EQ(errorAt("v = [1 2];\nx = v(end + 1);"),
            "index 3 exceeds matrix dimension (2) @2:6");
}

TEST(ScalarFastPathTest, VariableShadowsBuiltin) {
  Interpreter V = runOk("max = [4 9 2];\nsum = 5;\npi = 3;\n"
                        "a = max(2) * 2;\nb = sum + 1;\nc = pi * 2;\n");
  EXPECT_DOUBLE_EQ(scalarVar(V, "a"), 18);
  EXPECT_DOUBLE_EQ(scalarVar(V, "b"), 6);
  EXPECT_DOUBLE_EQ(scalarVar(V, "c"), 6);
  Interpreter B = runOk("a = max(2, 3) * 2;\nb = sum([1 2 3]) + 1;\n"
                        "c = pi * 2;\n");
  EXPECT_DOUBLE_EQ(scalarVar(B, "a"), 6);
  EXPECT_DOUBLE_EQ(scalarVar(B, "b"), 7);
  EXPECT_DOUBLE_EQ(scalarVar(B, "c"), 2 * 3.14159265358979323846);
}

TEST(ScalarFastPathTest, UndefinedVariable) {
  EXPECT_EQ(errorAt("x = 1;\ny = x + q * 2;"), "undefined variable 'q' @2:9");
  EXPECT_EQ(errorAt("x = 1;\ny = x + q(1);"),
            "undefined function or variable 'q' @2:10");
  EXPECT_EQ(errorAt("v = [1 2];\nv(q) = 1;"), "undefined variable 'q' @2:3");
}

TEST(ScalarFastPathTest, RandOrderPreserved) {
  auto Run = [](const std::string &Source) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab(Source, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
    Interpreter I;
    I.seedRandom(7);
    EXPECT_TRUE(I.run(R.Prog)) << I.errorMessage();
    return I;
  };
  Interpreter A = Run("v = [1 2 3];\nx = v(2) + rand() * 2 - rand() / 3;\n"
                      "y = rand();\n");
  Interpreter B = Run("v = [1 2 3];\nr1 = rand();\nr2 = rand();\n"
                      "x = v(2) + r1 * 2 - r2 / 3;\ny = rand();\n");
  EXPECT_EQ(scalarVar(A, "x"), scalarVar(B, "x"));
  EXPECT_EQ(scalarVar(A, "y"), scalarVar(B, "y"));
}

/// A left-nested chain (((x + 1) + 1) ... + 1) of \p Levels additions;
/// the addition at depth d sits on line d + 1, column 1, and its literal
/// operand on line d + 1, column 2.
ExprPtr deepSum(unsigned Levels) {
  ExprPtr E = makeIdent("x");
  for (unsigned D = Levels; D-- > 0;) {
    auto One = std::make_unique<NumberExpr>(1.0, SourceLoc(D + 1, 2));
    E = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(E),
                                     std::move(One), SourceLoc(D + 1, 1));
  }
  return E;
}

TEST(ScalarFastPathTest, DepthLimitStillFires) {
  // The evaluator charges a level per eval(): an addition at depth d and
  // its literal operand at depth d + 1; a defined identifier operand is
  // read without one. So 1999 levels fit, and 2000 fail on the deepest
  // literal, and 2100 on the addition at depth 2000.
  struct Case {
    unsigned Levels;
    bool Ok;
    SourceLoc Loc;
  } Cases[] = {{1999, true, SourceLoc()},
               {2000, false, SourceLoc(2000, 2)},
               {2001, false, SourceLoc(2001, 1)},
               {2100, false, SourceLoc(2001, 1)}};
  for (const Case &C : Cases) {
    // Inside run(), where every node is resolved by the pre-pass.
    Program P;
    P.Stmts.push_back(std::make_unique<AssignStmt>(makeIdent("y"),
                                                   deepSum(C.Levels)));
    Interpreter I;
    I.setVariable("x", Value::scalar(0.5));
    EXPECT_EQ(I.run(P), C.Ok) << C.Levels;
    if (C.Ok) {
      EXPECT_DOUBLE_EQ(scalarVar(I, "y"), 0.5 + C.Levels);
    } else {
      EXPECT_EQ(I.errorMessage(),
                "expression nesting exceeds the evaluator depth limit");
      EXPECT_EQ(I.errorLoc(), C.Loc) << C.Levels;
    }
    // And through a standalone eval() of the same tree, whose unresolved
    // identifier costs a level of its own: 2000 levels now fail on x.
    Interpreter J;
    J.setVariable("x", Value::scalar(0.5));
    ExprPtr E = deepSum(C.Levels);
    Value V = J.eval(*E);
    EXPECT_EQ(J.failed(), !C.Ok) << C.Levels;
    if (C.Levels > 2000) {
      EXPECT_EQ(J.errorLoc(), C.Loc) << C.Levels;
    }
  }
}

TEST(ScalarFastPathTest, AdmissionSet) {
  Interpreter I;
  I.setVariable("x", Value::scalar(2));
  I.setVariable("v", Value::vector({10, 20, 30}, /*Row=*/true));
  Value B = Value::scalar(1);
  B.setLogical(true);
  I.setVariable("b", B);
  Value A(2, 2);
  A.at(0, 0) = 1;
  A.at(1, 0) = 2;
  A.at(0, 1) = 3;
  A.at(1, 1) = 4;
  I.setVariable("A", A);
  auto Try = [&](const std::string &Text, double &Out) {
    DiagnosticEngine Diags;
    ParseResult R = parseMatlab("y = " + Text + ";", Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Text;
    const auto &S = *cast<AssignStmt>(R.Prog.Stmts[0].get());
    bool Ok = I.evalScalar(*S.rhs(), Out);
    // Whatever the answer, eval() agrees with it and nothing failed.
    Value V = I.eval(*S.rhs());
    if (Ok) {
      EXPECT_TRUE(V.isScalar() && !V.isLogical()) << Text;
      EXPECT_EQ(V.scalarValue(), Out) << Text;
    }
    I.clearError();
    return Ok;
  };
  double D = 0;
  EXPECT_TRUE(Try("3", D));
  EXPECT_TRUE(Try("x * 2 + 1", D));
  EXPECT_EQ(D, 5);
  EXPECT_TRUE(Try("v(x) ./ 4 - A(2, 1) .* x", D));
  EXPECT_EQ(D, 1);
  EXPECT_TRUE(Try("1 / 0", D));
  EXPECT_TRUE(std::isinf(D));
  EXPECT_TRUE(Try("v(A(1, 1) + 1)", D));
  EXPECT_EQ(D, 20);
  for (const char *Rejected :
       {"rand()", "pi", "b", "b + 1", "v", "v + 1", "x ^ 2", "x > 1", "-x",
        "x'", "v(end)", "v(:)", "A(1, :)", "v(0)", "v(4)", "v(1.5)",
        "v(0 / 0)", "v(b)", "A(3, 1)", "max(x, 1)", "undefinedname",
        "[x]", "x && 1", "v(x, 1, 1)", "A()"})
    EXPECT_FALSE(Try(Rejected, D)) << Rejected;
}

} // namespace
