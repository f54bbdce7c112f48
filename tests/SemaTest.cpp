//===- SemaTest.cpp - Semantic analysis unit tests ------------------------===//

#include "pascal/Frontend.h"
#include "workload/PaperPrograms.h"

#include <gtest/gtest.h>

using namespace gadt;
using namespace gadt::pascal;

namespace {

std::unique_ptr<Program> check(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

std::string checkError(std::string_view Src) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(Src, Diags);
  EXPECT_EQ(Prog, nullptr) << "expected a semantic error";
  return Diags.str();
}

TEST(SemaTest, ResolvesLocalsAndGlobals) {
  auto Prog = check("program p; var g: integer;"
                    "procedure q; var l: integer;"
                    "begin l := g; g := l; end;"
                    "begin q; end.");
  RoutineDecl *Q = Prog->getMain()->findNested("q");
  const auto &Body = Q->getBody()->getBody();
  const auto *A0 = cast<AssignStmt>(Body[0].get());
  const auto *LRef = cast<VarRefExpr>(A0->getTarget());
  const auto *GRef = cast<VarRefExpr>(A0->getValue());
  ASSERT_TRUE(LRef->getDecl());
  ASSERT_TRUE(GRef->getDecl());
  EXPECT_EQ(LRef->getDecl()->getOwner(), Q);
  EXPECT_EQ(GRef->getDecl()->getOwner(), Prog->getMain());
}

TEST(SemaTest, ResolvesUpLevelVariablesInNestedRoutines) {
  auto Prog = check("program p;"
                    "procedure outer; var m: integer;"
                    "  procedure inner; begin m := 1; end;"
                    "begin inner; end;"
                    "begin outer; end.");
  RoutineDecl *Outer = Prog->getMain()->findNested("outer");
  RoutineDecl *Inner = Outer->findNested("inner");
  const auto *A = cast<AssignStmt>(Inner->getBody()->getBody()[0].get());
  EXPECT_EQ(cast<VarRefExpr>(A->getTarget())->getDecl()->getOwner(), Outer);
}

TEST(SemaTest, FunctionResultAssignment) {
  auto Prog = check("program p;"
                    "function f(x: integer): integer;"
                    "begin f := x * 2; end;"
                    "var y: integer;"
                    "begin y := f(3); end.");
  RoutineDecl *F = Prog->getMain()->findNested("f");
  ASSERT_TRUE(F->getResultVar());
  const auto *A = cast<AssignStmt>(F->getBody()->getBody()[0].get());
  EXPECT_EQ(cast<VarRefExpr>(A->getTarget())->getDecl(), F->getResultVar());
}

TEST(SemaTest, CallResolution) {
  auto Prog = check("program p;"
                    "procedure a; begin end;"
                    "procedure b; begin a; end;"
                    "begin b; end.");
  RoutineDecl *B = Prog->getMain()->findNested("b");
  const auto *PC = cast<ProcCallStmt>(B->getBody()->getBody()[0].get());
  EXPECT_EQ(PC->getCallee(), Prog->getMain()->findNested("a"));
}

TEST(SemaTest, RecursionResolves) {
  EXPECT_TRUE(check("program p;"
                    "function fact(n: integer): integer;"
                    "begin if n <= 1 then fact := 1 "
                    "else fact := n * fact(n - 1); end;"
                    "var r: integer;"
                    "begin r := fact(5); end."));
}

TEST(SemaTest, LocalGotoIsMarkedLocal) {
  auto Prog = check("program p; label 9; var x: integer;"
                    "begin goto 9; x := 1; 9: x := 2; end.");
  const auto *GS =
      cast<GotoStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_FALSE(GS->isNonLocal());
  EXPECT_EQ(GS->getTargetRoutine(), Prog->getMain());
}

TEST(SemaTest, NonLocalGotoIsMarkedGlobal) {
  DiagnosticsEngine Diags;
  auto Prog = parseAndCheck(workload::Section6GlobalGoto, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  RoutineDecl *P = Prog->getMain()->findNested("p");
  RoutineDecl *Q = P->findNested("q");
  bool FoundNonLocal = false;
  forEachStmt(Q->getBody(), [&](Stmt *S) {
    if (auto *GS = dyn_cast<GotoStmt>(S)) {
      EXPECT_TRUE(GS->isNonLocal());
      EXPECT_EQ(GS->getTargetRoutine(), P);
      FoundNonLocal = true;
    }
  });
  EXPECT_TRUE(FoundNonLocal);
}

TEST(SemaTest, LoopsGetUnitNames) {
  auto Prog = check("program p; var i, s: integer;"
                    "begin for i := 1 to 3 do s := s + i;"
                    "while s > 0 do s := s - 1; end.");
  const auto &Body = Prog->getMain()->getBody()->getBody();
  EXPECT_FALSE(cast<ForStmt>(Body[0].get())->getUnitName().empty());
  EXPECT_FALSE(cast<WhileStmt>(Body[1].get())->getUnitName().empty());
  EXPECT_NE(cast<ForStmt>(Body[0].get())->getUnitName(),
            cast<WhileStmt>(Body[1].get())->getUnitName());
}

TEST(SemaTest, NodeIdsAreAssigned) {
  auto Prog = check("program p; var x: integer; begin x := 1 + 2; end.");
  const auto *A = cast<AssignStmt>(Prog->getMain()->getBody()->getBody()[0].get());
  EXPECT_GT(A->getId(), 0u);
  EXPECT_GT(A->getValue()->getId(), 0u);
}

// Error cases ---------------------------------------------------------------

TEST(SemaTest, ErrorUndeclaredVariable) {
  std::string E = checkError("program p; begin x := 1; end.");
  EXPECT_NE(E.find("undeclared variable 'x'"), std::string::npos) << E;
}

TEST(SemaTest, ErrorUndeclaredRoutine) {
  std::string E = checkError("program p; begin nosuch(1); end.");
  EXPECT_NE(E.find("undeclared routine"), std::string::npos) << E;
}

TEST(SemaTest, ErrorTypeMismatchAssignment) {
  std::string E = checkError("program p; var x: integer; b: boolean;"
                             "begin x := b; end.");
  EXPECT_NE(E.find("cannot assign"), std::string::npos) << E;
}

TEST(SemaTest, ErrorConditionNotBoolean) {
  checkError("program p; var x: integer; begin if x then x := 1; end.");
}

TEST(SemaTest, ErrorArgumentCountMismatch) {
  checkError("program p; procedure q(a: integer); begin end;"
             "begin q(1, 2); end.");
}

TEST(SemaTest, ErrorVarArgumentMustBeVariable) {
  checkError("program p; procedure q(var a: integer); begin end;"
             "begin q(1 + 2); end.");
}

TEST(SemaTest, ErrorGotoUndeclaredLabel) {
  checkError("program p; begin goto 9; end.");
}

TEST(SemaTest, ErrorLabelNeverDefined) {
  checkError("program p; label 9; var x: integer; begin x := 1; end.");
}

TEST(SemaTest, ErrorLabelDefinedTwice) {
  checkError("program p; label 9; var x: integer;"
             "begin 9: x := 1; 9: x := 2; end.");
}

TEST(SemaTest, ErrorDuplicateLocal) {
  checkError("program p; procedure q(a: integer); var a: integer;"
             "begin end; begin q(1); end.");
}

TEST(SemaTest, ErrorIndexingNonArray) {
  checkError("program p; var x: integer; begin x[1] := 2; end.");
}

TEST(SemaTest, ErrorBooleanArithmetic) {
  checkError("program p; var b: boolean; begin b := true + false; end.");
}

TEST(SemaTest, ErrorCallingProcedureAsFunction) {
  checkError("program p; procedure q; begin end;"
             "var x: integer; begin x := q(); end.");
}

TEST(SemaTest, ErrorForLoopVarMustBeInteger) {
  checkError("program p; var b: boolean;"
             "begin for b := 1 to 3 do b := true; end.");
}

TEST(SemaTest, PaperProgramsPassSema) {
  EXPECT_TRUE(check(workload::Figure4Buggy));
  EXPECT_TRUE(check(workload::Figure4Fixed));
  EXPECT_TRUE(check(workload::Figure2));
  EXPECT_TRUE(check(workload::Section6Globals));
  EXPECT_TRUE(check(workload::Section6GlobalGoto));
  EXPECT_TRUE(check(workload::Section6LoopGoto));
  EXPECT_TRUE(check(workload::ArrsumProgram));
}

TEST(SemaTest, RoutineTableFindsTheFirstRoutineInPreorder) {
  // Two nested routines named b: the table answers with the one nested in
  // a, the first in preorder; a clone answers with its own declarations.
  auto Prog = check("program p;"
                    "procedure a; procedure b; begin end; begin b; end;"
                    "procedure c; procedure b; begin end; begin b; end;"
                    "begin a; c; end.");
  ASSERT_TRUE(Prog);
  const RoutineDecl *Main = Prog->getMain();
  const RoutineDecl *A = Main->findNested("a"), *C = Main->findNested("c");
  EXPECT_EQ(Prog->findRoutine(support::Symbol("p")), Main);
  EXPECT_EQ(Prog->findRoutine(support::Symbol("a")), A);
  EXPECT_EQ(Prog->findRoutine(support::Symbol("b")), A->findNested("b"));
  EXPECT_EQ(Prog->findRoutine(support::Symbol("c")), C);
  EXPECT_EQ(Prog->findRoutine(support::Symbol("nosuch")), nullptr);
  auto Clone = Prog->clone();
  EXPECT_EQ(Clone->findRoutine(support::Symbol("c")),
            Clone->getMain()->findNested("c"));
}

} // namespace
