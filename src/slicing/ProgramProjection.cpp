//===- ProgramProjection.cpp - Slice to program projection ----------------===//

#include "slicing/ProgramProjection.h"

#include "pascal/Sema.h"
#include "support/Casting.h"

#include <algorithm>
#include <set>

using namespace gadt;
using namespace gadt::slicing;
using namespace gadt::pascal;

namespace {

/// Projects one statement; returns null when nothing of it is in the slice.
///
/// Unconditional jumps are kept whenever their routine survives: control
/// dependence does not capture them (the classic Ball-Horwitz refinement is
/// out of scope), so dropping them could change the control flow of the
/// remaining statements. Keeping them is sound, merely less minimal.
StmtPtr projectStmt(const Stmt *S, const StaticSlice &Slice) {
  switch (S->getKind()) {
  case Stmt::Kind::Compound: {
    const auto *CS = cast<CompoundStmt>(S);
    std::vector<StmtPtr> Kept;
    for (const StmtPtr &Sub : CS->getBody())
      if (StmtPtr P = projectStmt(Sub.get(), Slice))
        Kept.push_back(std::move(P));
    if (Kept.empty())
      return nullptr;
    return std::make_unique<CompoundStmt>(CS->getLoc(), std::move(Kept));
  }

  case Stmt::Kind::Labeled: {
    const auto *LS = cast<LabeledStmt>(S);
    StmtPtr Sub = projectStmt(LS->getSub(), Slice);
    if (!Sub)
      Sub = std::make_unique<EmptyStmt>(LS->getLoc());
    return std::make_unique<LabeledStmt>(LS->getLoc(), LS->getLabel(),
                                         std::move(Sub));
  }

  case Stmt::Kind::Goto:
    return S->clone();

  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(S);
    StmtPtr Then = projectStmt(IS->getThen(), Slice);
    StmtPtr Else = IS->getElse() ? projectStmt(IS->getElse(), Slice)
                                 : nullptr;
    if (!Slice.containsStmt(S) && !Then && !Else)
      return nullptr;
    if (!Then)
      Then = std::make_unique<EmptyStmt>(IS->getLoc());
    return std::make_unique<IfStmt>(IS->getLoc(), IS->getCond()->clone(),
                                    std::move(Then), std::move(Else));
  }

  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(S);
    StmtPtr Body = projectStmt(WS->getBody(), Slice);
    if (!Slice.containsStmt(S) && !Body)
      return nullptr;
    if (!Body)
      Body = std::make_unique<EmptyStmt>(WS->getLoc());
    auto Out = std::make_unique<WhileStmt>(WS->getLoc(),
                                           WS->getCond()->clone(),
                                           std::move(Body));
    Out->setUnitName(WS->getUnitSymbol());
    return Out;
  }

  case Stmt::Kind::Repeat: {
    const auto *RS = cast<RepeatStmt>(S);
    std::vector<StmtPtr> Kept;
    for (const StmtPtr &Sub : RS->getBody())
      if (StmtPtr P = projectStmt(Sub.get(), Slice))
        Kept.push_back(std::move(P));
    if (!Slice.containsStmt(S) && Kept.empty())
      return nullptr;
    auto Out = std::make_unique<RepeatStmt>(RS->getLoc(), std::move(Kept),
                                            RS->getCond()->clone());
    Out->setUnitName(RS->getUnitSymbol());
    return Out;
  }

  case Stmt::Kind::For: {
    const auto *FS = cast<ForStmt>(S);
    StmtPtr Body = projectStmt(FS->getBody(), Slice);
    if (!Slice.containsStmt(S) && !Body)
      return nullptr;
    if (!Body)
      Body = std::make_unique<EmptyStmt>(FS->getLoc());
    auto Out = std::make_unique<ForStmt>(
        FS->getLoc(), FS->getLoopVar()->clone(), FS->getFrom()->clone(),
        FS->getTo()->clone(), FS->isDownward(), std::move(Body));
    Out->setUnitName(FS->getUnitSymbol());
    return Out;
  }

  case Stmt::Kind::Assign:
  case Stmt::Kind::ProcCall:
  case Stmt::Kind::Read:
  case Stmt::Kind::Write:
  case Stmt::Kind::Empty:
    return Slice.containsStmt(S) ? S->clone() : nullptr;
  }
  return nullptr;
}

/// Collects every variable name referenced in \p R's (projected) body and
/// in its nested routines.
void collectReferencedNames(const RoutineDecl *R,
                            std::set<std::string> &Names) {
  if (R->getBody())
    forEachExpr(const_cast<CompoundStmt *>(R->getBody()), [&](Expr *E) {
      if (const auto *VR = dyn_cast<VarRefExpr>(E))
        Names.insert(VR->getName());
    });
  for (const auto &N : R->getNested())
    collectReferencedNames(N.get(), Names);
}

std::unique_ptr<RoutineDecl> projectRoutine(const RoutineDecl *R,
                                            const StaticSlice &Slice) {
  auto Out = std::make_unique<RoutineDecl>(R->getLoc(), R->getNameSymbol(),
                                           R->isFunction(),
                                           R->getReturnType());
  for (const auto &P : R->getParams())
    Out->addParam(std::make_unique<VarDecl>(P->getLoc(), P->getNameSymbol(),
                                            P->getType(), P->getVarKind(),
                                            P->getMode()));
  for (const auto &N : R->getNested())
    if (Slice.containsRoutine(N.get()))
      Out->addNested(projectRoutine(N.get(), Slice))->setParent(Out.get());

  StmtPtr Body = R->getBody() ? projectStmt(R->getBody(), Slice) : nullptr;
  if (Body)
    Out->setBody(std::unique_ptr<CompoundStmt>(
        cast<CompoundStmt>(Body.release())));
  else
    Out->setBody(std::make_unique<CompoundStmt>(R->getLoc(),
                                                std::vector<StmtPtr>()));

  // Keep locals that the projected code (or projected nested routines)
  // still mentions.
  std::set<std::string> Referenced;
  collectReferencedNames(Out.get(), Referenced);
  for (const auto &L : R->getLocals())
    if (Referenced.count(L->getName()))
      Out->addLocal(std::make_unique<VarDecl>(L->getLoc(), L->getNameSymbol(),
                                              L->getType(), L->getVarKind(),
                                              L->getMode()));

  // Keep labels whose definition survived.
  std::set<int> DefinedLabels;
  forEachStmt(Out->getBody(), [&](Stmt *S) {
    if (const auto *LS = dyn_cast<LabeledStmt>(S))
      DefinedLabels.insert(LS->getLabel());
  });
  for (int L : R->getLabels())
    if (DefinedLabels.count(L))
      Out->getLabels().push_back(L);

  return Out;
}

} // namespace

std::unique_ptr<Program>
gadt::slicing::projectSlice(const Program &P, const StaticSlice &Slice,
                            DiagnosticsEngine &Diags) {
  auto Out = P.clone(); // shares the TypeContext; we replace the tree
  Out->setMain(projectRoutine(P.getMain(), Slice));
  if (!analyze(*Out, Diags))
    return nullptr;
  return Out;
}
