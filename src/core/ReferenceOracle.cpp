//===- ReferenceOracle.cpp - Oracle backed by an intended program ---------===//

#include "core/ReferenceOracle.h"

#include "analysis/SideEffects.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::interp;
using namespace gadt::pascal;
using namespace gadt::trace;

namespace {

bool isParam(const RoutineDecl *R, support::Symbol Name) {
  for (const auto &P : R->getParams())
    if (Name == P->getName())
      return true;
  return false;
}

/// The non-local variable of \p R named \p Name — a parameter or local of
/// the innermost enclosing scope declaring one — or null. (The program
/// routine has none; its globals are its own locals when it is called
/// directly.)
const VarDecl *nonLocalVariable(const RoutineDecl *R,
                                const std::string &Name) {
  for (R = R->getParent(); R; R = R->getParent())
    if (const VarDecl *V = R->findLocal(Name))
      return V;
  return nullptr;
}

} // namespace

IntendedProgramOracle::IntendedProgramOracle(const Program &Intended,
                                             std::string Source)
    : Intended(Intended), Source(std::move(Source)), Exec(Intended) {}

IntendedProgramOracle::~IntendedProgramOracle() = default;

Judgement IntendedProgramOracle::judge(const ExecNode &N) {
  if (N.getKind() != UnitKind::Call || !N.getRoutine())
    return Judgement::dontKnow();
  const RoutineDecl *Ref = Intended.findRoutine(N.getNameSymbol());
  if (!Ref)
    return Judgement::dontKnow();

  // Assemble arguments by matching the node's input bindings to parameter
  // names; everything else becomes a global preset.
  std::vector<Value> Args;
  Args.reserve(Ref->getParams().size());
  for (const auto &P : Ref->getParams()) {
    const Binding *In = N.findInput(P->getName());
    Args.push_back(In ? In->V : Value());
  }
  std::vector<Binding> Presets;
  for (const Binding &In : N.getInputs())
    if (!isParam(Ref, In.Name))
      Presets.push_back(In);

  CallOutcome Out = Exec.callRoutine(Ref, std::move(Args), Presets);
  if (!Out.Ok)
    return Judgement::dontKnow();
  ++Queries;

  // Compare the traced outputs against the intended ones; the first
  // mismatching binding is reported as the wrong output variable — the
  // paper's "no, error on first output variable".
  for (const Binding &Traced : N.getOutputs()) {
    if (Traced.Name == "<output>") {
      if (Traced.V.isStr() && Traced.V.asStr() != Out.Output)
        return Judgement::incorrect(Source, Traced.Name);
      continue;
    }
    const Binding *RefOut = nullptr;
    for (const Binding &B : Out.Outputs)
      if (B.Name == Traced.Name) {
        RefOut = &B;
        break;
      }
    if (RefOut) {
      if (!RefOut->V.equals(Traced.V))
        return Judgement::incorrect(Source, Traced.Name);
      continue;
    }
    if (isExtraWrite(N, Ref, Traced))
      return Judgement::incorrect(Source, Traced.Name);
  }
  return Judgement::correct(Source);
}

bool IntendedProgramOracle::isExtraWrite(const ExecNode &N,
                                         const RoutineDecl *Ref,
                                         const Binding &Traced) {
  // Names the intended routine cannot see (introduced by the Section 6
  // transformation) have no intended counterpart.
  const VarDecl *Var = nonLocalVariable(Ref, Traced.Name);
  if (!Var)
    return false;
  // Putting back the value the unit read leaves the variable as intended.
  const Binding *In = N.findInput(Traced.Name);
  if (In && In->V.equals(Traced.V))
    return false;
  // A traced output is a write, except for an `out` parameter: Section 6
  // turns a variable the unit may write but never reads into one, and it
  // is reported whether or not this execution wrote it. Such a binding
  // may pass the caller's value through unchanged, so it is wrong only
  // when the intended routine can never write the variable at all.
  const VarDecl *Param = N.getRoutine()->findLocal(Traced.Name);
  if (!Param || Param->getMode() != ParamMode::Out)
    return true;
  if (!Effects) {
    CG = std::make_unique<analysis::CallGraph>(Intended);
    Effects = std::make_unique<analysis::SideEffectAnalysis>(Intended, *CG);
  }
  return !Effects->effects(Ref).modsGlobal(Var);
}
