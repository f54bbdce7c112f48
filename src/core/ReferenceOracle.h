//===- ReferenceOracle.h - Oracle backed by an intended program -*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An oracle that answers from an executable *intended program*: the
/// queried unit is re-run in a correct reference implementation with the
/// node's recorded inputs, and the outputs are compared. This mechanizes
/// the paper's human user (who judges against the intended behaviour in
/// their head) so that sessions, tests and scaling benchmarks run
/// deterministically; the incorrect-output report it produces ("no, error
/// on first output variable") is exactly what triggers slicing.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_CORE_REFERENCEORACLE_H
#define GADT_CORE_REFERENCEORACLE_H

#include "core/Oracle.h"
#include "interp/Interpreter.h"
#include "pascal/AST.h"

#include <memory>

namespace gadt {
namespace analysis {
class CallGraph;
class SideEffectAnalysis;
} // namespace analysis
namespace core {

/// Judges call units against a reference program containing routines with
/// the same names and signatures. Loop and iteration units are answered
/// DontKnow (they have no callable counterpart).
///
/// The oracle stays warm across judgements: one Interpreter over the
/// intended program serves them all (running the program's shared
/// bytecode compile), and each queried name is resolved through the
/// intended program's routine table.
class IntendedProgramOracle : public Oracle {
public:
  /// \p Intended is not owned and must outlive the oracle.
  explicit IntendedProgramOracle(const pascal::Program &Intended,
                                 std::string Source = "user");
  ~IntendedProgramOracle() override;

  Judgement judge(const trace::ExecNode &N) override;

  /// Number of reference executions performed (the simulated user's
  /// "mental evaluations" — the interaction count of the paper).
  unsigned queriesAnswered() const { return Queries; }

private:
  /// Whether \p Traced, an output of \p N that the intended routine \p Ref
  /// did not produce, records a write the intended routine would not make.
  bool isExtraWrite(const trace::ExecNode &N, const pascal::RoutineDecl *Ref,
                    const interp::Binding &Traced);

  const pascal::Program &Intended;
  std::string Source;
  unsigned Queries = 0;
  interp::Interpreter Exec;
  /// The intended program's side effects, built on first need (only
  /// isExtraWrite asks, and only about outputs the intended run lacks).
  std::unique_ptr<analysis::CallGraph> CG;
  std::unique_ptr<analysis::SideEffectAnalysis> Effects;
};

} // namespace core
} // namespace gadt

#endif // GADT_CORE_REFERENCEORACLE_H
