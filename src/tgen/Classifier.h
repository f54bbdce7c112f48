//===- Classifier.h - Concrete input to test frame mapping ------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The debugging-time half of T-GEN integration (paper Section 5.3.2):
/// "For a given input ... a function can be defined which automatically
/// selects the suitable test frame." Here those selector functions are the
/// `when` classifier expressions of the specification, evaluated over
/// *feature variables* derived from the concrete input bindings of an
/// execution-tree node.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_TGEN_CLASSIFIER_H
#define GADT_TGEN_CLASSIFIER_H

#include "interp/Interpreter.h"
#include "tgen/ConstEval.h"
#include "tgen/FrameGen.h"
#include "tgen/TestSpec.h"

#include <optional>
#include <span>
#include <vector>

namespace gadt {
namespace tgen {

/// Derives the feature environment from concrete input bindings:
///  - each integer/boolean input under its own name;
///  - for each array input `a`: `a_len` (element count), and when nonempty
///    `a_min`, `a_max`, `a_spread` (max - min).
ValueEnv extractFeatures(std::span<const interp::Binding> Inputs);

/// Selects, per category, the first choice whose selector holds for the
/// properties accumulated so far and whose `when` classifier is true for
/// \p Features. Returns nullopt when some category has no automatically
/// selectable choice — the case where the paper falls back to asking the
/// user to pick from a menu.
std::optional<TestFrame> classifyFeatures(const TestSpec &Spec,
                                          const ValueEnv &Features);

/// Convenience: features straight from bindings.
std::optional<TestFrame>
classifyInputs(const TestSpec &Spec,
               std::span<const interp::Binding> Inputs);

} // namespace tgen
} // namespace gadt

#endif // GADT_TGEN_CLASSIFIER_H
