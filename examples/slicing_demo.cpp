//===- slicing_demo.cpp - Slicing end to end (paper Figures 2, 8, 9) ------===//
//
// Shows both faces of the slicing subsystem:
//  1. the classic program slice of Figure 2 — source in, reduced source
//     out; and
//  2. the execution-tree pruning of Section 7 — slice the Figure 4 trace
//     on one erroneous output and print the shrinking trees of Figures
//     8 and 9.
//
//   $ ./slicing_demo
//
//===----------------------------------------------------------------------===//

#include "analysis/SDG.h"
#include "obs/Log.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "slicing/ProgramProjection.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"

#include <cstdio>

using namespace gadt;
using namespace gadt::slicing;

int main() {
  DiagnosticsEngine Diags;

  // --- Figure 2: slice program p on variable mul at the end.
  auto P = pascal::parseAndCheck(workload::Figure2, Diags);
  if (!P) {
    obs::logError("slicing_demo", Diags.str());
    return 1;
  }
  analysis::SDG G(*P);
  StaticSlice Slice = sliceOnProgramVar(G, *P, "mul");
  auto Projected = projectSlice(*P, Slice, Diags);
  if (!Projected) {
    obs::logError("slicing_demo", Diags.str());
    return 1;
  }
  std::printf("=== original program ===\n%s\n",
              pascal::printProgram(*P).c_str());
  std::printf("=== slice on mul (Figure 2b) ===\n%s\n",
              pascal::printProgram(*Projected).c_str());

  // --- Figures 8/9: prune the Figure 4 execution tree.
  auto Fig4 = pascal::parseAndCheck(workload::Figure4Buggy, Diags);
  if (!Fig4)
    return 1;
  analysis::SDG G4(*Fig4);
  interp::ExecResult Res;
  auto Tree = trace::buildExecTree(*Fig4, {}, {}, &Res);
  if (!Res.Ok)
    return 1;

  trace::ExecNode *Computs = nullptr, *Partialsums = nullptr;
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getName() == "computs")
      Computs = N;
    if (N->getName() == "partialsums")
      Partialsums = N;
  });

  SliceSites Sites(G4, *Tree);
  StaticSlice OnR1 = sliceOnRoutineOutput(
      G4, Computs->getRoutine(), "r1");
  std::printf("=== execution tree pruned on computs output r1 "
              "(Figure 8) ===\n%s\n",
              renderPruned(Computs, pruneByStaticSlice(Computs, OnR1, Sites))
                  .c_str());

  StaticSlice OnS2 = sliceOnRoutineOutput(
      G4, Partialsums->getRoutine(), "s2");
  std::printf("=== execution tree pruned on partialsums output s2 "
              "(Figure 9) ===\n%s",
              renderPruned(Partialsums,
                           pruneByStaticSlice(Partialsums, OnS2, Sites))
                  .c_str());
  return 0;
}
