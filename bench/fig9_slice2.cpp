//===- fig9_slice2.cpp - Reproduce paper Figure 9 -------------------------===//
//
// Experiment F9 (DESIGN.md): after the user reports "no, error on second
// output variable" for partialsums(In y: 3, Out s1: 6, Out s2: 6), slice
// on s2 — the paper's Figure 9: only the sum2/decrement path survives.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/SDG.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"

using namespace gadt;
using namespace gadt::slicing;

static const char *const ExpectedTree =
    R"(partialsums(In y: 3, Out s1: 6, Out s2: 6)
  sum2(In y: 3, Out s2: 6)
    decrement(In y: 3)=4
)";

int main() {
  bench::Expectations E;
  auto Prog = bench::compileOrDie(workload::Figure4Buggy);
  analysis::SDG G(*Prog);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true; // also exercise the dynamic variant
  interp::ExecResult Res;
  auto Tree = trace::buildExecTree(*Prog, Opts, {}, &Res);

  trace::ExecNode *Partialsums = nullptr;
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getName() == "partialsums")
      Partialsums = N;
  });
  if (!Partialsums)
    return 2;

  StaticSlice Slice =
      sliceOnRoutineOutput(G, Partialsums->getRoutine(), "s2");
  auto KeptStatic =
      pruneByStaticSlice(Partialsums, Slice, SliceSites(G, *Tree));
  auto KeptDynamic = dynamicSlice(Partialsums, "s2");
  std::string RenderedStatic = renderPruned(Partialsums, KeptStatic);
  std::string RenderedDynamic = renderPruned(Partialsums, KeptDynamic);

  std::printf("Figure 9: execution tree after the second slice (on "
              "partialsums output s2)\n\nstatic slicing:\n%s\n"
              "dynamic slicing:\n%s\n",
              RenderedStatic.c_str(), RenderedDynamic.c_str());

  E.expect(RenderedStatic == ExpectedTree,
           "static pruning matches the paper's Figure 9");
  E.expect(RenderedDynamic == ExpectedTree,
           "dynamic pruning agrees on this example");
  E.expect(countRetained(Partialsums, KeptStatic) == 3,
           "sum1 and increment are sliced away");
  return E.finish("fig9_slice2");
}
