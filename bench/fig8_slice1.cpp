//===- fig8_slice1.cpp - Reproduce paper Figure 8 -------------------------===//
//
// Experiment F8 (DESIGN.md): after the user reports "no, error on first
// output variable" for computs(In y: 3, Out r1: 12, Out r2: 9), slice on
// r1 and print the pruned execution tree — the paper's Figure 8: from
// computs downward only the comput1 subtree is retained.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/SDG.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"

using namespace gadt;
using namespace gadt::slicing;

static const char *const ExpectedTree =
    R"(computs(In y: 3, Out r1: 12, Out r2: 9)
  comput1(In y: 3, Out r1: 12)
    partialsums(In y: 3, Out s1: 6, Out s2: 6)
      sum1(In y: 3, Out s1: 6)
        increment(In y: 3)=4
      sum2(In y: 3, Out s2: 6)
        decrement(In y: 3)=4
    add(In s1: 6, In s2: 6, Out r1: 12)
)";

int main() {
  bench::Expectations E;
  auto Prog = bench::compileOrDie(workload::Figure4Buggy);
  analysis::SDG G(*Prog);
  interp::ExecResult Res;
  auto Tree = trace::buildExecTree(*Prog, {}, {}, &Res);

  trace::ExecNode *Computs = nullptr;
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getName() == "computs")
      Computs = N;
  });
  if (!Computs)
    return 2;

  unsigned Before = Computs->subtreeSize();
  StaticSlice Slice = sliceOnRoutineOutput(G, Computs->getRoutine(), "r1");
  auto Kept = pruneByStaticSlice(Computs, Slice, SliceSites(G, *Tree));
  std::string Rendered = renderPruned(Computs, Kept);

  std::printf("Figure 8: execution tree after slicing on computs output "
              "r1\n\n%s\n",
              Rendered.c_str());
  std::printf("subtree before: %u nodes, after: %u nodes\n", Before,
              countRetained(Computs, Kept));

  E.expect(Rendered == ExpectedTree, "tree matches the paper's Figure 8");
  E.expect(Before == 10 && countRetained(Computs, Kept) == 8,
           "comput2 and square are sliced away");
  return E.finish("fig8_slice1");
}
