//===- ablation_slicing.cpp - Static vs dynamic slicing (X3) --------------===//
//
// Experiment X3 (DESIGN.md): the paper uses static interprocedural slicing
// and cites Kamkar's dynamic variant as under implementation. We compare
// both on execution-tree pruning: how many nodes each retains for the same
// criterion, and what that does to the interaction count. Dynamic slices
// are never larger than static ones (they see one concrete run).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/SDG.h"
#include "core/GADT.h"
#include "core/ReferenceOracle.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/StaticSlicer.h"
#include "slicing/TreePruner.h"
#include "trace/ExecTreeBuilder.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

using namespace gadt;
using namespace gadt::core;
using namespace gadt::slicing;

namespace {

/// Retained-node comparison on one criterion node/output.
void compareRetention(const char *Label, const pascal::Program &P,
                      const std::string &Unit, const std::string &Output,
                      bench::Expectations &E) {
  analysis::SDG G(P);
  interp::InterpOptions Opts;
  Opts.TrackDeps = true;
  interp::ExecResult Res;
  auto Tree = trace::buildExecTree(P, Opts, {}, &Res);
  if (!Res.Ok)
    std::exit(2);
  trace::ExecNode *Criterion = nullptr;
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (!Criterion && N->getName() == Unit)
      Criterion = N;
  });
  if (!Criterion)
    std::exit(2);

  unsigned Total = Criterion->subtreeSize();
  StaticSlice SSlice = sliceOnRoutineOutput(G, Criterion->getRoutine(),
                                            Output);
  unsigned StaticKept = countRetained(
      Criterion,
      pruneByStaticSlice(Criterion, SSlice, SliceSites(G, *Tree)));
  unsigned DynamicKept =
      countRetained(Criterion, dynamicSlice(Criterion, Output));
  std::printf("%-22s %-14s %9u %9u %9u\n", Label,
              (Unit + "." + Output).c_str(), Total, StaticKept,
              DynamicKept);
  E.expect(DynamicKept <= StaticKept,
           std::string(Label) + ": dynamic slice is at most the static one");
  E.expect(StaticKept <= Total, "slices never add nodes");
}

} // namespace

int main() {
  bench::Expectations E;
  std::printf("X3: execution-tree nodes retained by slice variant\n\n");
  std::printf("%-22s %-14s %9s %9s %9s\n", "subject", "criterion",
              "subtree", "static", "dynamic");

  auto Fig4 = bench::compileOrDie(workload::Figure4Buggy);
  compareRetention("figure4", *Fig4, "computs", "r1", E);
  compareRetention("figure4", *Fig4, "partialsums", "s2", E);
  compareRetention("figure4", *Fig4, "sqrtest", "isok", E);

  workload::ProgramPair Wide = workload::wideIrrelevantProgram(16);
  auto WideProg = bench::compileOrDie(Wide.Buggy);
  compareRetention("wide-16", *WideProg, "p", "b", E);

  // A branch-dependent subject where only the dynamic slice can drop the
  // untaken call.
  const char *Branchy =
      "program b; var x, r: integer;"
      "function f(a: integer): integer; begin f := a + 1; end;"
      "function g(a: integer): integer; begin g := a + 2; end;"
      "procedure pick(sel: integer; var out1: integer);"
      "var t: integer;"
      "begin t := f(sel); if sel > 0 then out1 := t else out1 := g(sel);"
      "end;"
      "begin x := 0 - 5; pick(x, r); writeln(r); end.";
  auto BranchyProg = bench::compileOrDie(Branchy);
  compareRetention("branchy", *BranchyProg, "pick", "out1", E);

  // End-to-end interaction comparison on the paper session.
  std::printf("\nuser queries on the Figure 4 session: ");
  unsigned Queries[2];
  int Index = 0;
  for (SliceMode Mode : {SliceMode::Static, SliceMode::Dynamic}) {
    DiagnosticsEngine Diags;
    GADTOptions Opts;
    Opts.Debugger.Slicing = Mode;
    GADTSession Session(*Fig4, Opts, Diags);
    if (!Session.valid())
      return 2;
    auto Fixed = bench::compileOrDie(workload::Figure4Fixed);
    IntendedProgramOracle User(*Fixed);
    BugReport R = Session.debug(User);
    E.expect(R.Found && R.UnitName == "decrement", "bug found");
    Queries[Index++] = Session.stats().userQueries();
  }
  std::printf("static=%u dynamic=%u\n", Queries[0], Queries[1]);
  E.expect(Queries[1] <= Queries[0],
           "dynamic slicing never needs more interactions here");
  return E.finish("ablation_slicing");
}
