//===- BytecodeTest.cpp - Bytecode tier differential and unit tests -------===//
//
// The bytecode tier's contract is *observational equivalence*: for every
// program it accepts, a bytecode execution must be byte-identical to the
// tree walker's — same ExecResult, same serialized execution tree, same
// dynamic slices — under every tracing flag combination. These tests sweep
// that contract over the synthetic workload corpus and the paper programs,
// and pin the tier-selection mechanics (fallback on unsupported programs,
// tier counters, injected pre-compiled code).
//
// The cell-arena free-list obligations ride along at the bottom: handle
// reuse across scope exits and watermark reset across sessions are what
// make both tiers' storage layer O(live cells), and both tiers share it.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "analysis/SideEffects.h"
#include "bytecode/Bytecode.h"
#include "bytecode/Passes.h"
#include "interp/CallMemo.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"
#include "pascal/Frontend.h"
#include "pascal/PrettyPrinter.h"
#include "slicing/DynamicSlicer.h"
#include "trace/ExecTreeBuilder.h"
#include "transform/Transform.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::workload;

namespace {

std::unique_ptr<pascal::Program> compile(const std::string &Src) {
  DiagnosticsEngine Diags;
  auto Prog = pascal::parseAndCheck(Src, Diags);
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  return Prog;
}

/// Deterministic program input, long enough for every corpus program;
/// reads past the end fail identically in both tiers.
std::vector<int64_t> corpusInput() {
  return {3, 7, 2, 9, 4, 1, 8, 5, 6, 10, 11, 13, 12, 15, 14, 17};
}

std::string escapeLine(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\\')
      Out += "\\\\";
    else
      Out += C;
  }
  return Out;
}

/// Renders one (program, options) execution — result, tree, and every
/// dynamic slice — exactly as GoldenDifferentialTest does, so a transcript
/// mismatch localizes to the same observable the goldens pin.
std::string renderRun(const pascal::Program &Prog, const InterpOptions &Opts) {
  Interpreter I(Prog, Opts);
  I.setInput(corpusInput());
  trace::ExecTreeBuilder Builder;
  I.setListener(&Builder);
  ExecResult R = I.run();
  auto Tree = Builder.takeTree();

  std::ostringstream Out;
  Out << "ok: " << (R.Ok ? 1 : 0) << "\n";
  if (!R.Ok)
    Out << "error: " << R.Error.Loc.Line << ":" << R.Error.Loc.Column << " "
        << escapeLine(R.Error.Message) << "\n";
  Out << "output: " << escapeLine(R.Output) << "\n";
  Out << "steps: " << R.Steps << "\n";
  Out << "units: " << R.UnitsExecuted << "\n";
  for (const Binding &B : R.FinalGlobals)
    Out << "global " << B.Name << " = " << B.V.str() << "\n";
  Out << "tree:\n" << (Tree && Tree->getRoot() ? Tree->str() : "<none>\n");

  if (Opts.TrackDeps && Tree && Tree->getRoot()) {
    Out << "slices:\n";
    for (uint32_t Id = 1; Id <= R.UnitsExecuted; ++Id) {
      const trace::ExecNode *N = Tree->node(Id);
      if (!N)
        continue;
      for (const Binding &B : N->getOutputs()) {
        auto Kept = slicing::dynamicSlice(N, B.Name);
        Out << "slice " << Id << "." << B.Name << ":";
        for (uint32_t K : Kept.ids())
          Out << " " << K;
        Out << "\n";
      }
    }
  }
  return Out.str();
}

/// Sweeps all 16 flag combinations, comparing tree- and bytecode-tier
/// transcripts line by line (line diffs localize better than one giant
/// string mismatch).
void expectTiersAgree(const pascal::Program &Prog, const std::string &Label) {
  for (int Mask = 0; Mask < 16; ++Mask) {
    InterpOptions Opts;
    Opts.TraceLoops = (Mask & 1) != 0;
    Opts.TraceIterations = (Mask & 2) != 0;
    Opts.TrackDeps = (Mask & 4) != 0;
    Opts.DetectUninitialized = (Mask & 8) != 0;

    Opts.Tier = ExecTier::Tree;
    std::string TreeSide = renderRun(Prog, Opts);
    Opts.Tier = ExecTier::Bytecode;
    std::string VMSide = renderRun(Prog, Opts);

    if (TreeSide == VMSide)
      continue;
    std::istringstream A(TreeSide), B(VMSide);
    std::string LA, LB;
    unsigned Line = 0;
    while (std::getline(A, LA) && std::getline(B, LB)) {
      ++Line;
      ASSERT_EQ(LA, LB) << Label << " combo " << Mask << " line " << Line;
    }
    FAIL() << Label << " combo " << Mask
           << ": transcripts differ in length only";
  }
}

void expectTiersAgreeOnSource(const std::string &Src,
                              const std::string &Label) {
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog != nullptr);
  expectTiersAgree(*Prog, Label);
}

//===----------------------------------------------------------------------===//
// Differential sweep: tree walker vs bytecode VM
//===----------------------------------------------------------------------===//

TEST(BytecodeDifferential, PaperFigure4) {
  expectTiersAgreeOnSource(Figure4Buggy, "figure4-buggy");
  expectTiersAgreeOnSource(Figure4Fixed, "figure4-fixed");
}

TEST(BytecodeDifferential, ChainPrograms) {
  ProgramPair P = chainProgram(6, 2);
  expectTiersAgreeOnSource(P.Fixed, "chain6-fixed");
  expectTiersAgreeOnSource(P.Buggy, "chain6-buggy");
}

TEST(BytecodeDifferential, TreeAndWidePrograms) {
  expectTiersAgreeOnSource(treeProgram(3).Buggy, "tree3-buggy");
  expectTiersAgreeOnSource(wideIrrelevantProgram(8).Buggy, "wide8-buggy");
}

TEST(BytecodeDifferential, SummaryMesh) {
  expectTiersAgreeOnSource(summaryMeshProgram(2, 3).Buggy, "mesh2x3-buggy");
}

TEST(BytecodeDifferential, IntegerOverflowWrapsInBothTiers) {
  // Pascal integers are 64-bit two's complement that wrap on overflow, in
  // both engines and in the constant folder; INT64_MIN div -1 is INT64_MIN
  // and INT64_MIN mod -1 is 0, where host division raises SIGFPE. A for
  // loop whose limit is INT64_MAX (or INT64_MIN downward) stops there
  // rather than wrapping past it.
  const std::string Src = "program p;\n"
                          "var x, y, z, w, i, n: integer;\n"
                          "function neg(a: integer): integer;\n"
                          "begin neg := -a end;\n"
                          "begin\n"
                          "  x := 1;\n"
                          "  for i := 1 to 63 do x := x * 2;\n"
                          "  y := x div (0 - 1);\n"
                          "  z := x mod (0 - 1);\n"
                          "  w := 4611686018427387904 * 4 + neg(x) + (x - 1);\n"
                          "  writeln(x); writeln(y); writeln(z); writeln(w);\n"
                          "  n := 0;\n"
                          "  for i := 9223372036854775806 to 9223372036854775807"
                          " do n := n + 1;\n"
                          "  writeln(i);\n"
                          "  for i := x + 1 downto x do n := n + 1;\n"
                          "  writeln(i); writeln(n)\n"
                          "end.";
  auto Prog = compile(Src);
  ASSERT_TRUE(Prog);
  expectTiersAgree(*Prog, "overflow");
  for (ExecTier Tier : {ExecTier::Tree, ExecTier::Bytecode}) {
    InterpOptions Opts;
    Opts.Tier = Tier;
    Interpreter I(*Prog, Opts);
    ExecResult R = I.run();
    ASSERT_TRUE(R.Ok) << R.Error.Message;
    // x = y = INT64_MIN, z = 0, w = 0 + INT64_MIN + INT64_MAX = -1; each
    // loop runs twice and leaves i at its limit.
    EXPECT_EQ(R.Output, "-9223372036854775808\n-9223372036854775808\n0\n"
                        "-1\n9223372036854775807\n-9223372036854775808\n"
                        "4\n");
  }
}

/// Seeded random programs; odd seeds are goto-free (bytecode executes
/// them), even seeds plant non-local gotos (the bytecode tier falls back
/// to the tree walker, which must be just as transcript-identical).
class BytecodeSeededDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BytecodeSeededDifferential, RandomProgram) {
  uint32_t Seed = GetParam();
  SyntheticOptions Opts;
  Opts.Seed = Seed * 17 + 5;
  Opts.NumRoutines = 4 + Seed % 4;
  Opts.NumGlobals = 2 + Seed % 3;
  Opts.StmtsPerRoutine = 4 + Seed % 3;
  Opts.UseGotos = (Seed % 2) == 0;
  ProgramPair P = randomProgram(Opts);
  expectTiersAgreeOnSource(P.Buggy, "seed" + std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeSeededDifferential,
                         ::testing::Range(1u, 9u));

//===----------------------------------------------------------------------===//
// Tier selection mechanics
//===----------------------------------------------------------------------===//

TEST(BytecodeTier, CountsBytecodeRuns) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  obs::Counter &C = obs::Registry::global().counter("interp.tier.bytecode");
  uint64_t Before = C.value();
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(C.value(), Before + 1);
}

TEST(BytecodeTier, FallsBackOnNonLocalGoto) {
  // Non-local goto: label in the main program, goto inside a procedure.
  // The compiler rejects it, so a Bytecode-tier request runs the tree
  // walker — correctly, and with the fallback counter bumped.
  const char *Src = "program p;\n"
                    "label 9;\n"
                    "var x: integer;\n"
                    "procedure q;\n"
                    "begin\n"
                    "  goto 9\n"
                    "end;\n"
                    "begin\n"
                    "  x := 1;\n"
                    "  q;\n"
                    "  x := 2;\n"
                    "9:\n"
                    "  writeln(x)\n"
                    "end.";
  auto Prog = compile(Src);
  std::string WhyNot;
  EXPECT_EQ(bytecode::compile(*Prog, false, &WhyNot), nullptr);
  EXPECT_FALSE(WhyNot.empty());

  obs::Counter &Fallback =
      obs::Registry::global().counter("interp.tier.fallback");
  uint64_t Before = Fallback.value();
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_EQ(R.Output, "1\n");
  EXPECT_EQ(Fallback.value(), Before + 1);
}

TEST(BytecodeTier, TreeTierRequestNeverCompiles) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  obs::Counter &C = obs::Registry::global().counter("interp.tier.tree");
  uint64_t Before = C.value();
  InterpOptions Opts;
  Opts.Tier = ExecTier::Tree;
  Interpreter I(*Prog, Opts);
  ASSERT_TRUE(I.run().Ok);
  EXPECT_EQ(C.value(), Before + 1);
}

TEST(BytecodeTier, InjectedCodeIsUsed) {
  auto Prog = compile(chainProgram(4, 2).Fixed);
  auto Code = bytecode::compile(*Prog, /*Checked=*/false);
  ASSERT_TRUE(Code != nullptr);

  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Opts.Code = Code;
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_TRUE(R.Ok) << R.Error.Message;

  // Same program through the tree walker: identical observable result.
  InterpOptions TreeOpts;
  TreeOpts.Tier = ExecTier::Tree;
  Interpreter T(*Prog, TreeOpts);
  ExecResult RT = T.run();
  ASSERT_TRUE(RT.Ok);
  EXPECT_EQ(R.Output, RT.Output);
  EXPECT_EQ(R.Steps, RT.Steps);
  EXPECT_EQ(R.UnitsExecuted, RT.UnitsExecuted);
}

TEST(BytecodeTier, MismatchedInjectedCodeIsIgnored) {
  // Injected code compiled for the *unchecked* mode must not be used by a
  // DetectUninitialized run; the interpreter compiles privately instead,
  // and the strict check still fires.
  const char *Src = "program p;\n"
                    "var x, y: integer;\n"
                    "begin\n"
                    "  y := x;\n"
                    "  writeln(y)\n"
                    "end.";
  auto Prog = compile(Src);
  auto Unchecked = bytecode::compile(*Prog, /*Checked=*/false);
  ASSERT_TRUE(Unchecked != nullptr);

  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Opts.DetectUninitialized = true;
  Opts.Code = Unchecked; // wrong mode on purpose
  Interpreter I(*Prog, Opts);
  ExecResult R = I.run();
  ASSERT_FALSE(R.Ok);
  EXPECT_NE(R.Error.Message.find("x"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Compiled-program shape
//===----------------------------------------------------------------------===//

TEST(BytecodeCompile, CheckedAndUncheckedDiffer) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  auto Plain = bytecode::compile(*Prog, false);
  auto Checked = bytecode::compile(*Prog, true);
  ASSERT_TRUE(Plain != nullptr);
  ASSERT_TRUE(Checked != nullptr);
  EXPECT_FALSE(Plain->Checked);
  EXPECT_TRUE(Checked->Checked);
  EXPECT_EQ(Plain->Prog, Prog.get());
  EXPECT_GT(Plain->memoryBytes(), 0u);
}

TEST(BytecodeCompile, ArgPoolCoversEverySite) {
  auto Prog = compile(summaryMeshProgram(2, 3).Fixed);
  auto Code = bytecode::compile(*Prog, false);
  ASSERT_TRUE(Code != nullptr);
  ASSERT_FALSE(Code->Sites.empty());
  for (const bytecode::CallSiteInfo &Site : Code->Sites) {
    EXPECT_LE(static_cast<size_t>(Site.ArgStart) + Site.ArgCount,
              Code->ArgPool.size());
    // Mesh procedures take two value and two var parameters.
    EXPECT_EQ(Site.ArgCount, 4u);
  }
}

//===----------------------------------------------------------------------===//
// Cell-arena free list (shared storage substrate, both tiers)
//===----------------------------------------------------------------------===//

/// A program whose calls enter and exit repeatedly: every exit returns the
/// callee's cells to the pool, every subsequent call must reuse them.
const char *PoolSrc = "program p;\n"
                      "var i, acc: integer;\n"
                      "function f(n: integer): integer;\n"
                      "var a, b, c: integer;\n"
                      "begin\n"
                      "  a := n + 1; b := a * 2; c := b - n; f := c\n"
                      "end;\n"
                      "begin\n"
                      "  acc := 0;\n"
                      "  for i := 1 to 50 do acc := acc + f(i);\n"
                      "  writeln(acc)\n"
                      "end.";

TEST(CellArena, FreeListRecyclesHandlesAcrossCalls) {
  auto Prog = compile(PoolSrc);
  obs::Counter &Pooled =
      obs::Registry::global().counter("interp.cells.pooled");
  for (ExecTier Tier : {ExecTier::Tree, ExecTier::Bytecode}) {
    uint64_t Before = Pooled.value();
    InterpOptions Opts;
    Opts.Tier = Tier;
    Interpreter I(*Prog, Opts);
    ASSERT_TRUE(I.run().Ok);
    // 50 calls x 5 cells (param + 3 locals + result): all but the first
    // call's allocations must come from the free list.
    EXPECT_GE(Pooled.value() - Before, 49u * 5u)
        << "tier " << static_cast<int>(Tier);
  }
}

TEST(CellArena, WatermarkResetsAcrossSessions) {
  auto Prog = compile(PoolSrc);
  obs::Counter &Pooled =
      obs::Registry::global().counter("interp.cells.pooled");
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Interpreter I(*Prog, Opts);
  I.setInput(corpusInput());
  ExecResult First = I.run();
  ASSERT_TRUE(First.Ok);

  // Second session on the same Interpreter: reset() must restart the
  // arena watermark, so the run is observably identical (same output,
  // same steps) and pools at least as many handles as the first.
  uint64_t Before = Pooled.value();
  ExecResult Second = I.run();
  ASSERT_TRUE(Second.Ok);
  EXPECT_EQ(First.Output, Second.Output);
  EXPECT_EQ(First.Steps, Second.Steps);
  EXPECT_EQ(First.UnitsExecuted, Second.UnitsExecuted);
  EXPECT_GE(Pooled.value() - Before, 49u * 5u);
}

//===----------------------------------------------------------------------===//
// Optimizer pass pipeline
//===----------------------------------------------------------------------===//

/// A loop-heavy subject exercising everything the pipeline targets:
/// constant subexpressions (folding), temporaries left dead by folding
/// (overwritten-before-read elision), and the dominant fusable pairs.
const char *OptSubjectSrc =
    "program optsubject;\n"
    "var i, a, b, s: integer;\n"
    "begin\n"
    "  s := 0;\n"
    "  i := 0;\n"
    "  while i < 20 do\n"
    "  begin\n"
    "    a := (i * (2 + 1) + (10 - 3)) - (i - 2) * (4 - 2);\n"
    "    b := (a + i) * (8 - 6) - (a - (3 * 4 - 7));\n"
    "    s := s + b - (a - b) * (6 - 5);\n"
    "    i := i + 1\n"
    "  end;\n"
    "  writeln(s)\n"
    "end.";

/// The pass-pipeline analogue of expectTiersAgree: tree transcripts vs the
/// bytecode tier running explicitly compiled code for every CompileOptions
/// combination, under all 16 tracing-flag masks. The passes must be
/// transcript-invisible — byte-identical results, trees and slices.
void expectPassesPreserveTranscripts(const pascal::Program &Prog,
                                     const std::string &Label) {
  for (int Mask = 0; Mask < 16; ++Mask) {
    InterpOptions Opts;
    Opts.TraceLoops = (Mask & 1) != 0;
    Opts.TraceIterations = (Mask & 2) != 0;
    Opts.TrackDeps = (Mask & 4) != 0;
    Opts.DetectUninitialized = (Mask & 8) != 0;

    Opts.Tier = ExecTier::Tree;
    std::string TreeSide = renderRun(Prog, Opts);

    for (int Combo = 0; Combo < 4; ++Combo) {
      bytecode::CompileOptions CO;
      CO.Optimize = (Combo & 1) != 0;
      CO.Fuse = (Combo & 2) != 0;
      std::string Why;
      auto Code =
          bytecode::compile(Prog, Opts.DetectUninitialized, CO, &Why);
      ASSERT_TRUE(Code != nullptr) << Label << ": " << Why;

      Opts.Tier = ExecTier::Bytecode;
      Opts.Code = Code;
      std::string VMSide = renderRun(Prog, Opts);
      Opts.Code = nullptr;
      ASSERT_EQ(TreeSide, VMSide)
          << Label << " combo " << Mask << " opt=" << CO.Optimize
          << " fuse=" << CO.Fuse;
    }
  }
}

TEST(OptimizerDifferential, PaperPrograms) {
  auto Prog = compile(Figure4Buggy);
  expectPassesPreserveTranscripts(*Prog, "figure4-buggy");
}

TEST(OptimizerDifferential, LoopHeavySubject) {
  auto Prog = compile(OptSubjectSrc);
  expectPassesPreserveTranscripts(*Prog, "optsubject");
}

TEST(OptimizerDifferential, CorpusPrograms) {
  auto Chain = compile(chainProgram(6, 2).Buggy);
  expectPassesPreserveTranscripts(*Chain, "chain6-buggy");
  auto Mesh = compile(summaryMeshProgram(2, 3).Buggy);
  expectPassesPreserveTranscripts(*Mesh, "mesh2x3-buggy");
}

TEST(OptimizerPasses, StatsReportWorkOnLoopHeavySubject) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO; // both passes on by default
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);
  EXPECT_GT(Code->Opt.Folded, 0u);
  EXPECT_GT(Code->Opt.Overwritten, 0u);
  EXPECT_GT(Code->Opt.Fused, 0u);

  CO.Optimize = false;
  CO.Fuse = false;
  auto Plain = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Plain != nullptr);
  EXPECT_EQ(Plain->Opt.Folded, 0u);
  EXPECT_EQ(Plain->Opt.Overwritten, 0u);
  EXPECT_EQ(Plain->Opt.DeadStores, 0u);
  EXPECT_EQ(Plain->Opt.Fused, 0u);
  // The pipeline must strictly shrink this routine.
  EXPECT_LT(Code->Routines[0].Code.size(), Plain->Routines[0].Code.size());
}

/// optimizeRoutine on hand-built code: precise pass-by-pass obligations.
/// Operand encodings per Bytecode.h: registers are raw indices (OpReg mode
/// is zero), constants are OpConst | pool index, cells OpCell | slot.
TEST(OptimizerPasses, OverwrittenWriteElision) {
  using bytecode::Instr;
  using bytecode::Op;
  const uint16_t C0 = bytecode::OpConst | 0;
  const uint16_t C1 = bytecode::OpConst | 1;
  const uint16_t Cell0 = bytecode::OpCell | 0;
  std::vector<interp::Value> Consts = {interp::Value::makeInt(1),
                                       interp::Value::makeInt(2)};
  std::vector<bytecode::CallSiteInfo> Sites;
  std::vector<bytecode::ArgDesc> Args;
  bytecode::CompileOptions CO;
  CO.Fuse = false;

  // A const load clobbered by a cell load before any read: the const load
  // is dead and must go, the clobberer and its reader stay.
  std::vector<Instr> Code = {{Op::Load, 0, C0, 0, 0},
                             {Op::Load, 0, Cell0, 0, 0},
                             {Op::Store, Cell0, 0, 0, 0}};
  bytecode::OptStats St;
  bytecode::optimizeRoutine(Code, 1, Consts, 0, Sites, Args, CO, St);
  EXPECT_EQ(St.Overwritten, 1u);
  ASSERT_EQ(Code.size(), 2u);
  EXPECT_EQ(Code[0].Code, Op::Load);
  EXPECT_EQ(Code[0].B, Cell0);

  // A cell-sourced load in the clobbered position must survive the
  // overwritten-write pass: the read is observable (dynamic input sets),
  // even though the register value is dead. (The follow-up const load is
  // propagated into the Store and then removed as never-read — that is
  // the global pass's count, not Overwritten.)
  Code = {{Op::Load, 0, Cell0, 0, 0},
          {Op::Load, 0, C1, 0, 0},
          {Op::Store, Cell0, 0, 0, 0}};
  St = {};
  bytecode::optimizeRoutine(Code, 1, Consts, 0, Sites, Args, CO, St);
  EXPECT_EQ(St.Overwritten, 0u);
  ASSERT_GE(Code.size(), 2u);
  EXPECT_EQ(Code[0].Code, Op::Load);
  EXPECT_EQ(Code[0].B, Cell0);
  EXPECT_EQ(Code.back().Code, Op::Store);
}

TEST(OptimizerPasses, ElisionChainsIntoDeadStorePass) {
  using bytecode::Instr;
  using bytecode::Op;
  const uint16_t C0 = bytecode::OpConst | 0;
  const uint16_t C1 = bytecode::OpConst | 1;
  const uint16_t Cell0 = bytecode::OpCell | 0;
  std::vector<interp::Value> Consts = {interp::Value::makeInt(0),
                                       interp::Value::makeInt(5)};
  std::vector<bytecode::CallSiteInfo> Sites;
  std::vector<bytecode::ArgDesc> Args;
  bytecode::CompileOptions CO;
  CO.Fuse = false;

  // r0 feeds only the Add; the Add's destination r1 is clobbered by the
  // const load. Eliding the Add (overwritten) leaves r0 never read for
  // the global dead-store pass, and constant propagation sinks C1 into
  // the Store — the whole chain must collapse to the lone Store.
  std::vector<Instr> Code = {{Op::Load, 0, C0, 0, 0},
                             {Op::Add, 1, 0, 0, 0},
                             {Op::Load, 1, C1, 0, 0},
                             {Op::Store, Cell0, 1, 0, 0}};
  bytecode::OptStats St;
  bytecode::optimizeRoutine(Code, 2, Consts, 0, Sites, Args, CO, St);
  ASSERT_EQ(Code.size(), 1u);
  EXPECT_EQ(Code.back().Code, Op::Store);
}

//===----------------------------------------------------------------------===//
// Superinstruction fusion
//===----------------------------------------------------------------------===//

TEST(Superinstructions, FusionEmitsFusedOpcodes) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO;
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);

  unsigned CmpWhile = 0, BinStore = 0, StepLoad = 0, LoadBin = 0;
  for (const auto &CR : Code->Routines)
    for (const bytecode::Instr &I : CR.Code) {
      CmpWhile += I.Code == bytecode::Op::CmpWhile;
      BinStore += I.Code == bytecode::Op::BinStore;
      StepLoad += I.Code == bytecode::Op::StepLoad;
      LoadBin += I.Code == bytecode::Op::LoadBin;
    }
  EXPECT_GT(CmpWhile, 0u) << "cmp+while pair not fused";
  EXPECT_GT(BinStore, 0u) << "binop+store pair not fused";
  EXPECT_GT(StepLoad, 0u) << "step+load pair not fused";
  EXPECT_GT(LoadBin, 0u) << "load+binop pair not fused";

  CO.Fuse = false;
  auto Plain = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Plain != nullptr);
  for (const auto &CR : Plain->Routines)
    for (const bytecode::Instr &I : CR.Code)
      EXPECT_TRUE(I.Code != bytecode::Op::CmpBr &&
                  I.Code != bytecode::Op::CmpWhile &&
                  I.Code != bytecode::Op::BinStore &&
                  I.Code != bytecode::Op::StepLoad &&
                  I.Code != bytecode::Op::LoadBin)
          << "fused opcode emitted with fusion disabled";
}

/// Every fused instruction's packed fields must decode to a well-formed
/// unfused pair: a valid embedded opcode kind and in-range operands. This
/// is the round-trip the VM handlers rely on blindly.
TEST(Superinstructions, FusedOperandsDecodeToValidPairs) {
  auto IsPureBinKind = [](uint16_t K) {
    auto O = static_cast<bytecode::Op>(K);
    return O == bytecode::Op::Add || O == bytecode::Op::Sub ||
           O == bytecode::Op::Mul ||
           (O >= bytecode::Op::EqI && O <= bytecode::Op::OrB);
  };
  auto IsCmpKind = [](uint16_t K) {
    auto O = static_cast<bytecode::Op>(K);
    return O >= bytecode::Op::EqI && O <= bytecode::Op::OrB;
  };

  for (const std::string &Src :
       {std::string(OptSubjectSrc), chainProgram(6, 2).Buggy,
        summaryMeshProgram(2, 3).Buggy}) {
    auto Prog = compile(Src);
    bytecode::CompileOptions CO;
    auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
    ASSERT_TRUE(Code != nullptr);
    for (const auto &CR : Code->Routines)
      for (const bytecode::Instr &I : CR.Code)
        switch (I.Code) {
        case bytecode::Op::CmpBr:
        case bytecode::Op::CmpWhile:
          EXPECT_TRUE(IsCmpKind(I.A)) << "bad embedded cmp kind " << I.A;
          EXPECT_LE(I.Aux, CR.Code.size()) << "branch target out of range";
          break;
        case bytecode::Op::BinStore:
          EXPECT_TRUE(IsPureBinKind(static_cast<uint16_t>(I.Aux)))
              << "bad embedded binop kind " << I.Aux;
          break;
        case bytecode::Op::LoadBin:
          EXPECT_TRUE(IsPureBinKind(static_cast<uint16_t>(I.Aux & 0xffff)))
              << "bad embedded binop kind " << (I.Aux & 0xffff);
          EXPECT_LE(I.Aux >> 16, 1u) << "bad operand-side flag";
          // The destination doubles as the loaded temporary; the other
          // operand must never alias it, or the fused fetch order would
          // read the clobbered value.
          if ((I.C & bytecode::OpModeMask) == bytecode::OpReg)
            EXPECT_NE(I.C, I.A);
          break;
        case bytecode::Op::StepLoad:
          EXPECT_LT(I.Aux, Code->Debug.size()) << "debug index out of range";
          break;
        default:
          break;
        }
  }
}

TEST(Superinstructions, StaticPairFrequenciesRanked) {
  auto Prog = compile(OptSubjectSrc);
  bytecode::CompileOptions CO;
  CO.Fuse = false; // measure the unfused stream the fusion pass sees
  auto Code = bytecode::compile(*Prog, /*Checked=*/false, CO, nullptr);
  ASSERT_TRUE(Code != nullptr);
  auto Pairs = bytecode::staticPairFrequencies(*Code);
  ASSERT_FALSE(Pairs.empty());
  for (size_t K = 1; K < Pairs.size(); ++K)
    EXPECT_GE(Pairs[K - 1].second, Pairs[K].second) << "not sorted";
}

//===----------------------------------------------------------------------===//
// Routine entry: callRoutine on both tiers
//===----------------------------------------------------------------------===//

/// Renders everything a CallOutcome carries: Ok, the error, the outputs
/// in order with their values, and the output text.
std::string renderOutcome(const CallOutcome &C) {
  std::ostringstream Out;
  Out << "ok: " << C.Ok << "\n";
  if (!C.Ok)
    Out << "error: " << C.Error.Loc.Line << ":" << C.Error.Loc.Column << " "
        << escapeLine(C.Error.Message) << "\n";
  for (const Binding &B : C.Outputs)
    Out << "out " << B.Name << " = " << B.V.str() << "\n";
  Out << "output: " << escapeLine(C.Output) << "\n";
  return Out.str();
}

/// Renders a fresh interpreter's outcome of the call, plus the unit events
/// raised on the way (the listener sees the callee as the root unit).
std::string renderCall(const pascal::Program &Prog, InterpOptions Opts,
                       const pascal::RoutineDecl *R,
                       const std::vector<Value> &Args,
                       const std::vector<Binding> &Presets) {
  std::ostringstream Out;
  for (bool Listen : {false, true}) {
    Interpreter I(Prog, Opts);
    trace::ExecTreeBuilder Builder;
    if (Listen)
      I.setListener(&Builder);
    Out << renderOutcome(I.callRoutine(R, Args, Presets));
    if (Listen) {
      auto Tree = Builder.takeTree();
      Out << "tree:\n"
          << (Tree && Tree->getRoot() ? Tree->str() : "<none>\n");
    }
  }
  return Out.str();
}

struct CallCase {
  const pascal::RoutineDecl *R;
  std::vector<Value> Args;
  std::vector<Binding> Presets;
};

/// A direct call of every call node of \p Prog's own trace, in preorder,
/// with inputs assembled as IntendedProgramOracle does: parameters by
/// name, every other input as a global preset. Routines the trace never
/// reaches follow, called with default arguments.
std::vector<CallCase> judgedCalls(const pascal::Program &Prog) {
  std::vector<const pascal::RoutineDecl *> Routines;
  pascal::forEachRoutine(Prog.getMain(), [&](pascal::RoutineDecl *R) {
    Routines.push_back(R);
  });
  std::vector<CallCase> Cases;
  InterpOptions TraceOpts;
  TraceOpts.Tier = ExecTier::Tree;
  auto Tree = trace::buildExecTree(Prog, TraceOpts, corpusInput());
  std::vector<bool> Reached(Routines.size());
  Tree->forEachNode([&](trace::ExecNode *N) {
    if (N->getKind() != UnitKind::Call || !N->getRoutine())
      return;
    const pascal::RoutineDecl *R = N->getRoutine();
    CallCase C{R, {}, {}};
    for (const auto &P : R->getParams()) {
      const Binding *In = N->findInput(P->getName());
      C.Args.push_back(In ? In->V : Value());
    }
    for (const Binding &In : N->getInputs()) {
      const pascal::VarDecl *D = R->findLocal(In.Name);
      if (!D || !D->isParam())
        C.Presets.push_back(In);
    }
    for (size_t I = 0; I != Routines.size(); ++I)
      if (Routines[I] == R)
        Reached[I] = true;
    Cases.push_back(std::move(C));
  });
  for (size_t I = 0; I != Routines.size(); ++I)
    if (!Reached[I])
      Cases.push_back({Routines[I],
                       std::vector<Value>(Routines[I]->getParams().size()),
                       {}});
  return Cases;
}

/// Calls every routine of \p Prog directly on both tiers (judgedCalls)
/// and requires identical outcomes. Returns how many calls the bytecode
/// tier ran.
unsigned expectCallTiersAgree(const pascal::Program &Prog,
                              const std::string &Label) {
  std::vector<CallCase> Cases = judgedCalls(Prog);
  obs::Counter &VMCalls =
      obs::Registry::global().counter("interp.tier.bytecode");
  uint64_t Before = VMCalls.value();
  for (const CallCase &C : Cases)
    for (bool Checked : {false, true}) {
      InterpOptions Opts;
      Opts.DetectUninitialized = Checked;
      Opts.Tier = ExecTier::Tree;
      std::string TreeSide = renderCall(Prog, Opts, C.R, C.Args, C.Presets);
      Opts.Tier = ExecTier::Bytecode;
      std::string VMSide = renderCall(Prog, Opts, C.R, C.Args, C.Presets);
      EXPECT_EQ(TreeSide, VMSide)
          << Label << ": " << C.R->getName() << " checked=" << Checked;
    }
  return static_cast<unsigned>(VMCalls.value() - Before);
}

/// Nested routines (static-chain activations and presets matched
/// innermost first), a function, an unwritten var parameter, a runtime
/// error inside a loop, and output text.
const char *EntrySrc = "program entry;\n"
                       "var g, h: integer;\n"
                       "procedure outer(a: integer; var r: integer);\n"
                       "var g, k: integer;\n"
                       "  function inner(x: integer): integer;\n"
                       "  var i: integer;\n"
                       "  begin\n"
                       "    inner := 0;\n"
                       "    for i := 1 to x do\n"
                       "      inner := inner + g + h + 10 div (3 - i);\n"
                       "    write(inner);\n"
                       "    h := h + 1\n"
                       "  end;\n"
                       "  procedure keep(var u, v: integer);\n"
                       "  begin\n"
                       "    u := v + k\n"
                       "  end;\n"
                       "begin\n"
                       "  g := a; k := 2;\n"
                       "  r := inner(a);\n"
                       "  keep(r, r)\n"
                       "end;\n"
                       "begin\n"
                       "  g := 1; h := 3;\n"
                       "  outer(1, g);\n"
                       "  writeln(g, h)\n"
                       "end.";

TEST(BytecodeRoutineEntry, HandWrittenCases) {
  auto Prog = compile(EntrySrc);
  ASSERT_TRUE(Prog);
  EXPECT_GT(expectCallTiersAgree(*Prog, "entry"), 0u);

  // Direct calls of the nested function: presets reach the enclosing
  // routine's g (innermost scope first) and the global h; x = 3 divides
  // by zero inside the loop.
  const pascal::RoutineDecl *Inner =
      Prog->findRoutine(support::Symbol("inner"));
  ASSERT_TRUE(Inner);
  for (int64_t X : {2, 3}) {
    std::vector<Value> Args{Value::makeInt(X)};
    std::vector<Binding> Presets{{"g", Value::makeInt(7)},
                                 {"h", Value::makeInt(5)}};
    InterpOptions Opts;
    Opts.Tier = ExecTier::Tree;
    std::string TreeSide = renderCall(*Prog, Opts, Inner, Args, Presets);
    Opts.Tier = ExecTier::Bytecode;
    EXPECT_EQ(TreeSide, renderCall(*Prog, Opts, Inner, Args, Presets));
  }
  Interpreter I(*Prog);
  CallOutcome Ok = I.callRoutine(
      Inner, {Value::makeInt(1)}, {{"g", Value::makeInt(7)}});
  ASSERT_TRUE(Ok.Ok) << Ok.Error.Message;
  ASSERT_EQ(Ok.Outputs.size(), 2u);
  EXPECT_EQ(Ok.Outputs[0].Name, "h"); // global effect, then the result
  EXPECT_EQ(Ok.Outputs[1].Name, "inner");
  EXPECT_EQ(Ok.Outputs[1].V.asInt(), 12); // 0 + g + h + 10 div 2
  CallOutcome Bad = I.callRoutine(Inner, {Value::makeInt(3)}, {});
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Error.Message, "division by zero");
}

TEST(BytecodeRoutineEntry, PaperAndSamplePrograms) {
  unsigned VMCalls = 0;
  for (const char *Src : {Figure4Buggy, Figure4Fixed, Figure2,
                          Section6Globals, ArrsumProgram}) {
    auto Prog = compile(Src);
    ASSERT_TRUE(Prog);
    VMCalls += expectCallTiersAgree(*Prog, Prog->getName());
  }
  // samples/ holds the goldens' programs and the three payroll variants.
  namespace fs = std::filesystem;
  unsigned Files = 0;
  for (const auto &Entry : fs::directory_iterator(GADT_SAMPLES_DIR)) {
    if (Entry.path().extension() != ".pas")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    auto Prog = compile(Src.str());
    ASSERT_TRUE(Prog) << Entry.path();
    VMCalls += expectCallTiersAgree(*Prog, Entry.path().filename());
    ++Files;
  }
  EXPECT_GE(Files, 9u);
  EXPECT_GT(VMCalls, 0u);
}

TEST(BytecodeRoutineEntry, RandomPrograms) {
  unsigned VMCalls = 0;
  for (uint32_t Seed = 1; Seed <= 16; ++Seed) {
    SyntheticOptions Opts;
    Opts.Seed = Seed * 31 + 7;
    Opts.NumRoutines = 3 + Seed % 5;
    Opts.NumGlobals = 1 + Seed % 4;
    Opts.UseGotos = Seed % 4 == 0; // rejected by the compiler: tree only
    ProgramPair P = randomProgram(Opts);
    for (const std::string *Src : {&P.Buggy, &P.Fixed}) {
      auto Prog = compile(*Src);
      ASSERT_TRUE(Prog);
      VMCalls +=
          expectCallTiersAgree(*Prog, "seed" + std::to_string(Seed));
    }
  }
  EXPECT_GT(VMCalls, 100u);
}

TEST(BytecodeRoutineEntry, CountsTiersLikeRun) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  obs::Counter &VM = obs::Registry::global().counter("interp.tier.bytecode");
  obs::Counter &Tree = obs::Registry::global().counter("interp.tier.tree");
  uint64_t VM0 = VM.value(), Tree0 = Tree.value();
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, Opts);
  EXPECT_TRUE(I.callRoutine("p1", {Value::makeInt(2), Value()}).Ok);
  EXPECT_EQ(VM.value(), VM0 + 1);
  Opts.Tier = ExecTier::Tree;
  Interpreter T(*Prog, Opts);
  EXPECT_TRUE(T.callRoutine("p1", {Value::makeInt(2), Value()}).Ok);
  EXPECT_EQ(Tree.value(), Tree0 + 1);
  // Errors found before any execution pick no tier.
  EXPECT_FALSE(I.callRoutine("p1", {}).Ok);
  EXPECT_FALSE(I.callRoutine("nosuch", {}).Ok);
  EXPECT_EQ(VM.value(), VM0 + 1);
}

//===----------------------------------------------------------------------===//
// Call memo: callRoutine answers self-contained calls from earlier runs
//===----------------------------------------------------------------------===//

/// The memo's counters, read together.
struct MemoCounts {
  uint64_t Recorded, Served;
  bool operator==(const MemoCounts &O) const {
    return Recorded == O.Recorded && Served == O.Served;
  }
};
MemoCounts memoCounts() {
  obs::Registry &Reg = obs::Registry::global();
  return {Reg.counter("interp.call_memo.recorded").value(),
          Reg.counter("interp.call_memo.served").value()};
}

/// The programs the memo tests sweep: the paper programs, every file in
/// samples/ (the goldens' programs and the payroll variants) and the
/// chain, tree, wide and mesh shapes.
std::vector<std::pair<std::string, std::string>> memoCorpus() {
  std::vector<std::pair<std::string, std::string>> Corpus = {
      {"figure4_buggy", Figure4Buggy}, {"figure4_fixed", Figure4Fixed},
      {"figure2", Figure2},            {"section6", Section6Globals},
      {"arrsum", ArrsumProgram}};
  for (const ProgramPair &P :
       {chainProgram(9, 4), treeProgram(3), wideIrrelevantProgram(6),
        summaryMeshProgram(3, 2)}) {
    Corpus.push_back({"synthetic", P.Buggy});
    Corpus.push_back({"synthetic", P.Fixed});
  }
  namespace fs = std::filesystem;
  for (const auto &Entry : fs::directory_iterator(GADT_SAMPLES_DIR)) {
    if (Entry.path().extension() != ".pas")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Src;
    Src << In.rdbuf();
    Corpus.push_back({Entry.path().filename().string(), Src.str()});
  }
  return Corpus;
}

std::vector<std::pair<std::string, std::string>> randomMemoCorpus() {
  std::vector<std::pair<std::string, std::string>> Corpus;
  for (uint32_t Seed = 1; Seed <= 16; ++Seed) {
    SyntheticOptions Opts;
    Opts.Seed = Seed * 31 + 7;
    Opts.NumRoutines = 3 + Seed % 5;
    Opts.NumGlobals = 1 + Seed % 4;
    Opts.UseGotos = Seed % 4 == 0; // raw program: tree walker, no memo
    ProgramPair P = randomProgram(Opts);
    std::string Label = "seed" + std::to_string(Seed);
    for (const std::string *Src : {&P.Buggy, &P.Fixed}) {
      Corpus.push_back({Label, *Src});
      // Section 6 turns the generator's global side effects into
      // parameters, which makes routines self-contained.
      auto Prog = compile(*Src);
      DiagnosticsEngine Diags;
      auto T = transform::transformProgram(*Prog, Diags);
      EXPECT_TRUE(T.Transformed) << Diags.str();
      if (T.Transformed)
        Corpus.push_back(
            {Label + "-transformed", pascal::printProgram(*T.Transformed)});
    }
  }
  return Corpus;
}

/// Judges every call of \p Prog's trace (judgedCalls, parents before
/// children) on one warm bytecode interpreter per checking mode, and
/// requires each outcome — served from the memo or not — to equal a fresh
/// tree-walker interpreter's. Returns how many calls the memo served.
uint64_t expectMemoMatchesFresh(const pascal::Program &Prog,
                                const std::string &Label) {
  std::vector<CallCase> Cases = judgedCalls(Prog);
  uint64_t Served = 0;
  for (bool Checked : {false, true}) {
    InterpOptions Opts;
    Opts.DetectUninitialized = Checked;
    Opts.Tier = ExecTier::Bytecode;
    Interpreter Warm(Prog, Opts);
    Opts.Tier = ExecTier::Tree;
    for (const CallCase &C : Cases) {
      uint64_t Before = memoCounts().Served;
      std::string WarmSide =
          renderOutcome(Warm.callRoutine(C.R, C.Args, C.Presets));
      Interpreter Fresh(Prog, Opts);
      EXPECT_EQ(WarmSide,
                renderOutcome(Fresh.callRoutine(C.R, C.Args, C.Presets)))
          << Label << ": " << C.R->getName() << " checked=" << Checked;
      Served += memoCounts().Served - Before;
    }
  }
  return Served;
}

TEST(CallMemo, ServedOutcomesEqualFreshRuns) {
  uint64_t Served = 0;
  for (const auto &[Label, Src] : memoCorpus()) {
    auto Prog = compile(Src);
    ASSERT_TRUE(Prog) << Label;
    Served += expectMemoMatchesFresh(*Prog, Label);
  }
  EXPECT_GT(Served, 200u);
}

TEST(CallMemo, RandomProgramsServeFreshOutcomes) {
  uint64_t Served = 0;
  for (const auto &[Label, Src] : randomMemoCorpus()) {
    auto Prog = compile(Src);
    ASSERT_TRUE(Prog) << Label;
    Served += expectMemoMatchesFresh(*Prog, Label);
  }
  EXPECT_GT(Served, 30u);
}

/// A chain's first judgement records every call below it: each later
/// question about the chain is a lookup that bumps no tier counter.
TEST(CallMemo, ChainJudgementsAfterTheFirstAreLookups) {
  auto Prog = compile(chainProgram(8, 3).Fixed);
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, Opts);
  std::vector<CallCase> Cases = judgedCalls(*Prog);
  ASSERT_GE(Cases.size(), 8u);
  obs::Counter &VM = obs::Registry::global().counter("interp.tier.bytecode");
  MemoCounts Before = memoCounts();
  uint64_t VM0 = VM.value();
  for (const CallCase &C : Cases)
    ASSERT_TRUE(I.callRoutine(C.R, C.Args, C.Presets).Ok) << C.R->getName();
  EXPECT_EQ(VM.value(), VM0 + 1) << "only the first judgement ran";
  // The program block prints, so only p1 .. p8 are recorded.
  EXPECT_EQ(memoCounts().Served, Before.Served + Cases.size() - 1);
  EXPECT_EQ(memoCounts().Recorded, Before.Recorded + Cases.size() - 1);
}

/// The compile-time flag of routine \p Name.
bool selfContained(const pascal::Program &Prog, const std::string &Name,
                   bool Checked = false) {
  auto CP = bytecode::compile(Prog, Checked);
  EXPECT_TRUE(CP);
  for (const bytecode::CompiledRoutine &CR : CP->Routines)
    if (CR.Routine->getName() == Name)
      return CR.SelfContained;
  ADD_FAILURE() << "no routine " << Name;
  return false;
}

/// Calls \p Name twice with each argument/preset set on one warm
/// interpreter and requires that nothing is recorded or served and that
/// every outcome equals a fresh tree-walker run's.
void expectNeverMemoized(const pascal::Program &Prog, InterpOptions Opts,
                         const std::string &Name,
                         const std::vector<std::vector<Value>> &ArgSets,
                         const std::vector<Binding> &Presets = {},
                         TraceListener *Listener = nullptr) {
  const pascal::RoutineDecl *R = Prog.findRoutine(support::Symbol(Name));
  ASSERT_TRUE(R);
  Opts.Tier = ExecTier::Bytecode;
  Interpreter Warm(Prog, Opts);
  Warm.setListener(Listener);
  Warm.setInput({4, 9});
  Opts.Tier = ExecTier::Tree;
  MemoCounts Before = memoCounts();
  for (int Round = 0; Round != 2; ++Round)
    for (const std::vector<Value> &Args : ArgSets) {
      std::string WarmSide = renderOutcome(Warm.callRoutine(R, Args, Presets));
      Interpreter Fresh(Prog, Opts);
      Fresh.setInput({4, 9});
      EXPECT_EQ(WarmSide, renderOutcome(Fresh.callRoutine(R, Args, Presets)))
          << Name << " round " << Round;
    }
  EXPECT_TRUE(memoCounts() == Before) << Name;
}

TEST(CallMemo, RefusesGlobalRead) {
  auto Prog = compile("program p;\nvar g: integer;\n"
                      "function f(x: integer): integer;\n"
                      "begin f := x + g end;\n"
                      "begin g := 1; writeln(f(2)) end.");
  ASSERT_TRUE(Prog);
  EXPECT_FALSE(selfContained(*Prog, "f"));
  for (int64_t G : {1, 5})
    expectNeverMemoized(*Prog, {}, "f", {{Value::makeInt(2)}},
                        {{"g", Value::makeInt(G)}});
}

TEST(CallMemo, RefusesGlobalWrite) {
  auto Prog = compile("program p;\nvar g: integer;\n"
                      "procedure q(x: integer);\n"
                      "begin g := g + x end;\n"
                      "begin g := 1; q(2); writeln(g) end.");
  ASSERT_TRUE(Prog);
  EXPECT_FALSE(selfContained(*Prog, "q"));
  expectNeverMemoized(*Prog, {}, "q", {{Value::makeInt(2)}},
                      {{"g", Value::makeInt(3)}});
}

TEST(CallMemo, RefusesWriteln) {
  auto Prog = compile("program p;\n"
                      "procedure q(x: integer);\n"
                      "begin writeln(x) end;\n"
                      "begin q(2) end.");
  ASSERT_TRUE(Prog);
  EXPECT_FALSE(selfContained(*Prog, "q"));
  expectNeverMemoized(*Prog, {}, "q", {{Value::makeInt(2)}});
}

TEST(CallMemo, RefusesRead) {
  auto Prog = compile("program p;\nvar r: integer;\n"
                      "procedure q(var y: integer);\n"
                      "begin read(y) end;\n"
                      "procedure outer(var z: integer);\n"
                      "begin q(z); z := z + 1 end;\n"
                      "begin outer(r); writeln(r) end.");
  ASSERT_TRUE(Prog);
  EXPECT_FALSE(selfContained(*Prog, "q"));
  EXPECT_FALSE(selfContained(*Prog, "outer")) << "calls a reader";
  expectNeverMemoized(*Prog, {}, "outer", {{Value::makeInt(0)}});
  expectNeverMemoized(*Prog, {}, "q", {{Value::makeInt(0)}});
}

TEST(CallMemo, RefusesAliasedVarArguments) {
  // q(t, t) writes one cell twice; a direct q(5, 5) binds two cells, so
  // the aliased call must not be recorded as q's outcome for (5, 5).
  auto Prog = compile("program p;\nvar g: integer;\n"
                      "procedure q(var a, b: integer);\n"
                      "begin a := a + 1; b := b * 2 end;\n"
                      "procedure r(var t: integer);\n"
                      "begin q(t, t) end;\n"
                      "begin g := 5; r(g); writeln(g) end.");
  ASSERT_TRUE(Prog);
  EXPECT_TRUE(selfContained(*Prog, "q"));
  EXPECT_TRUE(selfContained(*Prog, "r"));
  const pascal::RoutineDecl *Q = Prog->findRoutine(support::Symbol("q"));
  const pascal::RoutineDecl *R = Prog->findRoutine(support::Symbol("r"));
  InterpOptions VM;
  VM.Tier = ExecTier::Bytecode;
  Interpreter Warm(*Prog, VM);
  MemoCounts Before = memoCounts();
  CallOutcome ViaR = Warm.callRoutine(R, {Value::makeInt(5)});
  ASSERT_TRUE(ViaR.Ok);
  EXPECT_EQ(ViaR.Outputs[0].V.asInt(), 12);
  EXPECT_EQ(memoCounts().Recorded, Before.Recorded + 1) << "r only";
  CallOutcome Direct = Warm.callRoutine(Q, {Value::makeInt(5),
                                            Value::makeInt(5)});
  EXPECT_EQ(memoCounts().Served, Before.Served);
  Interpreter Fresh(*Prog);
  EXPECT_EQ(renderOutcome(Direct),
            renderOutcome(Fresh.callRoutine(Q, {Value::makeInt(5),
                                                Value::makeInt(5)})));
  EXPECT_EQ(Direct.Outputs[0].V.asInt(), 6);
  EXPECT_EQ(Direct.Outputs[1].V.asInt(), 10);
  // r's own record is exact: its run binds t's cell once.
  EXPECT_EQ(renderOutcome(Warm.callRoutine(R, {Value::makeInt(5)})),
            renderOutcome(ViaR));
  EXPECT_EQ(memoCounts().Served, Before.Served + 1);
}

TEST(CallMemo, RefusesUnassignedResultInCheckedMode) {
  auto Prog = compile("program p;\nvar r: integer;\n"
                      "function f(x: integer): integer;\n"
                      "begin if x > 0 then f := x end;\n"
                      "procedure q(x: integer; var y: integer);\n"
                      "begin y := f(x) end;\n"
                      "begin q(1, r); writeln(r) end.");
  ASSERT_TRUE(Prog);
  EXPECT_TRUE(selfContained(*Prog, "f", /*Checked=*/true));
  InterpOptions Checked;
  Checked.DetectUninitialized = true;
  expectNeverMemoized(*Prog, Checked, "f", {{Value::makeInt(0)}});
  expectNeverMemoized(*Prog, Checked, "q",
                      {{Value::makeInt(0), Value::makeInt(0)}});
  // Unchecked, f(0) returns the default 0 and is memoized.
  InterpOptions VM;
  VM.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, VM);
  MemoCounts Before = memoCounts();
  EXPECT_TRUE(I.callRoutine("f", {Value::makeInt(0)}).Ok);
  EXPECT_TRUE(I.callRoutine("f", {Value::makeInt(0)}).Ok);
  EXPECT_EQ(memoCounts().Recorded, Before.Recorded + 1);
  EXPECT_EQ(memoCounts().Served, Before.Served + 1);
}

TEST(CallMemo, BypassedWithListener) {
  auto Prog = compile(chainProgram(5, 2).Fixed);
  ASSERT_TRUE(Prog);
  trace::ExecTreeBuilder Builder;
  expectNeverMemoized(*Prog, {}, "p1", {{Value::makeInt(3), Value()}}, {},
                      &Builder);
  auto Tree = Builder.takeTree();
  ASSERT_TRUE(Tree && Tree->getRoot());
  EXPECT_EQ(Tree->getRoot()->getName(), "p1") << "the last call ran traced";
}

TEST(CallMemo, BypassedWithTrackDeps) {
  auto Prog = compile(chainProgram(5, 2).Fixed);
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.TrackDeps = true;
  expectNeverMemoized(*Prog, Opts, "p1", {{Value::makeInt(3), Value()}});
}

TEST(CallMemo, RecursionStopsRecordingAtTheCap) {
  auto Prog = compile("program p;\n"
                      "function f(n: integer): integer;\n"
                      "begin if n = 0 then f := 0 else f := f(n - 1) + 2 "
                      "end;\n"
                      "begin writeln(f(3)) end.");
  ASSERT_TRUE(Prog);
  ASSERT_TRUE(selfContained(*Prog, "f"));
  const int64_t Cap = CallMemo::MaxEntries;
  InterpOptions Opts;
  Opts.MaxCallDepth = Cap + 200;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter Warm(*Prog, Opts);
  MemoCounts Before = memoCounts();
  CallOutcome Deep = Warm.callRoutine("f", {Value::makeInt(Cap + 50)});
  ASSERT_TRUE(Deep.Ok) << Deep.Error.Message;
  EXPECT_EQ(Deep.Outputs[0].V.asInt(), 2 * (Cap + 50));
  // Innermost calls complete first: f(0) .. f(Cap - 1) fill the memo.
  EXPECT_EQ(memoCounts().Recorded, Before.Recorded + Cap);
  // The reference is a fresh bytecode run: this recursion is too deep for
  // the tree walker's host stack.
  for (int64_t N : {Cap - 1, Cap, Cap + 10}) {
    MemoCounts Before = memoCounts();
    std::string WarmSide =
        renderOutcome(Warm.callRoutine("f", {Value::makeInt(N)}));
    MemoCounts After = memoCounts();
    EXPECT_EQ(After.Served, Before.Served + (N < Cap ? 1 : 0)) << N;
    EXPECT_EQ(After.Recorded, Before.Recorded) << "full";
    Interpreter Fresh(*Prog, Opts);
    EXPECT_EQ(WarmSide,
              renderOutcome(Fresh.callRoutine("f", {Value::makeInt(N)})));
  }
}

/// What the flag promises, derived from the AST: Banning's GREF and GMOD
/// empty, and no read/write statement in the routine or anything it
/// calls.
std::map<const pascal::RoutineDecl *, bool>
expectedSelfContained(const pascal::Program &Prog) {
  analysis::CallGraph CG(Prog);
  analysis::SideEffectAnalysis SEA(Prog, CG);
  std::map<const pascal::RoutineDecl *, bool> IO;
  for (const pascal::RoutineDecl *R : CG.routines()) {
    bool Direct = false;
    if (R->getBody())
      pascal::forEachStmt(R->getBody(),
                          [&](pascal::Stmt *S) {
                            Direct |= S->getKind() == pascal::Stmt::Kind::Read ||
                                      S->getKind() == pascal::Stmt::Kind::Write;
                          });
    IO[R] = Direct;
  }
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const pascal::RoutineDecl *R : CG.routines())
      for (const analysis::CallSite &Site : CG.callSitesIn(R))
        if (IO[Site.Callee] && !IO[R])
          IO[R] = Changed = true;
  }
  std::map<const pascal::RoutineDecl *, bool> Expected;
  for (const pascal::RoutineDecl *R : CG.routines()) {
    const analysis::RoutineEffects &E = SEA.effects(R);
    Expected[R] = E.GRef.empty() && E.GMod.empty() && !IO[R];
  }
  return Expected;
}

TEST(CallMemo, FlagMatchesSideEffectAnalysis) {
  auto Corpus = memoCorpus();
  for (auto &Entry : randomMemoCorpus())
    Corpus.push_back(std::move(Entry));
  unsigned Flagged = 0, Unflagged = 0;
  for (const auto &[Label, Src] : Corpus) {
    auto Prog = compile(Src);
    ASSERT_TRUE(Prog) << Label;
    auto Expected = expectedSelfContained(*Prog);
    for (bool Checked : {false, true}) {
      auto CP = bytecode::compile(*Prog, Checked);
      if (!CP)
        continue; // gotos: the tree walker runs it, nothing is memoized
      for (const bytecode::CompiledRoutine &CR : CP->Routines) {
        EXPECT_EQ(CR.SelfContained, Expected[CR.Routine])
            << Label << ": " << CR.Routine->getName();
        ++(CR.SelfContained ? Flagged : Unflagged);
      }
    }
  }
  EXPECT_GT(Flagged, 100u);
  EXPECT_GT(Unflagged, 100u);
}

//===----------------------------------------------------------------------===//
// One compile per Program
//===----------------------------------------------------------------------===//

TEST(ProgramCode, InterpretersOverOneProgramShareOneCompile) {
  auto Prog = compile(chainProgram(5, 2).Fixed);
  unsigned Builds = 0;
  auto Build = [&] {
    ++Builds;
    return bytecode::compile(*Prog, false);
  };
  auto First = Prog->compiledCode(false, Build);
  ASSERT_TRUE(First != nullptr);
  EXPECT_EQ(Prog->compiledCode(false, Build), First);
  EXPECT_EQ(Builds, 1u);

  // Interpreters pick up the cached unit instead of compiling their own.
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter A(*Prog, Opts), B(*Prog, Opts);
  ASSERT_TRUE(A.run().Ok);
  ASSERT_TRUE(B.callRoutine("p1", {Value::makeInt(1), Value()}).Ok);
  EXPECT_EQ(Prog->compiledCode(false, Build), First);
  EXPECT_EQ(Builds, 1u);

  // The checked mode is a separate slot.
  auto Checked = Prog->compiledCode(true, [&] {
    ++Builds;
    return bytecode::compile(*Prog, true);
  });
  ASSERT_TRUE(Checked != nullptr);
  EXPECT_NE(Checked, First);
  EXPECT_TRUE(Checked->Checked);
  EXPECT_EQ(Builds, 2u);
}

TEST(ProgramCode, RejectionIsCachedToo) {
  auto Prog = compile("program p;\n"
                      "label 9;\n"
                      "procedure q;\n"
                      "begin goto 9 end;\n"
                      "begin q; 9: writeln(1) end.");
  ASSERT_TRUE(Prog);
  InterpOptions Opts;
  Opts.Tier = ExecTier::Bytecode;
  Interpreter I(*Prog, Opts);
  ASSERT_TRUE(I.run().Ok);
  unsigned Builds = 0;
  EXPECT_EQ(Prog->compiledCode(false,
                               [&] {
                                 ++Builds;
                                 return bytecode::compile(*Prog, false);
                               }),
            nullptr);
  EXPECT_EQ(Builds, 0u) << "the interpreter's rejected compile was cached";
}

TEST(ProgramCode, AssignStorageSlotsResetsTheSlot) {
  auto Prog = compile(chainProgram(3, 1).Fixed);
  unsigned Builds = 0;
  auto Build = [&] {
    ++Builds;
    return bytecode::compile(*Prog, false);
  };
  auto Before = Prog->compiledCode(false, Build);
  pascal::assignStorageSlots(*Prog);
  auto After = Prog->compiledCode(false, Build);
  EXPECT_EQ(Builds, 2u);
  ASSERT_TRUE(Before && After);
  EXPECT_NE(Before, After);
}

TEST(ProgramCode, ConcurrentFirstRequestsCompileOnce) {
  auto Prog = compile(chainProgram(12, 3).Fixed);
  std::atomic<unsigned> Builds{0};
  std::vector<std::thread> Threads;
  std::vector<const bytecode::CompiledProgram *> Seen(6);
  for (size_t T = 0; T != Seen.size(); ++T)
    Threads.emplace_back([&, T] {
      Seen[T] = Prog->compiledCode(false, [&] {
                      ++Builds;
                      return bytecode::compile(*Prog, false);
                    }).get();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Builds.load(), 1u);
  for (const bytecode::CompiledProgram *CP : Seen)
    EXPECT_EQ(CP, Seen[0]);
}

/// A traced run of \p Prog as a user sees it: outcome, output, final
/// globals, and the tree's str() and dot().
std::string renderTraced(const pascal::Program &Prog,
                         const InterpOptions &Opts) {
  ExecResult R;
  auto Tree = trace::buildExecTree(Prog, Opts, corpusInput(), &R);
  std::ostringstream Out;
  Out << "ok: " << R.Ok << " error: " << escapeLine(R.Error.Message) << "\n";
  Out << "output: " << escapeLine(R.Output) << "\n";
  for (const Binding &B : R.FinalGlobals)
    Out << "global " << B.Name << " = " << B.V.str() << "\n";
  Out << Tree->str() << Tree->dot();
  return Out.str();
}

std::string onFreshThread(const std::function<std::string()> &Fn) {
  std::string Result;
  std::thread([&] { Result = Fn(); }).join();
  return Result;
}

TEST(SpareRunBuffers, RunsAfterFailedTracesMatchAFreshThread) {
  // Interpreters start from the run buffers earlier ones on the thread
  // left behind. Runs that fail mid-trace — a runtime error deep in a call
  // chain, the step limit inside a loop — must leave nothing a later trace
  // or routine call of another program can observe.
  auto Deep = compile("program deep;\n"
                      "var g, r: integer;\n"
                      "procedure f(n: integer; var a: integer);\n"
                      "var t: integer;\n"
                      "begin\n"
                      "  g := g + n;\n"
                      "  if n = 0 then a := 10 div n\n"
                      "  else begin f(n - 1, t); a := t + 1 end\n"
                      "end;\n"
                      "begin g := 0; f(40, r); writeln(r) end.");
  auto Spin = compile("program spin;\n"
                      "var g: integer;\n"
                      "procedure w;\n"
                      "var i: integer;\n"
                      "begin\n"
                      "  i := 0;\n"
                      "  while i >= 0 do begin i := i + 1; g := g + i end\n"
                      "end;\n"
                      "procedure v(n: integer);\n"
                      "begin if n > 0 then v(n - 1) else w end;\n"
                      "begin v(20) end.");
  auto Next = compile(chainProgram(6, 2).Buggy);
  ASSERT_TRUE(Deep && Spin && Next);
  const pascal::RoutineDecl *P3 = Next->findRoutine(support::Symbol("p3"));
  ASSERT_TRUE(P3);

  for (ExecTier Tier : {ExecTier::Bytecode, ExecTier::Tree}) {
    InterpOptions Opts;
    Opts.Tier = Tier;
    Opts.TraceLoops = true;
    InterpOptions Limited = Opts;
    Limited.MaxSteps = 5000;
    auto Failing = [&] {
      return renderTraced(*Deep, Opts) + renderTraced(*Spin, Limited);
    };
    auto Later = [&] {
      std::string Out = renderTraced(*Next, Opts);
      Interpreter I(*Next, Opts);
      for (int64_t X : {5, 5, 7})
        Out += renderOutcome(I.callRoutine(P3, {Value::makeInt(X), Value()}));
      return Out;
    };
    std::string FailingFresh = onFreshThread(Failing);
    EXPECT_NE(FailingFresh.find("division by zero"), std::string::npos);
    EXPECT_NE(FailingFresh.find("step limit exceeded"), std::string::npos);
    std::string LaterFresh = onFreshThread(Later);
    for (int Round = 0; Round != 2; ++Round) {
      EXPECT_EQ(Failing(), FailingFresh) << "round " << Round;
      EXPECT_EQ(Later(), LaterFresh) << "round " << Round;
    }
  }
}

TEST(CellArena, RepeatedSessionsStayByteIdentical) {
  // Ten sessions interleaving tiers on one program: serial numbers, unit
  // ids and dependence sets must restart exactly, or transcripts drift.
  auto Prog = compile(chainProgram(4, 2).Buggy);
  InterpOptions Opts;
  Opts.TrackDeps = true;
  Opts.TraceLoops = true;
  Opts.Tier = ExecTier::Tree;
  std::string Golden = renderRun(*Prog, Opts);
  for (int Round = 0; Round < 10; ++Round) {
    Opts.Tier = (Round % 2 == 0) ? ExecTier::Bytecode : ExecTier::Tree;
    EXPECT_EQ(renderRun(*Prog, Opts), Golden) << "round " << Round;
  }
}

} // namespace
