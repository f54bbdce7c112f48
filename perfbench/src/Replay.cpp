//===- Replay.cpp - Layer-by-layer replay of one session ------------------===//

#include "Replay.h"

#include "bytecode/Bytecode.h"
#include "pascal/Frontend.h"
#include "slicing/StaticSlicer.h"
#include "trace/ExecTreeBuilder.h"
#include "transform/Transform.h"

#include <map>

using namespace perfbench;
using namespace gadt;

namespace {

double us(uint64_t Ns) { return Ns / 1000.0; }

/// Times every call into the oracle chain (assertions, test database,
/// user) as one `core.oracle` span.
class TimedChain : public core::Oracle {
public:
  TimedChain(core::Oracle &Inner, SpanLog &Log, int Parent, unsigned Session)
      : Inner(Inner), Log(Log), Parent(Parent), Session(Session) {}

  core::Judgement judge(const trace::ExecNode &N) override {
    int I = Log.open("core.oracle", Parent, Session);
    core::Judgement J = Inner.judge(N);
    Ns += Log.close(I);
    ++Calls;
    return J;
  }

  uint64_t Ns = 0;
  unsigned Calls = 0;

private:
  core::Oracle &Inner;
  SpanLog &Log;
  int Parent;
  unsigned Session;
};

/// The programs and artifacts the frontend layers produce.
struct Built {
  std::unique_ptr<pascal::Program> Parsed, Transformed;
  std::unique_ptr<analysis::SDG> Graph;
  std::shared_ptr<const bytecode::CompiledProgram> Code;
  std::string Error;
};

/// Parse, transform, SDG and compile, one span each under \p Parent.
Built runFrontend(const Subject &S, Layers &L, SpanLog &Log, int Parent,
                  unsigned Session) {
  Built B;
  DiagnosticsEngine Diags;
  int I = Log.open("pascal.parse", Parent, Session);
  B.Parsed = pascal::parseAndCheck(S.Source, Diags);
  L.ParseUs = us(Log.close(I));
  if (!B.Parsed) {
    B.Error = "parse failed: " + Diags.str();
    return B;
  }
  I = Log.open("transform.transform", Parent, Session);
  transform::TransformResult X = transform::transformProgram(*B.Parsed, Diags);
  L.TransformUs = us(Log.close(I));
  if (!X.Transformed) {
    B.Error = "transform failed: " + Diags.str();
    return B;
  }
  B.Transformed = std::move(X.Transformed);
  // The same build options RuntimeContext uses for its SDG cache.
  analysis::SDGBuildOptions GraphOpts;
  GraphOpts.Threads = 0;
  I = Log.open("analysis.sdg", Parent, Session);
  B.Graph = std::make_unique<analysis::SDG>(*B.Transformed, GraphOpts);
  L.SdgUs = us(Log.close(I));
  L.SdgVertices = static_cast<unsigned>(B.Graph->nodes().size());
  I = Log.open("bytecode.compile", Parent, Session);
  B.Code = bytecode::compile(*B.Transformed, /*Checked=*/false);
  L.CompileUs = us(Log.close(I));
  return B;
}

/// Traced execution and the debugger, one span each under \p Parent; the
/// oracle chain and the slice provider are wrapped in timing spans.
void runDebugPath(const Subject &S, const SetupData &Setup,
                  const pascal::Program &Prepared, const analysis::SDG *Graph,
                  std::shared_ptr<const bytecode::CompiledProgram> Code,
                  const core::SliceProvider &Slices,
                  std::shared_ptr<const tgen::TestReportDB> DB, Layers &L,
                  SpanLog &Log, int Parent, unsigned Session) {
  const core::GADTOptions Opts = sessionOptions();
  // Exactly the interpreter options GADTSession::debug derives.
  interp::InterpOptions IOpts;
  IOpts.TraceLoops = Opts.TraceLoops;
  IOpts.TraceIterations = Opts.TraceIterations;
  IOpts.TrackDeps = Opts.Debugger.Slicing == core::SliceMode::Dynamic;
  IOpts.Code = std::move(Code);
  interp::ExecResult Run;
  int I = Log.open("trace.exec", Parent, Session);
  std::unique_ptr<trace::ExecTree> Tree =
      trace::buildExecTree(Prepared, IOpts, S.Input, &Run);
  L.ExecUs = us(Log.close(I));
  L.TreeNodes = Tree->size();
  if (!Run.Ok) {
    L.Result.Text = "subject program failed: " + Run.Error.Message;
    return;
  }

  // The chain GADTSession::debug builds: assertions, test database, user.
  core::AssertionOracle Assertions;
  core::TestDatabaseOracle TestDb;
  if (DB)
    TestDb.addDatabase(Setup.Specs.at(S.Spec).Spec, DB);
  std::vector<uint64_t> Marks;
  TimedUser User(Setup.intendedFor(S), Marks);
  core::OracleChain Chain;
  Chain.append(&Assertions);
  Chain.append(&TestDb);
  Chain.append(&User);

  int RunSpan = Log.open("core.run", Parent, Session);
  TimedChain Timed(Chain, Log, RunSpan, Session);
  uint64_t SliceNs = 0;
  unsigned SliceCalls = 0;
  core::AlgorithmicDebugger Debugger(*Tree, Timed, Opts.Debugger);
  Debugger.setSDG(Graph);
  Debugger.setSliceProvider(
      [&](const pascal::RoutineDecl *R, support::Symbol Out)
          -> std::shared_ptr<const slicing::StaticSlice> {
        int J = Log.open("slicing.slice", RunSpan, Session);
        std::shared_ptr<const slicing::StaticSlice> Slice = Slices(R, Out);
        SliceNs += Log.close(J);
        ++SliceCalls;
        return Slice;
      });
  core::BugReport R = Debugger.run();
  L.RunUs = us(Log.close(RunSpan));
  L.OracleUs = us(Timed.Ns);
  L.OracleCalls = Timed.Calls;
  L.SliceUs = us(SliceNs);
  L.SliceCalls = SliceCalls;

  const core::SessionStats &St = Debugger.stats();
  L.MemoHits = St.MemoHits;
  L.NodesPruned = St.NodesPruned;
  auto It = St.AnswersBySource.find("test-db");
  L.TestDbAnswers = It == St.AnswersBySource.end() ? 0 : It->second;
  L.Result.Ok = R.Found;
  L.Result.Unit = R.UnitName;
  L.Result.Text = outcomeText(R, St);
}

} // namespace

Layers perfbench::replayCold(const Subject &S, const SetupData &Setup,
                             SpanLog &Log, unsigned Session) {
  Layers L;
  int Root = Log.open("replay", -1, Session);
  Built B = runFrontend(S, L, Log, Root, Session);
  if (B.Error.empty()) {
    std::shared_ptr<const tgen::TestReportDB> DB;
    if (S.Spec) {
      int I = Log.open("tgen.suite", Root, Session);
      DB = runSuite(*B.Parsed, Setup.Specs.at(S.Spec), Setup.intendedFor(S));
      L.TgenUs = us(Log.close(I));
    }
    // A private memo, as a fresh RuntimeContext gives a cold session.
    std::map<std::pair<const pascal::RoutineDecl *, uint32_t>,
             std::shared_ptr<const slicing::StaticSlice>>
        Memo;
    const analysis::SDG &G = *B.Graph;
    core::SliceProvider Slices =
        [&](const pascal::RoutineDecl *R, support::Symbol Out)
        -> std::shared_ptr<const slicing::StaticSlice> {
      auto &Slot = Memo[{R, Out.id()}];
      if (!Slot)
        Slot = std::make_shared<const slicing::StaticSlice>(
            slicing::sliceOnRoutineOutput(G, R, Out.str()));
      return Slot;
    };
    runDebugPath(S, Setup, *B.Transformed, B.Graph.get(), B.Code, Slices, DB,
                 L, Log, Root, Session);
  } else {
    L.Result.Text = B.Error;
  }
  Log.close(Root);
  L.ReplayedUs = L.ParseUs + L.TransformUs + L.SdgUs + L.CompileUs +
                 L.TgenUs + L.ExecUs + L.RunUs;
  return L;
}

Layers perfbench::replayWarm(runtime::RuntimeContext &Ctx, const Subject &S,
                             const SetupData &Setup, SpanLog &Log,
                             unsigned Session) {
  Layers L;
  {
    int Front = Log.open("frontend", -1, Session);
    Built B = runFrontend(S, L, Log, Front, Session);
    Log.close(Front);
  }
  int Root = Log.open("replay", -1, Session);
  DiagnosticsEngine Diags;
  int I = Log.open("runtime.prepare", Root, Session);
  std::shared_ptr<const core::SessionArtifacts> A =
      Ctx.prepare(S.Source, sessionOptions(), Diags);
  L.PrepareUs = us(Log.close(I));
  if (A) {
    runDebugPath(S, Setup, *A->Prepared, A->Sdg.get(), A->Code, A->Slices,
                 nullptr, L, Log, Root, Session);
  } else {
    L.Result.Text = "prepare failed: " + Diags.str();
  }
  Log.close(Root);
  L.ReplayedUs = L.PrepareUs + L.ExecUs + L.RunUs;
  return L;
}
