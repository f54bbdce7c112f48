//===- Sessions.cpp - Timed localization sessions -------------------------===//

#include "Sessions.h"

#include "pascal/Frontend.h"
#include "tgen/Generator.h"
#include "tgen/ReportDB.h"
#include "tgen/SpecParser.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;
using namespace gadt;

uint64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimedUser::~TimedUser() {
  if (EndNs)
    *EndNs = nowNs();
}

core::Judgement TimedUser::judge(const trace::ExecNode &N) {
  Marks.push_back(nowNs());
  core::Judgement J = Inner.judge(N);
  Marks.push_back(nowNs());
  return J;
}

core::GADTOptions perfbench::sessionOptions() {
  core::GADTOptions O;
  O.Transform = true;
  O.Debugger.Slicing = core::SliceMode::Static;
  O.Debugger.Strategy = core::SearchStrategy::TopDown;
  return O;
}

bool perfbench::buildSetupData(const std::vector<Subject> &Sessions,
                               SetupData &Out, std::string &Error) {
  for (const Subject &S : Sessions) {
    if (!Out.Intended.count(S.Intended)) {
      DiagnosticsEngine Diags;
      std::shared_ptr<const pascal::Program> P =
          pascal::parseAndCheck(S.Intended, Diags);
      if (!P) {
        Error = S.Name + ": intended program: " + Diags.str();
        return false;
      }
      Out.Intended.emplace(S.Intended, std::move(P));
    }
    if (S.Spec && !Out.Specs.count(S.Spec)) {
      DiagnosticsEngine Diags;
      SpecBundle B;
      B.Spec = tgen::parseSpec(S.Spec, Diags);
      if (!B.Spec) {
        Error = S.Name + ": T-GEN specification: " + Diags.str();
        return false;
      }
      B.Frames = tgen::generateFrames(*B.Spec);
      Out.Specs.emplace(S.Spec, std::move(B));
    }
  }
  return true;
}

std::shared_ptr<const tgen::TestReportDB>
perfbench::runSuite(const pascal::Program &Subject, const SpecBundle &B,
                    const pascal::Program &Intended) {
  const std::string Routine = B.Spec->TestName;
  auto Check = [&](const std::vector<interp::Value> &Args,
                   const interp::CallOutcome &Out) {
    interp::Interpreter I(Intended);
    interp::CallOutcome Expected = I.callRoutine(Routine, Args);
    if (!Expected.Ok || !Out.Ok)
      return Expected.Ok == Out.Ok;
    for (const interp::Binding &E : Expected.Outputs)
      for (const interp::Binding &Got : Out.Outputs)
        if (Got.Name == E.Name && !Got.V.equals(E.V))
          return false;
    return true;
  };
  return std::make_shared<const tgen::TestReportDB>(tgen::runTestSuite(
      Subject, *B.Spec, B.Frames, tgen::specInstantiator(*B.Spec), Check));
}

std::string perfbench::outcomeText(const core::BugReport &R,
                                   const core::SessionStats &S) {
  std::string Out = "found=" + std::to_string(R.Found) + " unit=" +
                    R.UnitName + " wrong=" + R.WrongOutput +
                    " msg=" + R.Message + "\n";
  Out += "judgements=" + std::to_string(S.Judgements) +
         " memo=" + std::to_string(S.MemoHits) +
         " pruned=" + std::to_string(S.NodesPruned) + "\n";
  return Out + S.transcript();
}

namespace {

Outcome finishOutcome(const core::BugReport &R, const core::SessionStats &S,
                      const trace::ExecTree *Tree) {
  Outcome O;
  O.Ok = R.Found;
  O.Text = outcomeText(R, S);
  O.Unit = R.UnitName;
  O.UserQueries = S.userQueries();
  O.OracleCalls = S.Judgements;
  O.MemoHits = S.MemoHits;
  O.NodesPruned = S.NodesPruned;
  O.TreeNodes = Tree ? Tree->size() : 0;
  return O;
}

/// Records a child span of the session when tracing, else does nothing;
/// \p Ns, when given, receives the span's duration.
class Step {
public:
  Step(SessionTrace *T, const char *Name, uint64_t *Ns = nullptr)
      : T(T), Ns(Ns) {
    if (T)
      I = T->Log->open(Name, T->Root, T->Session);
  }
  ~Step() {
    if (!T)
      return;
    uint64_t D = T->Log->close(I);
    if (Ns)
      *Ns = D;
  }
  Step(const Step &) = delete;
  Step &operator=(const Step &) = delete;

private:
  SessionTrace *T;
  uint64_t *Ns;
  int I = -1;
};

} // namespace

Outcome perfbench::runSerial(runtime::RuntimeContext &Ctx, const Subject &S,
                             const SetupData &Setup, Timing &T,
                             SessionTrace *Trace) {
  const core::GADTOptions Opts = sessionOptions();
  const pascal::Program &Intended = Setup.intendedFor(S);
  DiagnosticsEngine Diags;
  Outcome Failed;

  T.Marks.clear();
  T.StartNs = nowNs();
  std::shared_ptr<const core::SessionArtifacts> A;
  {
    Step P(Trace, "runtime.prepare", Trace ? &Trace->PrepareNs : nullptr);
    A = Ctx.prepare(S.Source, Opts, Diags);
  }
  if (!A) {
    Failed.Text = "prepare failed: " + Diags.str();
    return Failed;
  }
  std::shared_ptr<const tgen::TestReportDB> DB;
  if (S.Spec) {
    Step P(Trace, "tgen.suite");
    DB = runSuite(*A->Subject, Setup.Specs.at(S.Spec), Intended);
  }
  std::unique_ptr<core::GADTSession> Session;
  {
    Step P(Trace, "core.session");
    Session = std::make_unique<core::GADTSession>(A, Opts, Diags);
  }
  if (!Session->valid()) {
    Failed.Text = "session construction failed: " + Diags.str();
    return Failed;
  }
  Session->setMetricsRegistry(&Ctx.metrics());
  if (DB)
    Session->addTestDatabase(Setup.Specs.at(S.Spec).Spec, DB);
  core::BugReport R;
  {
    TimedUser User(Intended, T.Marks);
    Step P(Trace, "core.debug");
    R = Session->debug(User, S.Input);
  }
  T.EndNs = nowNs();
  return finishOutcome(R, Session->stats(), Session->tree());
}

Outcome perfbench::runPlain(const Subject &S, const SetupData &Setup) {
  DiagnosticsEngine Diags;
  Outcome Failed;
  std::unique_ptr<pascal::Program> P = pascal::parseAndCheck(S.Source, Diags);
  if (!P) {
    Failed.Text = "parse failed: " + Diags.str();
    return Failed;
  }
  core::GADTSession Session(*P, sessionOptions(), Diags);
  if (!Session.valid()) {
    Failed.Text = "session construction failed: " + Diags.str();
    return Failed;
  }
  if (S.Spec) {
    const SpecBundle &B = Setup.Specs.at(S.Spec);
    Session.addTestDatabase(B.Spec, runSuite(*P, B, Setup.intendedFor(S)));
  }
  core::IntendedProgramOracle User(Setup.intendedFor(S));
  core::BugReport R = Session.debug(User, S.Input);
  return finishOutcome(R, Session.stats(), Session.tree());
}

int SpanLog::open(const char *Name, int Parent, unsigned Session) {
  Spans.push_back({Name, nowNs(), 0, Parent, Session});
  return static_cast<int>(Spans.size() - 1);
}

uint64_t SpanLog::close(int I) {
  Span &S = Spans[I];
  S.EndNs = nowNs();
  return S.EndNs - S.StartNs;
}

bool SpanLog::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"session\":%u}\n",
                 I, S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs), S.Parent,
                 S.Session);
  }
  return std::fclose(F) == 0;
}
