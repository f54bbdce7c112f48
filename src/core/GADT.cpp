//===- GADT.cpp - Generalized Algorithmic Debugging and Testing -----------===//

#include "core/GADT.h"

#include "obs/Log.h"
#include "obs/Trace.h"
#include "trace/ExecTreeBuilder.h"

#include <atomic>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::interp;
using namespace gadt::pascal;

namespace {

/// The `debug.*` counters sessions add their accounting to, resolved from
/// one registry once (obs::Registry::resolved), so a session pays relaxed
/// adds rather than by-name lookups under the registry's lock.
class SessionCounters {
public:
  explicit SessionCounters(obs::Registry &R);

  /// Adds one finished session's interaction accounting.
  void record(const SessionStats &S) const;

private:
  /// `debug.queries.<Source>`: the built-in oracles' sources resolve once,
  /// on first use (a registry shows no source that never answered); any
  /// other source is looked up by name.
  obs::Counter &bySource(const std::string &Source) const;

  obs::Registry &Reg;
  obs::Counter &Sessions, &Queries, &Unanswered, &MemoHits, &Slicings,
      &Pruned;
  struct SourceSlot {
    const char *Name;
    mutable std::atomic<obs::Counter *> C{nullptr};
  };
  SourceSlot Sources[4] = {{"assertion"}, {"test-db"}, {"user"}, {"unknown"}};
};

SessionCounters::SessionCounters(obs::Registry &R)
    : Reg(R), Sessions(R.counter("debug.sessions")),
      Queries(R.counter("debug.queries.total")),
      Unanswered(R.counter("debug.queries.unanswered")),
      MemoHits(R.counter("debug.memo.hits")),
      Slicings(R.counter("debug.slicing.activations")),
      Pruned(R.counter("debug.slicing.nodes_pruned")) {}

obs::Counter &SessionCounters::bySource(const std::string &Source) const {
  for (const SourceSlot &Slot : Sources) {
    if (Source != Slot.Name)
      continue;
    obs::Counter *C = Slot.C.load(std::memory_order_acquire);
    if (!C) {
      // Racing first uses resolve the same counter.
      C = &Reg.counter("debug.queries." + Source);
      Slot.C.store(C, std::memory_order_release);
    }
    return *C;
  }
  return Reg.counter("debug.queries." + Source);
}

void SessionCounters::record(const SessionStats &S) const {
  Sessions.add();
  Queries.add(S.Judgements);
  Unanswered.add(S.Unanswered);
  for (const auto &[Source, N] : S.AnswersBySource)
    bySource(Source).add(N);
  MemoHits.add(S.MemoHits);
  Slicings.add(S.SlicingActivations);
  Pruned.add(S.NodesPruned);
}

} // namespace

GADTSession::GADTSession(const Program &Subject, GADTOptions Opts,
                         DiagnosticsEngine &Diags)
    : Opts(Opts) {
  if (Opts.Transform) {
    transform::TransformResult R = transform::transformProgram(Subject, Diags);
    if (!R.Transformed)
      return;
    TransformedStorage = std::move(R.Transformed);
    TransformInfo = std::move(R.Stats);
    Prepared = TransformedStorage.get();
  } else {
    Prepared = &Subject;
  }
  if (Opts.Debugger.Slicing == SliceMode::Static)
    Sdg = std::make_unique<analysis::SDG>(*Prepared);
}

GADTSession::GADTSession(std::shared_ptr<const SessionArtifacts> A,
                         GADTOptions Opts, DiagnosticsEngine &Diags)
    : Opts(Opts), Artifacts(std::move(A)) {
  if (!Artifacts || !Artifacts->Prepared) {
    Diags.error(SourceLoc(), "session artifacts are missing the prepared "
                             "program");
    return;
  }
  Prepared = Artifacts->Prepared.get();
  TransformInfo = Artifacts->TransformInfo;
  // Fall back to building the graph locally when static slicing is
  // requested but the artifacts were prepared without it.
  if (Opts.Debugger.Slicing == SliceMode::Static && !Artifacts->Sdg)
    Sdg = std::make_unique<analysis::SDG>(*Prepared);
}

GADTSession::~GADTSession() = default;

const analysis::SDG *GADTSession::sdg() const {
  if (Sdg)
    return Sdg.get();
  return Artifacts ? Artifacts->Sdg.get() : nullptr;
}

void GADTSession::addTestDatabase(
    std::shared_ptr<const tgen::TestSpec> Spec,
    std::shared_ptr<const tgen::TestReportDB> DB) {
  TestOracleImpl.addDatabase(std::move(Spec), std::move(DB));
}

BugReport GADTSession::debug(Oracle &UserOracle, std::vector<int64_t> Input) {
  BugReport Failure;
  if (!valid()) {
    Failure.Message = "session preparation failed";
    return Failure;
  }

  // Tracing phase.
  InterpOptions IOpts;
  IOpts.TraceLoops = Opts.TraceLoops;
  IOpts.TraceIterations = Opts.TraceIterations;
  IOpts.TrackDeps = Opts.Debugger.Slicing == SliceMode::Dynamic;
  // Shared compiled bytecode (null when unsupported → the interpreter
  // falls back to the tree tier, or compiles privately on first run).
  IOpts.Code = Artifacts ? Artifacts->Code : nullptr;
  LastTree = trace::buildExecTree(*Prepared, IOpts, std::move(Input),
                                  &LastRun);
  if (!LastRun.Ok) {
    Failure.Message = "subject program failed: " + LastRun.Error.Message +
                      " at " + LastRun.Error.Loc.str();
    return Failure;
  }

  // Debugging phase: assertions, then the test database, then the user.
  OracleChain Chain;
  Chain.append(&Assertions);
  Chain.append(&TestOracleImpl);
  Chain.append(&UserOracle);

  AlgorithmicDebugger Debugger(*LastTree, Chain, Opts.Debugger);
  if (const analysis::SDG *G = sdg())
    Debugger.setSDG(G);
  if (Artifacts && Artifacts->Slices)
    Debugger.setSliceProvider(Artifacts->Slices);
  BugReport Report;
  {
    obs::Span Span("debug", "debug");
    Report = Debugger.run();
    LastStats = Debugger.stats();
    Span.arg("found", Report.Found);
    if (Report.Found)
      Span.arg("unit", Report.UnitName);
    Span.arg("judgements", LastStats.Judgements);
    Span.arg("memo_hits", LastStats.MemoHits);
    Span.arg("nodes_pruned", LastStats.NodesPruned);
  }

  // Route the session's interaction accounting — the paper's figure of
  // merit — into the unified registry. The SessionStats struct remains the
  // per-run API; these counters are the cross-session totals.
  Metrics->resolved<SessionCounters>().record(LastStats);

  if (obs::Log::global().enabledFor(obs::LogLevel::Info))
    obs::logInfo("core", Report.Found ? "bug localized" : "no bug localized",
                 {{"unit", Report.UnitName, /*Quote=*/true},
                  {"judgements", std::to_string(LastStats.Judgements),
                   /*Quote=*/false},
                  {"memo_hits", std::to_string(LastStats.MemoHits),
                   /*Quote=*/false},
                  {"nodes_pruned", std::to_string(LastStats.NodesPruned),
                   /*Quote=*/false}});
  return Report;
}
