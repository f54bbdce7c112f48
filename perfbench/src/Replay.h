//===- Replay.h - Layer-by-layer replay of one session ----------*- C++ -*-===//
///
/// \file
/// The traced run replays each session by calling every layer's public
/// function itself, with a span around each call: the frontend, the
/// Section 6 transformation, the SDG, the bytecode compiler, T-GEN, the
/// traced execution, and AlgorithmicDebugger::run behind a timed oracle
/// chain and a timed SliceProvider. The replay's report and dialogue must
/// equal the session's; its spans break the session's time down by layer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Sessions.h"

namespace perfbench {

/// Per-session layer measurements, in microseconds unless named a count.
struct Layers {
  double ParseUs = 0, TransformUs = 0, SdgUs = 0, CompileUs = 0, TgenUs = 0;
  double PrepareUs = 0; ///< RuntimeContext::prepare (warm replays)
  double ExecUs = 0, RunUs = 0, OracleUs = 0, SliceUs = 0;
  unsigned SdgVertices = 0, TreeNodes = 0, OracleCalls = 0, SliceCalls = 0,
           MemoHits = 0, NodesPruned = 0, TestDbAnswers = 0;
  /// Sum of the layers the replay ran on the session's path.
  double ReplayedUs = 0;
  Outcome Result;
};

/// Replays a cold session: every layer from the source text, with a
/// private slice memo. The frontend layers are on the session's path.
Layers replayCold(const Subject &S, const SetupData &Setup, SpanLog &Log,
                  unsigned Session);

/// Replays a warm session: RuntimeContext::prepare on \p Ctx (all hits),
/// then execution and the debugger over the context's slice provider. The
/// frontend layers are still measured, outside the replay, because on a
/// warm workload their cost sits in set-up.
Layers replayWarm(gadt::runtime::RuntimeContext &Ctx, const Subject &S,
                  const SetupData &Setup, SpanLog &Log, unsigned Session);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
