//===- Main.cpp - Localization-session benchmark --------------------------===//
//
//   gadt_perfbench --workload deep_chain|cold_mix|batch_warm --seed N
//                  --seconds S --trace 0|1 [--spans FILE]
//
// Runs one workload's fixed session list in several round-robin passes,
// keeps each session's fastest pass, checks every session's outcome, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced,
// replayed pass with --trace 1. See README.md for the metric dictionary.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"
#include "Sessions.h"
#include "Subjects.h"

#include "runtime/BatchRunner.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;
using namespace gadt;

namespace {

const double Inf = std::numeric_limits<double>::infinity();

double us(uint64_t Ns) { return Ns / 1000.0; }

/// Linear-interpolated percentile (0..100) of \p V; V is sorted in place.
double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * (V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - Lo);
}

/// Shortest text that reads back as exactly \p V.
std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

/// A session's fastest figures over all passes, element by element.
struct Best {
  double SessionUs = Inf;
  double FirstUs = Inf; ///< Inf when no question reached the user
  std::vector<double> WaitUs;

  /// Waits run from an answer going out to the next question coming in.
  /// The last answer's wait for the BugReport is left to session_ms: it
  /// builds the report, a population of its own whose cluster would put
  /// the median in the gap between the two.
  void absorb(const Timing &T) {
    SessionUs = std::min(SessionUs, us(T.EndNs - T.StartNs));
    if (!T.Marks.empty())
      FirstUs = std::min(FirstUs, us(T.Marks[0] - T.StartNs));
    size_t Q = T.Marks.size() / 2;
    size_t Waits = Q ? Q - 1 : 0;
    if (WaitUs.size() < Waits)
      WaitUs.resize(Waits, Inf);
    for (size_t I = 0; I < Waits; ++I)
      WaitUs[I] = std::min(WaitUs[I],
                           us(T.Marks[2 * I + 2] - T.Marks[2 * I + 1]));
  }
};

/// The five caches' counters, summed or per cache.
uint64_t misses(const runtime::RuntimeStats &S) {
  return S.ProgramMisses + S.TransformMisses + S.SdgMisses + S.CodeMisses +
         S.SliceMisses;
}
uint64_t hits(const runtime::RuntimeStats &S) {
  return S.ProgramHits + S.TransformHits + S.SdgHits + S.CodeHits +
         S.SliceHits;
}

/// Everything a run of one workload holds. Member order is destruction
/// order in reverse: the pool and context go before the registry.
struct Bench {
  Workload W;
  bool Traced = false;

  std::unique_ptr<obs::Registry> Reg;
  std::shared_ptr<runtime::RuntimeContext> Ctx;
  std::unique_ptr<runtime::BatchRunner> Pool;
  SetupData Setup;
  /// One session per distinct subject, and the same as batch requests.
  std::vector<size_t> WarmUp;
  std::vector<runtime::SessionRequest> WarmRequests;
  /// Batch requests and the per-request clock reads their oracles fill.
  std::vector<runtime::SessionRequest> Requests;
  std::vector<const pascal::Program *> IntendedOf;
  std::vector<Timing> Cur;

  // Results.
  std::vector<Best> Bests;
  std::vector<Outcome> First; ///< each session's first timed outcome
  std::vector<std::string> BatchFirst;
  std::vector<double> SetupS;
  std::vector<uint64_t> MissesPerPass;
  std::vector<double> PassWallUs, PassBusyUs;
  /// Cache lookups of the timed passes: all five caches, and slices.
  uint64_t CacheHits = 0, CacheMisses = 0, SliceHits = 0, SliceMisses = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Problems;

  // Traced pass, and each session's time in the untraced serial run just
  // before it (the last timed pass; serial runSession on batch_warm).
  SpanLog Log;
  std::vector<Layers> Replays;
  std::vector<double> TracedSessionUs, UntracedSessionUs;

  void fail(const std::string &Why) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(Why);
  }

  bool setup(std::string &Error);
  void teardown();
  void runPasses();
  void verify();
  void tracedPass();

private:
  void checkOutcome(size_t I, const Outcome &O, unsigned Pass);
  void serialPass(unsigned Pass, runtime::RuntimeContext &C);
  void batchPass(unsigned Pass);
  runtime::SessionResult serialSession(size_t I);
  void addDelta(const runtime::RuntimeStats &Before,
                const runtime::RuntimeStats &After);
};

bool Bench::setup(std::string &Error) {
  Reg = std::make_unique<obs::Registry>();
  Ctx = std::make_shared<runtime::RuntimeContext>(Reg.get());
  if (W.M == Mode::WarmBatch)
    Pool = std::make_unique<runtime::BatchRunner>(Ctx);
  Setup = SetupData();
  if (!buildSetupData(W.Sessions, Setup, Error))
    return false;
  IntendedOf.clear();
  for (const Subject &S : W.Sessions)
    IntendedOf.push_back(&Setup.intendedFor(S));

  // The warm-up pass: every distinct subject once. Warm workloads keep the
  // context it filled; cold_mix warms only the process, in a context of
  // its own, so each timed pass starts as cold as the next.
  if (W.M == Mode::WarmBatch) {
    for (const runtime::SessionResult &R : Pool->run(WarmRequests))
      if (!R.Found) {
        Error = "warm-up session failed: " + R.Message;
        return false;
      }
    return true;
  }
  std::unique_ptr<runtime::RuntimeContext> Cold;
  if (W.M == Mode::ColdSerial)
    Cold = std::make_unique<runtime::RuntimeContext>(Reg.get());
  runtime::RuntimeContext &C = Cold ? *Cold : *Ctx;
  for (size_t I : WarmUp) {
    Timing T;
    Outcome O = runSerial(C, W.Sessions[I], Setup, T);
    if (!O.Ok) {
      Error = W.Sessions[I].Name + ": warm-up session failed: " + O.Text;
      return false;
    }
  }
  return true;
}

void Bench::teardown() {
  Pool.reset();
  Ctx.reset();
  Reg.reset();
}

void Bench::checkOutcome(size_t I, const Outcome &O, unsigned Pass) {
  const Subject &S = W.Sessions[I];
  if (!O.Ok)
    return fail(S.Name + ": no report: " + O.Text);
  if (!S.ExpectUnit.empty() && O.Unit != S.ExpectUnit)
    return fail(S.Name + ": localized " + O.Unit + ", planted in " +
                S.ExpectUnit);
  if (Pass == 0) {
    First[I] = O;
    return;
  }
  const Outcome &F = First[I];
  if (O.Text != F.Text || O.UserQueries != F.UserQueries ||
      O.OracleCalls != F.OracleCalls || O.TreeNodes != F.TreeNodes ||
      O.NodesPruned != F.NodesPruned)
    fail(S.Name + ": outcome drifted in pass " + std::to_string(Pass));
}

void Bench::addDelta(const runtime::RuntimeStats &B,
                     const runtime::RuntimeStats &A) {
  MissesPerPass.push_back(misses(A) - misses(B));
  CacheHits += hits(A) - hits(B);
  CacheMisses += misses(A) - misses(B);
  SliceHits += A.SliceHits - B.SliceHits;
  SliceMisses += A.SliceMisses - B.SliceMisses;
}

void Bench::serialPass(unsigned Pass, runtime::RuntimeContext &C) {
  runtime::RuntimeStats Before = C.stats();
  double Busy = 0;
  uint64_t Start = nowNs();
  for (size_t I = 0; I < W.Sessions.size(); ++I) {
    Timing T;
    Outcome O = runSerial(C, W.Sessions[I], Setup, T);
    ++Attempted;
    Bests[I].absorb(T);
    UntracedSessionUs[I] = us(T.EndNs - T.StartNs);
    Busy += UntracedSessionUs[I];
    checkOutcome(I, O, Pass);
  }
  PassWallUs.push_back(us(nowNs() - Start));
  PassBusyUs.push_back(Busy);
  addDelta(Before, C.stats());
}

void Bench::batchPass(unsigned Pass) {
  for (Timing &T : Cur)
    T = Timing();
  runtime::RuntimeStats Before = Ctx->stats();
  obs::Histogram &H = Reg->histogram("runtime.session.micros");
  uint64_t BusyBefore = H.sum();
  uint64_t Start = nowNs();
  std::vector<runtime::SessionResult> Results = Pool->run(Requests);
  PassWallUs.push_back(us(nowNs() - Start));
  PassBusyUs.push_back(static_cast<double>(H.sum() - BusyBefore));
  addDelta(Before, Ctx->stats());
  // A worker takes its next request as soon as it finishes one, so a
  // session starts when the previous one on its worker ended (or when the
  // batch started): the worker's turnaround, pool hand-off included.
  std::map<std::thread::id, std::vector<size_t>> ByWorker;
  for (size_t I = 0; I < Cur.size(); ++I)
    ByWorker[Cur[I].Worker].push_back(I);
  for (auto &[Worker, Done] : ByWorker) {
    std::sort(Done.begin(), Done.end(),
              [&](size_t A, size_t B) { return Cur[A].EndNs < Cur[B].EndNs; });
    uint64_t Prev = Start;
    for (size_t I : Done) {
      Cur[I].StartNs = Prev;
      Prev = Cur[I].EndNs;
    }
  }
  for (size_t I = 0; I < Results.size(); ++I) {
    ++Attempted;
    Bests[I].absorb(Cur[I]);
    const runtime::SessionResult &R = Results[I];
    const Subject &S = W.Sessions[I];
    std::string Text = R.summary();
    if (!R.Found || R.UnitName != S.ExpectUnit)
      fail(S.Name + ": batch session localized '" + R.UnitName + "' " +
           R.Message);
    else if (Pass == 0) {
      BatchFirst[I] = Text;
      First[I].UserQueries = R.Stats.userQueries();
      First[I].OracleCalls = R.Stats.Judgements;
      First[I].MemoHits = R.Stats.MemoHits;
      First[I].NodesPruned = R.Stats.NodesPruned;
    } else if (Text != BatchFirst[I])
      fail(S.Name + ": batch outcome drifted in pass " + std::to_string(Pass));
  }
}

runtime::SessionResult Bench::serialSession(size_t I) {
  Cur[I] = Timing();
  Cur[I].StartNs = nowNs();
  runtime::SessionResult R = runtime::runSession(*Ctx, Requests[I]);
  ++Attempted;
  if (R.summary() != BatchFirst[I])
    fail(W.Sessions[I].Name + ": batch result differs from serial "
                              "runSession");
  return R;
}

void Bench::runPasses() {
  size_t N = W.Sessions.size();
  Bests.assign(N, Best());
  UntracedSessionUs.assign(N, 0);
  First.assign(N, Outcome());
  BatchFirst.assign(N, std::string());
  for (unsigned P = 0; P < W.Passes; ++P) {
    if (W.M == Mode::WarmBatch) {
      batchPass(P);
    } else if (W.M == Mode::ColdSerial) {
      runtime::RuntimeContext Fresh(Reg.get());
      serialPass(P, Fresh);
    } else {
      serialPass(P, *Ctx);
    }
  }
  for (size_t P = 1; P < MissesPerPass.size(); ++P)
    if (MissesPerPass[P] != MissesPerPass[0])
      fail("cache misses drifted: pass 0 missed " +
           std::to_string(MissesPerPass[0]) + ", pass " + std::to_string(P) +
           " missed " + std::to_string(MissesPerPass[P]));
}

/// Checks that need a reference run, outside every timed region.
void Bench::verify() {
  if (W.M == Mode::WarmBatch) {
    // Byte-identical to serial runSession on the same requests.
    for (size_t I = 0; I < Requests.size(); ++I) {
      serialSession(I);
      UntracedSessionUs[I] = us(nowNs() - Cur[I].StartNs);
    }
    return;
  }
  // randomProgram subjects: equal to a plain session with no context.
  for (size_t I = 0; I < W.Sessions.size(); ++I) {
    const Subject &S = W.Sessions[I];
    if (!S.ExpectUnit.empty() || First[I].Text.empty())
      continue;
    Outcome Plain = runPlain(S, Setup);
    if (Plain.Text != First[I].Text)
      fail(S.Name + ": transcript differs from a plain GADTSession");
  }
}

/// One more pass in which every session records its top-level calls and
/// is followed by its layer-by-layer replay.
void Bench::tracedPass() {
  if (W.M == Mode::WarmBatch) {
    // The session runs inside the library, so its own trace is its root
    // span; the replay records the layers.
    for (size_t I = 0; I < Requests.size(); ++I) {
      unsigned Id = static_cast<unsigned>(I);
      int Root = Log.open("session", -1, Id);
      runtime::SessionResult R = serialSession(I);
      Log.close(Root);
      core::BugReport Rep;
      Rep.Found = R.Found;
      Rep.UnitName = R.UnitName;
      Rep.WrongOutput = R.WrongOutput;
      Rep.Message = R.Message;
      First[I].Text = outcomeText(Rep, R.Stats);
      TracedSessionUs.push_back(us(Log.spans()[Root].EndNs -
                                   Log.spans()[Root].StartNs));
      Replays.push_back(replayWarm(*Ctx, W.Sessions[I], Setup, Log, Id));
    }
    return;
  }
  runtime::RuntimeContext Fresh(Reg.get());
  runtime::RuntimeContext &C = W.M == Mode::ColdSerial ? Fresh : *Ctx;
  for (size_t I = 0; I < W.Sessions.size(); ++I) {
    const Subject &S = W.Sessions[I];
    unsigned Id = static_cast<unsigned>(I);
    SessionTrace ST{&Log, Id, Log.open("session", -1, Id)};
    Timing T;
    Outcome O = runSerial(C, S, Setup, T, &ST);
    Log.close(ST.Root);
    ++Attempted;
    checkOutcome(I, O, W.Passes);
    TracedSessionUs.push_back(us(T.EndNs - T.StartNs));
    Replays.push_back(W.M == Mode::ColdSerial
                          ? replayCold(S, Setup, Log, Id)
                          : replayWarm(C, S, Setup, Log, Id));
    // runtime.prepare_us is the session's own call, on every workload
    // whose sessions the benchmark drives itself.
    Replays.back().PrepareUs = us(ST.PrepareNs);
  }
}

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::vector<Metric> endToEnd(Bench &B) {
  std::vector<double> Session, First, Wait;
  double SumSession = 0, Queries = 0;
  for (size_t I = 0; I < B.Bests.size(); ++I) {
    const Best &S = B.Bests[I];
    if (S.SessionUs < Inf) {
      Session.push_back(S.SessionUs / 1000);
      SumSession += S.SessionUs;
    }
    if (S.FirstUs < Inf)
      First.push_back(S.FirstUs / 1000);
    Wait.insert(Wait.end(), S.WaitUs.begin(), S.WaitUs.end());
    Queries += B.First[I].UserQueries;
  }
  double PerS = B.W.M == Mode::WarmBatch
                    ? B.W.Sessions.size() /
                          (*std::min_element(B.PassWallUs.begin(),
                                             B.PassWallUs.end()) /
                           1e6)
                    : Session.size() / (SumSession / 1e6);
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  std::vector<double> S2 = Session, F2 = First, W2 = Wait;
  return {
      {"setup_s", "s", *std::min_element(B.SetupS.begin(), B.SetupS.end())},
      {"session_ms.p50", "ms", percentile(Session, 50)},
      {"session_ms.p90", "ms", percentile(S2, 90)},
      {"first_query_ms.p50", "ms", percentile(First, 50)},
      {"first_query_ms.p90", "ms", percentile(F2, 90)},
      {"query_wait_us.p50", "us", percentile(Wait, 50)},
      {"query_wait_us.p90", "us", percentile(W2, 90)},
      {"sessions_per_s", "1/s", PerS},
      {"user_queries.mean", "count", Queries / B.Bests.size()},
      {"peak_rss_mb", "MB", RU.ru_maxrss / 1024.0},
  };
}

/// Per generator family: its share of the sessions and of the traced
/// session time, where its sessions sit in the untraced distribution (the
/// share at or above session_ms.p50 and p90), and the layers it loads:
/// "prepare" is the frontend layers on a cold workload and the warm
/// RuntimeContext::prepare (all hits) otherwise.
void printFamilies(const Bench &B) {
  struct Fam {
    unsigned N = 0, AtP50 = 0, AtP90 = 0;
    double SessionUs = 0, PrepareUs = 0, TgenUs = 0, ExecUs = 0, RunUs = 0;
  };
  std::vector<double> All;
  for (const Best &S : B.Bests)
    All.push_back(S.SessionUs);
  std::vector<double> Sorted = All;
  double P50 = percentile(Sorted, 50), P90 = percentile(Sorted, 90);
  std::map<std::string, Fam> Fams;
  double Total = 0;
  for (size_t I = 0; I < B.Replays.size(); ++I) {
    Fam &F = Fams[B.W.Sessions[I].Family];
    const Layers &L = B.Replays[I];
    ++F.N;
    F.AtP50 += All[I] >= P50;
    F.AtP90 += All[I] >= P90;
    F.SessionUs += B.TracedSessionUs[I];
    F.PrepareUs += B.W.M == Mode::ColdSerial
                       ? L.ParseUs + L.TransformUs + L.SdgUs + L.CompileUs
                       : L.PrepareUs;
    F.TgenUs += L.TgenUs;
    F.ExecUs += L.ExecUs;
    F.RunUs += L.RunUs;
    Total += B.TracedSessionUs[I];
  }
  std::printf("\nfamilies: %s (untraced session_ms.p50 %.3f, p90 %.3f)\n",
              B.W.Name.c_str(), P50 / 1000, P90 / 1000);
  std::printf("  %-8s %5s %7s %7s %7s %10s %7s %7s %7s %7s %7s\n",
              "family", "n", "of n", ">=p50", ">=p90", "mean us", "of time",
              "prepare", "tgen", "exec", "run");
  size_t N = B.Replays.size();
  for (const auto &[Name, F] : Fams)
    std::printf("  %-8s %5u %6.1f%% %6.1f%% %6.1f%% %10.1f %6.1f%% %6.1f%% "
                "%6.1f%% %6.1f%% %6.1f%%\n",
                Name.c_str(), F.N, 100.0 * F.N / N, 100.0 * F.AtP50 / F.N,
                100.0 * F.AtP90 / F.N, F.SessionUs / F.N,
                100 * F.SessionUs / Total, 100 * F.PrepareUs / F.SessionUs,
                100 * F.TgenUs / F.SessionUs, 100 * F.ExecUs / F.SessionUs,
                100 * F.RunUs / F.SessionUs);
}

std::vector<Metric> perLayer(Bench &B) {
  Layers Sum;
  double Session = 0, Untraced = 0, Unattributed = 0;
  unsigned Equal = 0;
  size_t N = B.Replays.size();
  for (size_t I = 0; I < N; ++I) {
    const Layers &L = B.Replays[I];
    if (L.Result.Text == B.First[I].Text)
      ++Equal;
    else
      B.fail(B.W.Sessions[I].Name + ": replay differs from the session");
    Sum.ParseUs += L.ParseUs;
    Sum.TransformUs += L.TransformUs;
    Sum.SdgUs += L.SdgUs;
    Sum.CompileUs += L.CompileUs;
    Sum.TgenUs += L.TgenUs;
    Sum.PrepareUs += L.PrepareUs;
    Sum.ExecUs += L.ExecUs;
    Sum.RunUs += L.RunUs;
    Sum.OracleUs += L.OracleUs;
    Sum.SliceUs += L.SliceUs;
    Sum.SdgVertices += L.SdgVertices;
    Sum.TreeNodes += L.TreeNodes;
    Sum.OracleCalls += L.OracleCalls;
    Sum.SliceCalls += L.SliceCalls;
    Sum.MemoHits += L.MemoHits;
    Sum.NodesPruned += L.NodesPruned;
    Sum.TestDbAnswers += L.TestDbAnswers;
    Session += B.TracedSessionUs[I];
    Untraced += B.UntracedSessionUs[I];
    Unattributed += B.TracedSessionUs[I] - L.ReplayedUs;
  }
  double Div = N ? static_cast<double>(N) : 1;
  auto Ratio = [](double H, double M) { return H + M ? H / (H + M) : 0; };
  // The fastest pass's busy share: summed session time over workers x wall.
  size_t Fast = std::min_element(B.PassWallUs.begin(), B.PassWallUs.end()) -
                B.PassWallUs.begin();
  double Workers = B.Pool ? B.Pool->threadCount() : 1;
  double Busy = B.PassBusyUs[Fast] / (Workers * B.PassWallUs[Fast]);
  // Traced sessions over the same sessions untraced, in the same order.
  double Overhead = Untraced ? Session / Untraced - 1 : 0;

  std::vector<Metric> M = {
      {"pascal.parse_us", "us", Sum.ParseUs / Div},
      {"transform.transform_us", "us", Sum.TransformUs / Div},
      {"analysis.sdg_us", "us", Sum.SdgUs / Div},
      {"analysis.sdg_vertices", "count", Sum.SdgVertices / Div},
      {"bytecode.compile_us", "us", Sum.CompileUs / Div},
      {"tgen.suite_us", "us", Sum.TgenUs / Div},
      {"core.testdb_answers", "count", Sum.TestDbAnswers / Div},
      {"trace.exec_us", "us", Sum.ExecUs / Div},
      {"trace.tree_nodes", "count", Sum.TreeNodes / Div},
      {"core.oracle_us", "us", Sum.OracleUs / Div},
      {"core.oracle_calls", "count", Sum.OracleCalls / Div},
      {"core.oracle_call_us", "us",
       Sum.OracleCalls ? Sum.OracleUs / Sum.OracleCalls : 0},
      {"core.search_us", "us", (Sum.RunUs - Sum.OracleUs - Sum.SliceUs) / Div},
      {"slicing.slice_us", "us", Sum.SliceUs / Div},
      {"slicing.slice_calls", "count", Sum.SliceCalls / Div},
      {"core.memo_hits", "count", Sum.MemoHits / Div},
      {"core.nodes_pruned", "count", Sum.NodesPruned / Div},
      {"runtime.prepare_us", "us", Sum.PrepareUs / Div},
      {"runtime.cache_hit_ratio", "ratio", Ratio(B.CacheHits, B.CacheMisses)},
      {"runtime.slice_hit_ratio", "ratio", Ratio(B.SliceHits, B.SliceMisses)},
      {"runtime.worker_busy_ratio", "ratio", Busy},
      {"session.unattributed_us", "us", Unattributed / Div},
      {"bench.tracing_overhead_ratio", "ratio", Overhead},
  };

  // The layer table: mean per session and share of session time.
  double PerSession = Session / Div;
  std::printf("\nlayer table: %s, %zu sessions replayed, replay == session "
              "%u/%zu\n",
              B.W.Name.c_str(), N, Equal, N);
  std::printf("  %-26s %14s %8s\n", "layer", "mean/session", "share");
  // On warm workloads the frontend layers run only in set-up: they are
  // measured beside the session, not as a part of it.
  const bool Warm = B.W.M != Mode::ColdSerial;
  for (const Metric &X : M) {
    if (X.Unit != "us" || X.Name == "core.oracle_call_us")
      continue;
    bool SetupOnly = Warm && (X.Name.rfind("pascal.", 0) == 0 ||
                              X.Name.rfind("transform.", 0) == 0 ||
                              X.Name == "analysis.sdg_us" ||
                              X.Name.rfind("bytecode.", 0) == 0 ||
                              X.Name.rfind("tgen.", 0) == 0);
    if (SetupOnly)
      std::printf("  %-26s %12.1fus   set-up\n", X.Name.c_str(), X.Value);
    else
      std::printf("  %-26s %12.1fus %7.1f%%\n", X.Name.c_str(), X.Value,
                  PerSession ? 100 * X.Value / PerSession : 0);
  }
  std::printf("  %-26s %12.1fus\n", "session (traced pass)", PerSession);
  std::printf("  %-26s %12.1fus\n", "session (untraced)", Untraced / Div);
  std::printf("  traced / untraced - 1 = %.4f (tracing overhead)\n", Overhead);
  printFamilies(B);
  return M;
}

void printAcceptance(const Bench &B, const std::vector<Metric> &M) {
  auto Get = [&](const char *Name) {
    for (const Metric &X : M)
      if (X.Name == Name)
        return X.Value;
    return 0.0;
  };
  double Session = 0;
  for (double S : B.TracedSessionUs)
    Session += S;
  Session /= B.TracedSessionUs.empty() ? 1 : B.TracedSessionUs.size();
  if (B.W.Name == "deep_chain") {
    double Share = (Get("core.oracle_us") + Get("core.search_us") +
                    Get("slicing.slice_us")) /
                   Session;
    std::printf("check: oracle + search + slice = %.1f%% of session "
                "(want >= 70%%)\n",
                100 * Share);
  } else if (B.W.Name == "cold_mix") {
    double Share = (Get("pascal.parse_us") + Get("transform.transform_us") +
                    Get("analysis.sdg_us") + Get("bytecode.compile_us") +
                    Get("tgen.suite_us")) /
                   Session;
    std::printf("check: prepare layers = %.1f%% of session (want >= 50%%)\n",
                100 * Share);
  } else {
    std::printf("check: runtime.worker_busy_ratio = %.3f at %u workers\n",
                Get("runtime.worker_busy_ratio"),
                B.Pool ? B.Pool->threadCount() : 1);
  }
}

/// The counts that must repeat exactly on one seed, as one line the
/// steadiness tool compares across runs.
void printCounts(const Bench &B) {
  uint64_t Queries = 0, Calls = 0, Memo = 0, Pruned = 0, Nodes = 0;
  for (const Outcome &O : B.First) {
    Queries += O.UserQueries;
    Calls += O.OracleCalls;
    Memo += O.MemoHits;
    Pruned += O.NodesPruned;
    Nodes += O.TreeNodes;
  }
  std::string Misses;
  for (uint64_t X : B.MissesPerPass) {
    if (!Misses.empty())
      Misses += ',';
    Misses += std::to_string(X);
  }
  std::printf("counts {\"user_queries\":%llu,\"oracle_calls\":%llu,"
              "\"memo_hits\":%llu,\"nodes_pruned\":%llu,\"tree_nodes\":%llu,"
              "\"cache_misses_per_pass\":[%s]}\n",
              (unsigned long long)Queries, (unsigned long long)Calls,
              (unsigned long long)Memo, (unsigned long long)Pruned,
              (unsigned long long)Nodes, Misses.c_str());
}

int usage() {
  std::fprintf(stderr, "usage: gadt_perfbench --workload NAME --seed N "
                       "--seconds S --trace 0|1 [--spans FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Name, SpansPath;
  uint64_t Seed = 0;
  unsigned Seconds = 0;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--workload")
      Name = Val;
    else if (Flag == "--seed")
      Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = static_cast<unsigned>(std::strtoul(Val.c_str(), nullptr, 10));
    else if (Flag == "--trace")
      Trace = Val == "1" ? 1 : Val == "0" ? 0 : -1;
    else if (Flag == "--spans")
      SpansPath = Val;
    else
      return usage();
  }
  if (argc % 2 == 0 || Trace < 0 || Seconds == 0)
    return usage();

  Bench B;
  if (!makeWorkload(Name, Seed, Seconds, B.W)) {
    std::fprintf(stderr, "unknown workload '%s'\n", Name.c_str());
    return usage();
  }
  B.Traced = Trace == 1;

  // The benchmark's own lists of texts, built before any timing.
  std::map<std::string, size_t> Distinct;
  for (size_t I = 0; I < B.W.Sessions.size(); ++I)
    if (Distinct.emplace(B.W.Sessions[I].Source, I).second)
      B.WarmUp.push_back(I);
  if (B.W.M == Mode::WarmBatch) {
    B.Cur.resize(B.W.Sessions.size());
    for (size_t I = 0; I < B.W.Sessions.size(); ++I) {
      runtime::SessionRequest R;
      R.Source = B.W.Sessions[I].Source;
      R.Input = B.W.Sessions[I].Input;
      R.Opts = sessionOptions();
      Bench *Self = &B;
      R.MakeOracle = [Self, I]() -> std::unique_ptr<core::Oracle> {
        Self->Cur[I].Worker = std::this_thread::get_id();
        return std::make_unique<TimedUser>(*Self->IntendedOf[I],
                                           Self->Cur[I].Marks,
                                           &Self->Cur[I].EndNs);
      };
      B.Requests.push_back(std::move(R));
    }
    for (size_t I : B.WarmUp)
      B.WarmRequests.push_back(B.Requests[I]);
  }

  // Set-up, repeated; the last one stays for the timed passes.
  unsigned Repeats = B.Traced ? 1 : B.W.SetupRepeats;
  for (unsigned R = 0; R < Repeats; ++R) {
    if (R)
      B.teardown();
    std::string Error;
    uint64_t Start = nowNs();
    bool Ok = B.setup(Error);
    B.SetupS.push_back((nowNs() - Start) / 1e9);
    if (!Ok) {
      std::fprintf(stderr, "set-up failed: %s\n", Error.c_str());
      return 1;
    }
  }

  B.runPasses();
  B.verify();
  if (B.Traced)
    B.tracedPass();

  for (const std::string &P : B.Problems)
    std::fprintf(stderr, "FAILED: %s\n", P.c_str());
  std::fprintf(stderr, "pass wall ms:");
  for (double W : B.PassWallUs)
    std::fprintf(stderr, " %.1f", W / 1000);
  std::fprintf(stderr, "\nsetup s:");
  for (double S : B.SetupS)
    std::fprintf(stderr, " %.4f", S);
  std::fprintf(stderr, "\n");
  printCounts(B);

  std::vector<Metric> M;
  if (B.Traced) {
    M = perLayer(B);
    printAcceptance(B, M);
    if (!SpansPath.empty() && !B.Log.write(SpansPath))
      std::fprintf(stderr, "could not write spans to %s\n", SpansPath.c_str());
  } else {
    M = endToEnd(B);
  }

  std::string Json = "{\"correct\": " +
                     std::string(B.Failed ? "false" : "true") +
                     ", \"attempted\": " + std::to_string(B.Attempted) +
                     ", \"failed\": " + std::to_string(B.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I)
    Json += (I ? ", \"" : "\"") + M[I].Name + "\": {\"value\": " +
            num(M[I].Value) + ", \"unit\": \"" + M[I].Unit + "\"}";
  std::printf("%s}}\n", Json.c_str());
  return 0;
}
