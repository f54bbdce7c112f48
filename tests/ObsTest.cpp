//===- ObsTest.cpp - Observability layer tests ----------------------------===//
//
// The contract of src/obs and its wiring into the pipeline:
//  - the JSON writer and parser round-trip (the trace exporter, metric
//    snapshots and bench --json all ride on them);
//  - spans nest, order and annotate correctly in the exported JSONL;
//  - disabled tracing emits nothing and allocates nothing on the hot path;
//  - the metrics registry counts exactly, and its totals equal the sums of
//    the per-session/per-context stats structs (no drift);
//  - a traced BatchRunner run covers every pipeline phase and every line
//    of its export is independently parseable;
//  - events carry the span hierarchy (sid/psid) and batch sessions carry
//    flow ids from the enqueuing thread to the worker that ran them;
//  - per-thread trace buffers are bounded and overflow is counted, not
//    grown; histogram quantiles are exact where exactness is possible;
//  - the profiler, structured log and metrics exporter stay correct (and
//    TSan-clean) when raced from many threads.
//
//===----------------------------------------------------------------------===//

#include "obs/Exporter.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"

#include "runtime/BatchRunner.h"
#include "support/JSON.h"
#include "workload/PaperPrograms.h"
#include "workload/Synthetic.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <thread>

using namespace gadt;
using namespace gadt::core;
using namespace gadt::runtime;
using namespace gadt::workload;

//===----------------------------------------------------------------------===//
// Allocation accounting for the disabled-hot-path test. Sanitizers replace
// operator new themselves, so the check only runs in plain builds.
//===----------------------------------------------------------------------===//

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GADT_OBS_NO_ALLOC_CHECK 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||     \
    __has_feature(memory_sanitizer)
#define GADT_OBS_NO_ALLOC_CHECK 1
#endif
#endif

#ifndef GADT_OBS_NO_ALLOC_CHECK
// The replacement operator new allocates with malloc, so the frees below
// are matched; GCC's pairing heuristic cannot see that.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

static std::atomic<uint64_t> GAllocCount{0};

void *operator new(std::size_t N) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
#endif

namespace {

//===----------------------------------------------------------------------===//
// JSON writer / parser round-trip
//===----------------------------------------------------------------------===//

TEST(JsonTest, WriterParserRoundTrip) {
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject();
  W.key("s").value("a \"quoted\"\nline\twith\\slashes");
  W.key("i").value(int64_t(-42));
  W.key("u").value(uint64_t(18446744073709551615ull));
  W.key("d").value(1.5);
  W.key("b").value(true);
  W.key("n").null();
  W.key("arr").beginArray().value(1).value(2).value(3).endArray();
  W.key("obj").beginObject().key("k").value("v").endObject();
  W.endObject();

  std::optional<json::Value> V = json::parse(Buf);
  ASSERT_TRUE(V.has_value()) << Buf;
  EXPECT_EQ(V->getString("s"), "a \"quoted\"\nline\twith\\slashes");
  EXPECT_EQ(V->getNumber("i"), -42.0);
  EXPECT_EQ(V->getNumber("d"), 1.5);
  EXPECT_TRUE(V->getBool("b"));
  ASSERT_NE(V->find("n"), nullptr);
  EXPECT_TRUE(V->find("n")->isNull());
  ASSERT_NE(V->find("arr"), nullptr);
  ASSERT_EQ(V->find("arr")->Arr.size(), 3u);
  EXPECT_EQ(V->find("arr")->Arr[1].Num, 2.0);
  ASSERT_NE(V->find("obj"), nullptr);
  EXPECT_EQ(V->find("obj")->getString("k"), "v");
}

TEST(JsonTest, ControlCharactersEscapeAndParseBack) {
  std::string Raw = "ctrl:\x01\x1f done";
  std::string Buf;
  json::Writer W(Buf);
  W.beginObject().key("k").value(Raw).endObject();
  std::optional<json::Value> V = json::parse(Buf);
  ASSERT_TRUE(V.has_value()) << Buf;
  EXPECT_EQ(V->getString("k"), Raw);
}

TEST(JsonTest, ParserRejectsMalformed) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1,2,]").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("{} trailing").has_value());
  EXPECT_FALSE(json::parse("nul").has_value());
}

//===----------------------------------------------------------------------===//
// Metrics registry semantics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, CountersAndGaugesAreExact) {
  obs::Registry Reg;
  obs::Counter &C = Reg.counter("test.counter");
  for (int I = 0; I < 100; ++I)
    C.add();
  C.add(17);
  EXPECT_EQ(Reg.counterValue("test.counter"), 117u);
  EXPECT_EQ(Reg.counterValue("never.touched"), 0u);
  // Same name returns the same instrument.
  EXPECT_EQ(&C, &Reg.counter("test.counter"));

  obs::Gauge &G = Reg.gauge("test.gauge");
  G.set(5);
  G.add(-2);
  EXPECT_EQ(Reg.gaugeValue("test.gauge"), 3);
}

namespace {
struct TwoCounters {
  explicit TwoCounters(obs::Registry &R)
      : A(R.counter("set.a")), B(R.counter("set.b")) {}
  obs::Counter &A, &B;
};
} // namespace

TEST(MetricsTest, ResolvedSetIsBuiltOnceOnFirstUse) {
  obs::Registry Reg;
  EXPECT_TRUE(Reg.snapshotData().Counters.empty());
  const TwoCounters &S = Reg.resolved<TwoCounters>();
  EXPECT_EQ(&S, &Reg.resolved<TwoCounters>());
  EXPECT_EQ(&S.A, &Reg.counter("set.a"));
  S.B.add(3);
  EXPECT_EQ(Reg.counterValue("set.b"), 3u);
  EXPECT_EQ(Reg.snapshotData().Counters.size(), 2u);
  // Another registry resolves its own set.
  obs::Registry Other;
  EXPECT_NE(&Other.resolved<TwoCounters>().B, &S.B);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  obs::Histogram H;
  EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::bucketBound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucketBound(3), 7u);

  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 1000ull})
    H.observe(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 1u); // 0
  EXPECT_EQ(H.bucket(1), 1u); // 1
  EXPECT_EQ(H.bucket(2), 2u); // 2, 3
  EXPECT_EQ(H.bucket(10), 1u); // 1000
}

TEST(MetricsTest, JsonSnapshotParses) {
  obs::Registry Reg;
  Reg.counter("a.b").add(7);
  Reg.gauge("g").set(-4);
  Reg.histogram("h.micros").observe(3);
  std::optional<json::Value> V = json::parse(Reg.jsonSnapshot());
  ASSERT_TRUE(V.has_value()) << Reg.jsonSnapshot();
  const json::Value *Counters = V->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->getNumber("a.b"), 7.0);
  const json::Value *Gauges = V->find("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_EQ(Gauges->getNumber("g"), -4.0);
  const json::Value *Hists = V->find("histograms");
  ASSERT_NE(Hists, nullptr);
  const json::Value *H = Hists->find("h.micros");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->getNumber("count"), 1.0);
  EXPECT_EQ(H->getNumber("sum"), 3.0);
}

TEST(MetricsTest, ApproxQuantileExactCases) {
  obs::Histogram Empty;
  EXPECT_EQ(Empty.approxQuantile(0.5), 0.0);

  // A single repeated value is exact at every quantile: the [min,max]
  // clamp collapses the bucket's interpolation range to a point.
  obs::Histogram Point;
  for (int I = 0; I < 100; ++I)
    Point.observe(10);
  for (double Q : {0.0, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(Point.approxQuantile(Q), 10.0) << "q=" << Q;

  // Out-of-range Q clamps instead of misbehaving.
  EXPECT_EQ(Point.approxQuantile(-3.0), 10.0);
  EXPECT_EQ(Point.approxQuantile(7.0), 10.0);

  // Ranks that land in a single-width bucket (0 or 1) are exact even with
  // a mixed population: 0, 1, 1000 → the median is exactly 1.
  obs::Histogram Mixed;
  for (uint64_t V : {0ull, 1ull, 1000ull})
    Mixed.observe(V);
  EXPECT_EQ(Mixed.approxQuantile(0.5), 1.0);
  EXPECT_EQ(Mixed.approxQuantile(0.0), 0.0);
  EXPECT_EQ(Mixed.approxQuantile(1.0), 1000.0);
}

TEST(MetricsTest, ApproxQuantileInterpolatesWithinBucket) {
  // Two values in bucket 4 (range [8,15]): rank 1 of 2 interpolates to the
  // bucket midpoint 8 + (1/2)*(15-8) = 11.5; rank 2 reaches the top, which
  // the max-clamp pins to the observed 15.
  obs::Histogram H;
  H.observe(8);
  H.observe(15);
  EXPECT_DOUBLE_EQ(H.approxQuantile(0.5), 11.5);
  EXPECT_DOUBLE_EQ(H.approxQuantile(1.0), 15.0);
  // The min-clamp keeps low quantiles at or above the observed minimum.
  EXPECT_GE(H.approxQuantile(0.01), 8.0);
}

TEST(MetricsTest, SnapshotsCarryQuantiles) {
  obs::Registry Reg;
  obs::Histogram &H = Reg.histogram("q.micros");
  for (int I = 0; I < 50; ++I)
    H.observe(64);
  std::optional<json::Value> V = json::parse(Reg.jsonSnapshot());
  ASSERT_TRUE(V.has_value()) << Reg.jsonSnapshot();
  const json::Value *HJ = V->find("histograms")->find("q.micros");
  ASSERT_NE(HJ, nullptr);
  EXPECT_EQ(HJ->getNumber("p50"), 64.0);
  EXPECT_EQ(HJ->getNumber("p95"), 64.0);
  EXPECT_EQ(HJ->getNumber("p99"), 64.0);

  obs::Registry::SnapshotData S = Reg.snapshotData();
  ASSERT_EQ(S.Histograms.size(), 1u);
  EXPECT_EQ(S.Histograms[0].first, "q.micros");
  EXPECT_EQ(S.Histograms[0].second.Count, 50u);
  EXPECT_EQ(S.Histograms[0].second.P50, 64.0);
  EXPECT_EQ(S.Histograms[0].second.P99, 64.0);
}

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

/// Splits JSONL into parsed objects, failing the test on any bad line.
std::vector<json::Value> parseLines(const std::string &Jsonl) {
  std::vector<json::Value> Out;
  std::istringstream In(Jsonl);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::optional<json::Value> V = json::parse(Line);
    EXPECT_TRUE(V.has_value()) << "unparseable JSONL line: " << Line;
    if (V)
      Out.push_back(std::move(*V));
  }
  return Out;
}

const json::Value *findEvent(const std::vector<json::Value> &Events,
                             const std::string &Name) {
  for (const json::Value &E : Events)
    if (E.getString("name") == Name)
      return &E;
  return nullptr;
}

TEST(TracerTest, SpansNestAndExportOrdered) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl(); // drain anything a previous test buffered
  T.enable();
  {
    obs::Span Outer("outer", "test");
    Outer.arg("label", "hello world");
    Outer.arg("n", uint64_t(42));
    Outer.arg("ok", true);
    {
      obs::Span Inner("inner", "test");
      EXPECT_TRUE(Inner.active());
    }
  }
  obs::instant("mark", "test");
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 3u);

  const json::Value *Outer = findEvent(Events, "outer");
  const json::Value *Inner = findEvent(Events, "inner");
  const json::Value *Mark = findEvent(Events, "mark");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Mark, nullptr);

  EXPECT_EQ(Outer->getString("ph"), "X");
  EXPECT_EQ(Outer->getString("cat"), "test");
  EXPECT_EQ(Mark->getString("ph"), "i");

  // The inner span lies within the outer span's interval.
  double OutT0 = Outer->getNumber("ts");
  double OutT1 = OutT0 + Outer->getNumber("dur");
  double InT0 = Inner->getNumber("ts");
  double InT1 = InT0 + Inner->getNumber("dur");
  EXPECT_GE(InT0, OutT0);
  EXPECT_LE(InT1, OutT1);

  // Export is sorted by timestamp.
  for (size_t I = 1; I < Events.size(); ++I)
    EXPECT_GE(Events[I].getNumber("ts"), Events[I - 1].getNumber("ts"));

  // Typed args survive the round trip.
  const json::Value *Args = Outer->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->getString("label"), "hello world");
  EXPECT_EQ(Args->getNumber("n"), 42.0);
  EXPECT_TRUE(Args->getBool("ok"));

  // Drained: a second export is empty.
  EXPECT_EQ(T.exportJsonl(), "");
  EXPECT_EQ(T.eventCount(), 0u);
}

TEST(TracerTest, DisabledEmitsNothing) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  ASSERT_FALSE(T.isEnabled());
  {
    obs::Span S("ghost", "test");
    EXPECT_FALSE(S.active());
    S.arg("k", uint64_t(1));
  }
  obs::instant("ghost.mark", "test");
  EXPECT_EQ(T.eventCount(), 0u);
  EXPECT_EQ(T.exportJsonl(), "");
}

TEST(TracerTest, DisabledHotPathDoesNotAllocate) {
#ifdef GADT_OBS_NO_ALLOC_CHECK
  GTEST_SKIP() << "allocation accounting is unavailable under sanitizers";
#else
  ASSERT_FALSE(obs::enabled());
  uint64_t Before = GAllocCount.load();
  for (int I = 0; I < 1000; ++I) {
    obs::Span S("hot", "test");
    S.arg("i", uint64_t(I));
  }
  uint64_t After = GAllocCount.load();
  EXPECT_EQ(After, Before) << "disabled spans must not allocate";
#endif
}

TEST(TracerTest, FlushWritesJsonlFile) {
  std::string Path = ::testing::TempDir() + "gadt_obs_flush_test.jsonl";
  obs::Tracer T; // private instance; spans go to the global one, so record
                 // events directly
  T.enableToFile(Path);
  T.completeEvent("phase", "test", 1000, 2000, {{"k", "v", true}});
  T.instant("tick", "test");
  T.flush();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  std::vector<json::Value> Events = parseLines(Content);
  ASSERT_EQ(Events.size(), 2u);
  const json::Value *Phase = findEvent(Events, "phase");
  ASSERT_NE(Phase, nullptr);
  EXPECT_EQ(Phase->getNumber("ts"), 1.0); // 1000 ns == 1 microsecond
  EXPECT_EQ(Phase->getNumber("dur"), 2.0);
  EXPECT_NE(findEvent(Events, "tick"), nullptr);
  std::remove(Path.c_str());
}

TEST(TracerTest, BoundedBuffersCountDroppedEvents) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  size_t DefaultCap = T.maxEventsPerThread();
  uint64_t DroppedBefore =
      obs::Registry::global().counterValue("obs.trace.dropped");

  T.setMaxEventsPerThread(4);
  T.enable();
  for (int I = 0; I < 10; ++I)
    obs::instant("overflow", "test");
  T.disable();
  T.setMaxEventsPerThread(DefaultCap);

  EXPECT_EQ(T.eventCount(), 4u);
  EXPECT_EQ(obs::Registry::global().counterValue("obs.trace.dropped"),
            DroppedBefore + 6);

  // The surviving events are intact and the buffer drains normally.
  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  EXPECT_EQ(Events.size(), 4u);
  for (const json::Value &E : Events)
    EXPECT_EQ(E.getString("name"), "overflow");
}

TEST(TracerTest, SidPsidLinkTheSpanHierarchy) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();
  {
    obs::Span Outer("h.outer", "test");
    {
      obs::Span Inner("h.inner", "test");
      obs::instant("h.mark", "test");
    }
  }
  T.disable();

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_EQ(Events.size(), 3u);
  const json::Value *Outer = findEvent(Events, "h.outer");
  const json::Value *Inner = findEvent(Events, "h.inner");
  const json::Value *Mark = findEvent(Events, "h.mark");
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  ASSERT_NE(Mark, nullptr);

  // Every complete event names itself; roots have no psid field at all.
  double OuterSid = Outer->getNumber("sid");
  double InnerSid = Inner->getNumber("sid");
  EXPECT_GT(OuterSid, 0.0);
  EXPECT_GT(InnerSid, 0.0);
  EXPECT_NE(OuterSid, InnerSid);
  EXPECT_EQ(Outer->find("psid"), nullptr);

  // The child points at its parent, and the instant at its enclosing span.
  EXPECT_EQ(Inner->getNumber("psid"), OuterSid);
  EXPECT_EQ(Mark->getNumber("psid"), InnerSid);
}

//===----------------------------------------------------------------------===//
// Registry totals == summed per-session structs (no stats drift)
//===----------------------------------------------------------------------===//

std::vector<SessionRequest> smallWorkload(unsigned N) {
  std::vector<ProgramPair> Pairs;
  Pairs.push_back(chainProgram(6, 2));
  Pairs.push_back(treeProgram(3));
  Pairs.push_back({Figure4Fixed, Figure4Buggy, "decrement"});
  std::vector<SessionRequest> Reqs;
  for (unsigned I = 0; I < N; ++I) {
    const ProgramPair &P = Pairs[I % Pairs.size()];
    SessionRequest R;
    R.Source = P.Buggy;
    R.Intended = P.Fixed;
    Reqs.push_back(std::move(R));
  }
  return Reqs;
}

TEST(ObservabilityTest, RegistryTotalsMatchSummedStructs) {
  obs::Registry Reg;
  RuntimeContext Ctx(&Reg);
  std::vector<SessionRequest> Reqs = smallWorkload(9);

  // Two passes: the second is fully warm, so both hit and miss counters
  // accumulate interesting values.
  uint64_t Sessions = 0, Judgements = 0, Unanswered = 0, MemoHits = 0;
  uint64_t Activations = 0, Pruned = 0;
  std::map<std::string, uint64_t> BySource;
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (const SessionRequest &R : Reqs) {
      SessionResult Res = runSession(Ctx, R);
      ASSERT_TRUE(Res.Prepared) << Res.Message;
      ++Sessions;
      Judgements += Res.Stats.Judgements;
      Unanswered += Res.Stats.Unanswered;
      MemoHits += Res.Stats.MemoHits;
      Activations += Res.Stats.SlicingActivations;
      Pruned += Res.Stats.NodesPruned;
      for (const auto &[Source, N] : Res.Stats.AnswersBySource)
        BySource[Source] += N;
    }
  }

  // Cache counters: registry == the context's own RuntimeStats snapshot.
  RuntimeStats S = Ctx.stats();
  EXPECT_EQ(Reg.counterValue("runtime.cache.program.hits"), S.ProgramHits);
  EXPECT_EQ(Reg.counterValue("runtime.cache.program.misses"),
            S.ProgramMisses);
  EXPECT_EQ(Reg.counterValue("runtime.cache.transform.hits"),
            S.TransformHits);
  EXPECT_EQ(Reg.counterValue("runtime.cache.transform.misses"),
            S.TransformMisses);
  EXPECT_EQ(Reg.counterValue("runtime.cache.sdg.hits"), S.SdgHits);
  EXPECT_EQ(Reg.counterValue("runtime.cache.sdg.misses"), S.SdgMisses);
  EXPECT_EQ(Reg.counterValue("runtime.cache.code.hits"), S.CodeHits);
  EXPECT_EQ(Reg.counterValue("runtime.cache.code.misses"), S.CodeMisses);
  EXPECT_EQ(Reg.counterValue("runtime.cache.slice.hits"), S.SliceHits);
  EXPECT_EQ(Reg.counterValue("runtime.cache.slice.misses"), S.SliceMisses);
  EXPECT_EQ(static_cast<uint64_t>(Reg.gaugeValue("runtime.subjects")),
            S.Subjects);

  // Session accounting: registry == the sum of every SessionStats.
  EXPECT_EQ(Reg.counterValue("runtime.sessions"), Sessions);
  EXPECT_EQ(Reg.histogram("runtime.session.micros").count(), Sessions);
  EXPECT_EQ(Reg.counterValue("debug.sessions"), Sessions);
  EXPECT_EQ(Reg.counterValue("debug.queries.total"), Judgements);
  EXPECT_EQ(Reg.counterValue("debug.queries.unanswered"), Unanswered);
  EXPECT_EQ(Reg.counterValue("debug.memo.hits"), MemoHits);
  EXPECT_EQ(Reg.counterValue("debug.slicing.activations"), Activations);
  EXPECT_EQ(Reg.counterValue("debug.slicing.nodes_pruned"), Pruned);
  for (const auto &[Source, N] : BySource)
    EXPECT_EQ(Reg.counterValue("debug.queries." + Source), N)
        << "source " << Source;

  // A warm second pass must have produced hits on every cache.
  EXPECT_GT(S.ProgramHits, 0u);
  EXPECT_GT(S.TransformHits, 0u);
  EXPECT_GT(S.SdgHits, 0u);
  EXPECT_GT(S.CodeHits, 0u);
  EXPECT_GT(S.SliceHits, 0u);
}

TEST(ObservabilityTest, PrivateRegistryKeepsGlobalClean) {
  uint64_t GlobalBefore =
      obs::Registry::global().counterValue("runtime.sessions");
  obs::Registry Reg;
  RuntimeContext Ctx(&Reg);
  SessionRequest R;
  R.Source = Figure4Buggy;
  R.Intended = Figure4Fixed;
  SessionResult Res = runSession(Ctx, R);
  ASSERT_TRUE(Res.Prepared) << Res.Message;
  EXPECT_EQ(Reg.counterValue("runtime.sessions"), 1u);
  EXPECT_EQ(obs::Registry::global().counterValue("runtime.sessions"),
            GlobalBefore);
}

TEST(ObservabilityTest, SessionCountersAppearWithTheFirstSession) {
  // Session instruments resolve on first use, so a registry no session
  // has reported into lists none of them.
  obs::Registry Reg;
  RuntimeContext Ctx(&Reg);
  for (const auto &[Name, V] : Reg.snapshotData().Counters) {
    EXPECT_NE(Name.rfind("debug.", 0), 0u) << Name;
    EXPECT_NE(Name, "runtime.sessions");
  }
  SessionRequest R;
  R.Source = Figure4Buggy;
  R.Intended = Figure4Fixed;
  SessionResult Res = runSession(Ctx, R);
  ASSERT_TRUE(Res.Prepared) << Res.Message;
  EXPECT_EQ(Reg.counterValue("debug.sessions"), 1u);
  EXPECT_EQ(Reg.counterValue("runtime.sessions"), 1u);
}

//===----------------------------------------------------------------------===//
// End-to-end: a traced batch run covers the whole pipeline
//===----------------------------------------------------------------------===//

TEST(ObservabilityTest, BatchRunnerTraceCoversPipeline) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();

  obs::Registry Reg;
  auto Ctx = std::make_shared<RuntimeContext>(&Reg);
  BatchRunner Runner(Ctx, {4});
  std::vector<SessionRequest> Reqs = smallWorkload(6);
  std::vector<SessionResult> Rs = Runner.run(Reqs);
  T.disable();

  ASSERT_EQ(Rs.size(), Reqs.size());
  for (const SessionResult &R : Rs)
    EXPECT_TRUE(R.Prepared) << R.Message;

  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  ASSERT_FALSE(Events.empty());

  std::set<std::string> Names;
  for (const json::Value &E : Events)
    Names.insert(E.getString("name"));
  for (const char *Expected :
       {"session", "queue.wait", "parse", "sema", "transform", "sdg",
        "exectree", "debug", "judgement", "cache.program",
        "cache.transform", "cache.sdg", "cache.slice"})
    EXPECT_TRUE(Names.count(Expected)) << "missing phase: " << Expected;

  // One session span per request, each annotated with its outcome.
  unsigned SessionSpans = 0;
  for (const json::Value &E : Events) {
    if (E.getString("name") != "session")
      continue;
    ++SessionSpans;
    const json::Value *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_TRUE(Args->getBool("prepared"));
    EXPECT_NE(Args->getString("fp"), "");
  }
  EXPECT_EQ(SessionSpans, Reqs.size());

  // Judgement events carry the dialogue verdicts.
  for (const json::Value &E : Events) {
    if (E.getString("name") != "judgement")
      continue;
    const json::Value *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    std::string Verdict = Args->getString("verdict");
    EXPECT_TRUE(Verdict == "correct" || Verdict == "incorrect" ||
                Verdict == "dont_know")
        << Verdict;
    EXPECT_NE(Args->getString("unit"), "");
    EXPECT_NE(Args->getString("source"), "");
  }

  // The private registry saw the batch too.
  EXPECT_EQ(Reg.counterValue("runtime.sessions"), Reqs.size());
  EXPECT_EQ(Reg.histogram("runtime.queue_wait.micros").count(), Reqs.size());
}

TEST(ObservabilityTest, FlowsLinkEnqueueToWorkerAcrossThreads) {
  obs::Tracer &T = obs::Tracer::global();
  T.exportJsonl();
  T.enable();

  obs::Registry Reg;
  auto Ctx = std::make_shared<RuntimeContext>(&Reg);
  BatchRunner Runner(Ctx, {3});
  std::vector<SessionRequest> Reqs = smallWorkload(5);
  std::vector<SessionResult> Rs = Runner.run(Reqs);
  T.disable();
  ASSERT_EQ(Rs.size(), Reqs.size());

  // Collect flow events ('s' start at enqueue, 't' step at pickup, 'f'
  // finish inside the session) keyed by flow id.
  struct Flow {
    double StartTid = -1, StepTid = -1, FinishTid = -1;
  };
  std::map<double, Flow> Flows;
  std::vector<json::Value> Events = parseLines(T.exportJsonl());
  for (const json::Value &E : Events) {
    if (E.getString("name") != "session.flow")
      continue;
    Flow &F = Flows[E.getNumber("id")];
    std::string Ph = E.getString("ph");
    if (Ph == "s")
      F.StartTid = E.getNumber("tid");
    else if (Ph == "t")
      F.StepTid = E.getNumber("tid");
    else if (Ph == "f") {
      F.FinishTid = E.getNumber("tid");
      // Finish events bind to the enclosing session slice.
      EXPECT_EQ(E.getString("bp"), "e");
    }
  }

  // One complete flow per request, each crossing from the enqueuing
  // thread to a worker (the enqueuing thread never runs sessions).
  ASSERT_EQ(Flows.size(), Reqs.size());
  for (const auto &[Id, F] : Flows) {
    EXPECT_GT(Id, 0.0);
    EXPECT_GE(F.StartTid, 0.0) << "flow " << Id << " missing 's'";
    EXPECT_GE(F.StepTid, 0.0) << "flow " << Id << " missing 't'";
    EXPECT_GE(F.FinishTid, 0.0) << "flow " << Id << " missing 'f'";
    EXPECT_NE(F.StartTid, F.FinishTid) << "flow " << Id << " never crossed";
    EXPECT_EQ(F.StepTid, F.FinishTid) << "pickup and run on one worker";
  }

  // Session spans carry their flow id as an arg, matching a seen flow.
  for (const json::Value &E : Events) {
    if (E.getString("name") != "session")
      continue;
    const json::Value *Args = E.find("args");
    ASSERT_NE(Args, nullptr);
    EXPECT_TRUE(Flows.count(Args->getNumber("flow")));
  }
}

TEST(ObservabilityTest, CacheGaugesTrackOccupancy) {
  obs::Registry Reg;
  RuntimeContext Ctx(&Reg);
  for (const SessionRequest &R : smallWorkload(6)) {
    SessionResult Res = runSession(Ctx, R);
    ASSERT_TRUE(Res.Prepared) << Res.Message;
  }

  // Caches never evict, so entry gauges equal the miss counters (every
  // miss inserts exactly one entry), and each entry banked some bytes.
  RuntimeStats S = Ctx.stats();
  struct {
    const char *Name;
    uint64_t Misses;
  } Caches[] = {{"program", S.ProgramMisses},
                {"transform", S.TransformMisses},
                {"sdg", S.SdgMisses},
                {"code", S.CodeMisses},
                {"slice", S.SliceMisses}};
  for (const auto &C : Caches) {
    std::string Base = std::string("runtime.cache.") + C.Name;
    EXPECT_EQ(static_cast<uint64_t>(Reg.gaugeValue(Base + ".entries")),
              C.Misses)
        << Base;
    EXPECT_GT(Reg.gaugeValue(Base + ".bytes"), 0) << Base;
  }
}

//===----------------------------------------------------------------------===//
// Concurrency: profiler, log and exporter raced from many threads. These
// run under TSan in CI; the assertions here are deliberately structural
// (counts and formats), the sanitizer checks the memory model.
//===----------------------------------------------------------------------===//

TEST(ObsConcurrencyTest, ProfilerStartStopRacesSpanTraffic) {
  obs::Profiler P;
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Workers;
  for (int W = 0; W < 4; ++W)
    Workers.emplace_back([&Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        obs::Span Outer("conc.outer", "test");
        obs::Span Inner("conc.inner", "test");
      }
    });

  // Cycle the sampler against live span traffic.
  for (int Cycle = 0; Cycle < 3; ++Cycle) {
    P.start(2000);
    EXPECT_TRUE(P.isRunning());
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    P.stop();
    EXPECT_FALSE(P.isRunning());
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  // Every attributed sample appears in the collapsed profile, every line
  // of which is "span;path count".
  uint64_t InProfile = 0;
  std::istringstream In(P.collapsed());
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_EQ(Line.find("conc.outer"), 0u) << Line;
    InProfile += std::strtoull(Line.c_str() + Space + 1, nullptr, 10);
  }
  EXPECT_EQ(InProfile, P.sampleCount());

  // The JSON form parses and agrees on the totals.
  std::optional<json::Value> V = json::parse(P.jsonProfile());
  ASSERT_TRUE(V.has_value()) << P.jsonProfile();
  EXPECT_EQ(V->getNumber("samples"),
            static_cast<double>(P.sampleCount()));

  // clear() refuses while running, works when stopped.
  P.clear();
  EXPECT_EQ(P.sampleCount(), 0u);
  EXPECT_EQ(P.collapsed(), "");
}

TEST(ObsConcurrencyTest, LogManyThreads) {
  obs::Log L;
  L.enable(obs::LogLevel::Debug);
  constexpr int NumThreads = 8, PerThread = 250;
  std::vector<std::thread> Writers;
  for (int W = 0; W < NumThreads; ++W)
    Writers.emplace_back([&L, W] {
      for (int I = 0; I < PerThread; ++I)
        L.write(obs::LogLevel::Info, "conc", "message",
                {{"writer", std::to_string(W), /*Quote=*/false},
                 {"i", std::to_string(I), /*Quote=*/false}});
    });
  for (std::thread &W : Writers)
    W.join();
  L.disable();

  EXPECT_EQ(L.recordCount(),
            static_cast<uint64_t>(NumThreads * PerThread));
  std::vector<json::Value> Records = parseLines(L.drain());
  ASSERT_EQ(Records.size(), static_cast<size_t>(NumThreads * PerThread));

  // Each record is complete: every (writer, i) pair arrived exactly once.
  std::set<std::pair<int, int>> Seen;
  for (const json::Value &R : Records) {
    EXPECT_EQ(R.getString("level"), "info");
    EXPECT_EQ(R.getString("component"), "conc");
    EXPECT_EQ(R.getString("msg"), "message");
    const json::Value *F = R.find("fields");
    ASSERT_NE(F, nullptr);
    Seen.insert({static_cast<int>(F->getNumber("writer")),
                 static_cast<int>(F->getNumber("i"))});
  }
  EXPECT_EQ(Seen.size(), static_cast<size_t>(NumThreads * PerThread));
}

TEST(ObsConcurrencyTest, ExporterFlushRacesIncrements) {
  obs::Counter &C = obs::Registry::global().counter("conc.exporter.races");
  uint64_t Before = C.value();

  obs::Exporter E; // no path: flushNow() renders in memory only
  std::atomic<bool> Stop{false};
  std::thread Flusher([&E, &Stop] {
    while (!Stop.load(std::memory_order_relaxed))
      E.flushNow();
  });
  constexpr int NumThreads = 4, PerThread = 20000;
  std::vector<std::thread> Bumpers;
  for (int W = 0; W < NumThreads; ++W)
    Bumpers.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &W : Bumpers)
    W.join();
  Stop.store(true, std::memory_order_relaxed);
  Flusher.join();

  // No increment was lost and flushes really happened.
  EXPECT_EQ(C.value(), Before + NumThreads * PerThread);
  EXPECT_GT(E.flushCount(), 0u);

  // The final exposition carries the settled value.
  std::string Prom = obs::Exporter::prometheusText();
  std::string Want = "gadt_conc_exporter_races " +
                     std::to_string(Before + NumThreads * PerThread) + "\n";
  EXPECT_NE(Prom.find(Want), std::string::npos) << Prom;
  EXPECT_NE(Prom.find("# TYPE gadt_conc_exporter_races counter"),
            std::string::npos);
}

TEST(ObsConcurrencyTest, ExporterPeriodicSeriesAndProm) {
  std::string Path = ::testing::TempDir() + "gadt_obs_exporter_test.jsonl";
  obs::Registry::global().counter("conc.exporter.series").add(3);
  obs::Exporter E;
  E.start(Path, 10);
  EXPECT_TRUE(E.isRunning());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  E.stop(); // final flush + .prom exposition
  EXPECT_FALSE(E.isRunning());

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  std::vector<json::Value> Ticks = parseLines(Content);
  ASSERT_FALSE(Ticks.empty());
  for (const json::Value &Tick : Ticks) {
    EXPECT_NE(Tick.find("ts"), nullptr);
    const json::Value *Counters = Tick.find("counters");
    ASSERT_NE(Counters, nullptr);
    const json::Value *C = Counters->find("conc.exporter.series");
    ASSERT_NE(C, nullptr);
    EXPECT_GE(C->getNumber("total"), 3.0);
  }
  // First tick's delta equals its total (the series starts from zero).
  const json::Value *First =
      Ticks.front().find("counters")->find("conc.exporter.series");
  EXPECT_EQ(First->getNumber("delta"), First->getNumber("total"));

  std::ifstream PromIn(Path + ".prom");
  ASSERT_TRUE(PromIn.good());
  std::string Prom((std::istreambuf_iterator<char>(PromIn)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Prom.find("gadt_conc_exporter_series"), std::string::npos);
  std::remove(Path.c_str());
  std::remove((Path + ".prom").c_str());
}

} // namespace
