//===- RuntimeContext.cpp - Shared caches for batch debugging -------------===//

#include "runtime/RuntimeContext.h"

#include "bytecode/Bytecode.h"
#include "obs/Trace.h"
#include "pascal/Frontend.h"
#include "slicing/StaticSlicer.h"
#include "support/Hashing.h"

#include <thread>

using namespace gadt;
using namespace gadt::runtime;

std::string RuntimeStats::str() const {
  auto Cache = [](const char *Name, uint64_t Misses, uint64_t Hits) {
    return std::string(Name) + " " + std::to_string(Misses) + "/" +
           std::to_string(Misses + Hits);
  };
  return Cache("programs", ProgramMisses, ProgramHits) + " " +
         Cache("transforms", TransformMisses, TransformHits) + " " +
         Cache("sdgs", SdgMisses, SdgHits) + " " +
         Cache("code", CodeMisses, CodeHits) + " " +
         Cache("slices", SliceMisses, SliceHits) + " subjects " +
         std::to_string(Subjects) + " (miss/total)";
}

/// One parsed program plus its fingerprint; parse failures cache their
/// diagnostics so repeated bad sources fail fast.
struct RuntimeContext::ProgramEntry {
  std::shared_ptr<const pascal::Program> Program; ///< null on failure
  uint64_t Fingerprint = 0;
  std::string Errors;
};

RuntimeContext::RuntimeContext(obs::Registry *Metrics, RuntimeOptions Opts)
    : Reg(Metrics ? *Metrics : obs::Registry::global()),
      ProgramC{Reg.counter("runtime.cache.program.hits"),
               Reg.counter("runtime.cache.program.misses")},
      TransformC{Reg.counter("runtime.cache.transform.hits"),
                 Reg.counter("runtime.cache.transform.misses")},
      SdgC{Reg.counter("runtime.cache.sdg.hits"),
           Reg.counter("runtime.cache.sdg.misses")},
      CodeC{Reg.counter("runtime.cache.code.hits"),
            Reg.counter("runtime.cache.code.misses")},
      SliceC{Reg.counter("runtime.cache.slice.hits"),
             Reg.counter("runtime.cache.slice.misses")},
      ProgramG{Reg.gauge("runtime.cache.program.entries"),
               Reg.gauge("runtime.cache.program.bytes")},
      TransformG{Reg.gauge("runtime.cache.transform.entries"),
                 Reg.gauge("runtime.cache.transform.bytes")},
      SdgG{Reg.gauge("runtime.cache.sdg.entries"),
           Reg.gauge("runtime.cache.sdg.bytes")},
      CodeG{Reg.gauge("runtime.cache.code.entries"),
            Reg.gauge("runtime.cache.code.bytes")},
      SliceG{Reg.gauge("runtime.cache.slice.entries"),
             Reg.gauge("runtime.cache.slice.bytes")},
      SubjectsG(Reg.gauge("runtime.subjects")), Options(Opts),
      EvictionC(Reg.counter("runtime.cache.evictions")) {}

RuntimeContext::~RuntimeContext() = default;

/// One weak slot per (routine, formal-out) criterion of a graph, keyed by
/// routine index and output-name symbol. A slot points at the memo's slice
/// once a request has built or found it; the memo owns the slice, so a
/// slot whose slice was evicted and dropped by every session reads as
/// empty and the next request goes back to the memo.
struct gadt::runtime::SliceSlots {
  /// A weak pointer behind a spin lock held for one copy. (GCC 12's
  /// std::atomic<std::weak_ptr> unlocks its load with a relaxed store,
  /// which races with a concurrent store under the C++ memory model.)
  struct Slot {
    std::atomic_flag Busy;
    std::weak_ptr<const slicing::StaticSlice> Slice;

    std::shared_ptr<const slicing::StaticSlice> get() {
      lock();
      std::shared_ptr<const slicing::StaticSlice> S = Slice.lock();
      Busy.clear(std::memory_order_release);
      return S;
    }
    void set(const std::shared_ptr<const slicing::StaticSlice> &S) {
      lock();
      Slice = S;
      Busy.clear(std::memory_order_release);
    }
    void lock() {
      while (Busy.test_and_set(std::memory_order_acquire))
        std::this_thread::yield();
    }
  };

  explicit SliceSlots(const analysis::SDG &G) : First(G.numRoutines() + 1) {
    for (size_t I = 0; I != G.numRoutines(); ++I) {
      auto [Begin, End] = G.routineRange(I);
      for (analysis::SDGNodeId Id = Begin; Id != End; ++Id) {
        const analysis::SDGNode &N = G.node(Id);
        if (N.getKind() != analysis::SDGNode::Kind::FormalOut)
          continue;
        // The name sliceOnRoutineOutput resolves this vertex by.
        support::Symbol Name = N.getVar() ? N.getVar()->getNameSymbol()
                                          : N.getRoutine()->getNameSymbol();
        Output.push_back(Name.id());
      }
      First[I + 1] = static_cast<uint32_t>(Output.size());
    }
    Slots = std::make_unique<Slot[]>(Output.size());
  }

  /// The slot of (\p Routine, \p Out), or null when \p Routine has no
  /// formal-out by that name.
  Slot *find(size_t Routine, support::Symbol Out) const {
    if (Routine + 1 >= First.size())
      return nullptr;
    for (uint32_t K = First[Routine]; K != First[Routine + 1]; ++K)
      if (Output[K] == Out.id())
        return &Slots[K];
    return nullptr;
  }

  std::vector<uint32_t> First;  ///< routine index -> its first slot
  std::vector<uint32_t> Output; ///< slot -> output-name symbol id
  std::unique_ptr<Slot[]> Slots;
};

SdgEntry::~SdgEntry() = default;

namespace {
/// Forwards one lookup outcome to the registry and the active trace span.
template <typename Counters>
void noteLookup(Counters &C, obs::Span &Span, bool WasMiss) {
  (WasMiss ? C.Misses : C.Hits).add();
  Span.arg("hit", !WasMiss);
}

} // namespace

void RuntimeContext::publishOccupancy() {
  std::lock_guard<std::mutex> Lock(OccupancyM);
  auto Publish = [](CacheGauges &G, size_t Entries, size_t Bytes) {
    G.Entries.set(static_cast<int64_t>(Entries));
    G.Bytes.set(static_cast<int64_t>(Bytes));
  };
  Publish(ProgramG, Programs.size(), Programs.totalBytes());
  Publish(TransformG, Transforms.size(), Transforms.totalBytes());
  Publish(SdgG, Sdgs.size(), Sdgs.totalBytes());
  Publish(CodeG, Codes.size(), Codes.totalBytes());
  Publish(SliceG, Slices.size(), Slices.totalBytes());
  SubjectsG.set(static_cast<int64_t>(Transforms.size()));
}

void RuntimeContext::enforceBudget() {
  if (!Options.CacheBudgetBytes)
    return;
  for (;;) {
    size_t Total = Programs.totalBytes() + Transforms.totalBytes() +
                   Sdgs.totalBytes() + Codes.totalBytes() +
                   Slices.totalBytes();
    if (Total <= Options.CacheBudgetBytes)
      return;
    // Evict the globally oldest ready entry (OnceCache ticks are drawn
    // from one process-wide clock, so ticks compare across caches).
    uint64_t Best = UINT64_MAX;
    int Which = -1;
    auto Consider = [&](uint64_t Tick, int I) {
      if (Tick < Best) {
        Best = Tick;
        Which = I;
      }
    };
    Consider(Programs.oldestReadyTick(), 0);
    Consider(Transforms.oldestReadyTick(), 1);
    Consider(Sdgs.oldestReadyTick(), 2);
    Consider(Codes.oldestReadyTick(), 3);
    Consider(Slices.oldestReadyTick(), 4);
    size_t Freed = 0;
    switch (Which) {
    case 0: Freed = Programs.evictOldest(); break;
    case 1: Freed = Transforms.evictOldest(); break;
    case 2: Freed = Sdgs.evictOldest(); break;
    case 3: Freed = Codes.evictOldest(); break;
    case 4: Freed = Slices.evictOldest(); break;
    default:
      return; // nothing evictable (entries still building)
    }
    (void)Freed;
    EvictionC.add();
  }
}

std::shared_ptr<const pascal::Program>
RuntimeContext::internProgram(const std::string &Source,
                              DiagnosticsEngine &Diags) {
  return internEntry(Source, Diags)->Program;
}

std::shared_ptr<const RuntimeContext::ProgramEntry>
RuntimeContext::internEntry(const std::string &Source,
                            DiagnosticsEngine &Diags) {
  // The key never leaves the process, so std::hash (word-at-a-time, ~8x
  // faster than the stable FNV-1a of hashBytes on a typical source) serves.
  uint64_t SourceHash = std::hash<std::string>{}(Source);
  obs::Span Span("cache.program", "cache");
  bool WasMiss = false;
  std::shared_ptr<const ProgramEntry> E = Programs.getOrBuild(
      SourceHash,
      [&]() -> std::shared_ptr<const ProgramEntry> {
        auto Entry = std::make_shared<ProgramEntry>();
        DiagnosticsEngine Local;
        Entry->Program = pascal::parseAndCheck(Source, Local);
        if (Entry->Program)
          Entry->Fingerprint = hashProgram(*Entry->Program);
        else
          Entry->Errors = Local.str();
        return Entry;
      },
      &WasMiss);
  noteLookup(ProgramC, Span, WasMiss);
  if (WasMiss) {
    Programs.noteBytes(SourceHash, Source.size() + E->Errors.size() +
                                       sizeof(ProgramEntry));
    enforceBudget();
    publishOccupancy();
  }
  if (!E->Program)
    Diags.error(SourceLoc(), "batch runtime: cached parse failure: " +
                                 E->Errors);
  return E;
}

std::shared_ptr<const core::SessionArtifacts>
RuntimeContext::prepare(const std::string &Source,
                        const core::GADTOptions &Opts,
                        DiagnosticsEngine &Diags) {
  std::shared_ptr<const ProgramEntry> Interned = internEntry(Source, Diags);
  if (!Interned->Program)
    return nullptr;
  std::shared_ptr<const pascal::Program> Subject = Interned->Program;
  uint64_t Fingerprint = Interned->Fingerprint;

  auto Artifacts = std::make_shared<core::SessionArtifacts>();
  Artifacts->Fingerprint = Fingerprint;
  Artifacts->Subject = Subject;

  if (Opts.Transform) {
    obs::Span Span("cache.transform", "cache");
    bool WasMiss = false;
    std::shared_ptr<const TransformEntry> X = Transforms.getOrBuild(
        Fingerprint,
        [&]() -> std::shared_ptr<const TransformEntry> {
          auto Entry = std::make_shared<TransformEntry>();
          Entry->Original = Subject;
          DiagnosticsEngine Local;
          transform::TransformResult R =
              transform::transformProgram(*Subject, Local);
          if (R.Transformed) {
            Entry->Transformed = std::move(R.Transformed);
            Entry->Stats = std::move(R.Stats);
          } else {
            Entry->Errors = Local.str();
          }
          return Entry;
        },
        &WasMiss);
    noteLookup(TransformC, Span, WasMiss);
    if (WasMiss) {
      // The transformed program is sized like its source plus one log
      // line per rewrite (each rewrite adds about that much text); an
      // estimate, so a cache miss does not print the whole program.
      uint64_t NewBytes = sizeof(TransformEntry) + X->Errors.size();
      if (X->Transformed) {
        NewBytes += Source.size();
        for (const std::string &Line : X->Stats.Log)
          NewBytes += Line.size();
      }
      Transforms.noteBytes(Fingerprint, NewBytes);
      enforceBudget();
      publishOccupancy();
    }
    if (!X->Transformed) {
      Diags.error(SourceLoc(), "batch runtime: cached transform failure: " +
                                   X->Errors);
      return nullptr;
    }
    Artifacts->Prepared = X->Transformed;
    Artifacts->TransformInfo = X->Stats;
    // Pin the original the transformed clone's TypeContext belongs to.
    Artifacts->Subject = X->Original;
  } else {
    Artifacts->Prepared = Subject;
  }

  if (Opts.Debugger.Slicing == core::SliceMode::Static) {
    std::pair<uint64_t, bool> SdgKey{Fingerprint, Opts.Transform};
    std::shared_ptr<const pascal::Program> Prepared = Artifacts->Prepared;
    std::shared_ptr<const pascal::Program> Pin = Artifacts->Subject;
    obs::Span Span("cache.sdg", "cache");
    bool WasMiss = false;
    std::shared_ptr<const SdgEntry> G = Sdgs.getOrBuild(
        SdgKey,
        [&]() -> std::shared_ptr<const SdgEntry> {
          auto Entry = std::make_shared<SdgEntry>();
          Entry->Prepared = Prepared;
          Entry->OriginalPin = Pin;
          // Ids are identical for any thread count, so the parallel
          // per-routine build is safe to use under the shared cache.
          Entry->Graph = std::make_unique<const analysis::SDG>(
              *Prepared, analysis::SDGBuildOptions{0});
          Entry->Serial =
              NextSdgSerial.fetch_add(1, std::memory_order_relaxed);
          Entry->Slots = std::make_unique<SliceSlots>(*Entry->Graph);
          return Entry;
        },
        &WasMiss);
    noteLookup(SdgC, Span, WasMiss);
    if (WasMiss) {
      Sdgs.noteBytes(SdgKey, sizeof(SdgEntry) +
                                 G->Graph->nodes().size() *
                                     sizeof(analysis::SDGNode) +
                                 uint64_t(G->Graph->numEdges()) * 8);
      enforceBudget();
      publishOccupancy();
    }
    // Alias the SDG's lifetime to its cache entry, and debug the exact
    // program object the graph was built over — textual variants of one
    // fingerprint intern as distinct ASTs, but slices resolve by pointer.
    Artifacts->Sdg =
        std::shared_ptr<const analysis::SDG>(G, G->Graph.get());
    Artifacts->Prepared = G->Prepared;
    Artifacts->Subject = G->OriginalPin;
    // Hand sessions a slice provider backed by the shared memo. The
    // criterion routine belongs to the cached prepared program, so slices
    // are shared by every session over this subject.
    Artifacts->Slices = [this, G](const pascal::RoutineDecl *R,
                                  support::Symbol Out) {
      return sliceFor(*G, R, Out);
    };
  }

  {
    // Compile-once bytecode for the prepared program (src/bytecode).
    // Unsupported programs cache a null Code, so the tree-tier fallback
    // decision is also made exactly once per subject.
    std::pair<uint64_t, bool> CodeKey{Fingerprint, Opts.Transform};
    std::shared_ptr<const pascal::Program> Prepared = Artifacts->Prepared;
    std::shared_ptr<const pascal::Program> Pin = Artifacts->Subject;
    obs::Span Span("cache.code", "cache");
    bool WasMiss = false;
    std::shared_ptr<const CodeEntry> E = Codes.getOrBuild(
        CodeKey,
        [&]() -> std::shared_ptr<const CodeEntry> {
          auto Entry = std::make_shared<CodeEntry>();
          Entry->Prepared = Prepared;
          Entry->OriginalPin = Pin;
          Entry->Code = bytecode::compile(*Prepared, /*Checked=*/false);
          return Entry;
        },
        &WasMiss);
    noteLookup(CodeC, Span, WasMiss);
    if (WasMiss) {
      Codes.noteBytes(CodeKey, sizeof(CodeEntry) +
                                   (E->Code ? E->Code->memoryBytes() : 0));
      enforceBudget();
      publishOccupancy();
    }
    // Textual variants of one fingerprint intern as distinct ASTs when
    // transformation is off; compiled code binds to the AST it was built
    // over, so only hand out code whose program is the one this session
    // executes (otherwise the interpreter compiles privately).
    if (E->Code && E->Code->Prog == Artifacts->Prepared.get())
      Artifacts->Code = E->Code;
  }
  return Artifacts;
}

std::shared_ptr<const slicing::StaticSlice>
RuntimeContext::sliceFor(const SdgEntry &E, const pascal::RoutineDecl *R,
                         support::Symbol Out) {
  if (!R)
    return nullptr;
  obs::Span Span("cache.slice", "cache");
  size_t Routine = E.Graph->routineIndex(R);
  SliceSlots::Slot *Slot = E.Slots->find(Routine, Out);
  if (Slot)
    if (std::shared_ptr<const slicing::StaticSlice> S = Slot->get()) {
      SliceSlotHits.fetch_add(1, std::memory_order_relaxed);
      noteLookup(SliceC, Span, /*WasMiss=*/false);
      return S;
    }
  std::pair<uint64_t, uint64_t> Key{E.Serial,
                                    uint64_t(Routine) << 32 | Out.id()};
  bool WasMiss = false;
  std::shared_ptr<const slicing::StaticSlice> S = Slices.getOrBuild(
      Key,
      [&]() -> std::shared_ptr<const slicing::StaticSlice> {
        return std::make_shared<const slicing::StaticSlice>(
            slicing::sliceOnRoutineOutput(*E.Graph, R, Out));
      },
      &WasMiss);
  noteLookup(SliceC, Span, WasMiss);
  if (Slot)
    Slot->set(S);
  if (WasMiss) {
    Slices.noteBytes(Key, sizeof(slicing::StaticSlice) + S->size() * 4);
    enforceBudget();
    publishOccupancy();
  }
  return S;
}

RuntimeStats RuntimeContext::stats() const {
  RuntimeStats S;
  S.ProgramHits = Programs.hits();
  S.ProgramMisses = Programs.misses();
  S.TransformHits = Transforms.hits();
  S.TransformMisses = Transforms.misses();
  S.SdgHits = Sdgs.hits();
  S.SdgMisses = Sdgs.misses();
  S.CodeHits = Codes.hits();
  S.CodeMisses = Codes.misses();
  S.SliceHits = Slices.hits() + SliceSlotHits.load(std::memory_order_relaxed);
  S.SliceMisses = Slices.misses();
  S.Subjects = Transforms.size();
  return S;
}
