//===- ExecState.h - Shared execution substrate -----------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate shared by the tree-walking interpreter and the
/// bytecode VM: the pooled cell arena, activation records, unit-frame
/// observation (dynamic input/output sets), dependence bookkeeping and the
/// unit enter/exit event protocol.
///
/// Both tiers funnel every observable effect — cell reads/writes, DepSet
/// merges, listener events, step/limit accounting — through this one
/// struct, which is what makes their transcripts byte-identical: a tier can
/// only differ in *how* it walks the program, never in *what* an execution
/// records. The tree walker (interp/Interpreter.cpp) remains the oracle;
/// the register VM (bytecode/VM.cpp) is the fast path.
///
/// This is an internal header: everything here is an implementation detail
/// of interp::Interpreter and may change freely.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_EXECSTATE_H
#define GADT_INTERP_EXECSTATE_H

#include "interp/CallMemo.h"
#include "interp/Interpreter.h"
#include "obs/Metrics.h"
#include "support/Casting.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace gadt {
namespace bytecode {
struct VMState;
} // namespace bytecode
namespace interp {

/// Index of a cell in the interpreter's arena. Cells are pooled: handles of
/// dead activations return to a free list and are reissued with a fresh
/// serial, so a handle is only meaningful while its cell is live — which
/// the watermark discipline guarantees for every handle the interpreter
/// retains (see observeRead/freeActivationCells).
using CellRef = uint32_t;
constexpr CellRef NoCell = UINT32_MAX;

/// A storage location. Var parameters alias cells across activations, so
/// cells live in a shared arena and are identified by a serial number that
/// orders them by creation time (used to decide locality relative to a
/// unit). ReadUpTo/WriteUpTo are observation stamps: every live unit frame
/// whose FrameId is at or below the stamp has already recorded this cell
/// (or the cell is local to it), so observation walks touch each cell a
/// constant number of times per event instead of once per active frame.
struct Cell {
  Value V;
  uint64_t Serial = 0;
  uint64_t ReadUpTo = 0;
  uint64_t WriteUpTo = 0;
  /// Declaration the cell was created for (naming fallback).
  const pascal::VarDecl *Decl = nullptr;
};

/// One routine activation: a flat frame of cell handles indexed by the
/// slots Sema assigned (params, then locals, then the function result).
struct Activation {
  const pascal::RoutineDecl *R = nullptr;
  Activation *StaticLink = nullptr;
  /// Cells with Serial >= Watermark were created by (and die with) this
  /// activation; below it they are aliased from the caller.
  uint64_t Watermark = 0;
  std::vector<CellRef> Slots;
  /// Stack of *merged* control-dependence sets; back() is the set of deps
  /// governing any store performed right now.
  std::vector<DepSet> CtrlStack;

  const DepSet *activeCtrlDeps() const {
    return CtrlStack.empty() ? nullptr : &CtrlStack.back();
  }
};

/// UnitFrame::MemoKey of a call the call memo is not recording.
constexpr uint32_t NoMemoKey = UINT32_MAX;

/// Dynamic input/output observation for one executing unit.
struct UnitFrame {
  uint32_t NodeId = 0;
  UnitKind Kind = UnitKind::Call;
  /// Cells created at or after this serial are local to the unit.
  uint64_t Watermark = 0;
  /// Monotonic push id; cell stamps reference it.
  uint64_t FrameId = 0;
  Activation *Act = nullptr;
  /// Calls only: where the call memo's pending words hold this call's key
  /// (NoMemoKey = not recording it).
  uint32_t MemoKey = NoMemoKey;
  /// Calls with a listener only: the value parameters' bindings, captured
  /// at entry (the unit's first inputs).
  std::vector<Binding> EntryInputs;
  std::vector<std::pair<CellRef, Value>> FirstReads;
  std::vector<CellRef> Writes;

  /// Empties the per-unit lists, keeping their capacity.
  void clearLists() {
    EntryInputs.clear();
    FirstReads.clear();
    Writes.clear();
  }
};

/// The buffers an execution's runs grow. An Interpreter takes them from
/// its thread's spare and gives them back emptied (Interpreter.cpp,
/// SpareRuns), so a warm thread's first run grows nothing.
struct RunBuffers {
  std::vector<Cell> Arena;
  std::vector<CellRef> FreeList;
  /// Pooled unit-frame stack: slots above ExecState::FrameTop keep their
  /// list capacity for the next unit at that depth. Popping a frame is a
  /// decrement — with ~one malloc/free pair per unit otherwise, the pool
  /// is visible on every TrackDeps profile.
  std::vector<UnitFrame> Frames;
  /// The bytecode VM's stacks; created on the first bytecode run.
  bytecode::VMState *VS = nullptr;

  /// Releases every value the buffers hold, keeping their capacity, and
  /// returns the bytes that capacity takes.
  size_t clear();
};

/// All state one execution carries, plus every operation whose effects are
/// observable across tiers. Both executors derive from (or hold) one of
/// these; see the file comment.
struct ExecState : RunBuffers {
  const pascal::Program &Prog;
  InterpOptions Opts;
  TraceListener *Listener = nullptr;
  std::vector<int64_t> Input;

  // Per-run state.
  bool Failed = false;
  RuntimeError Error;
  std::string Output;
  uint64_t Steps = 0;
  uint32_t NodeCounter = 0;
  uint64_t CellSerial = 0;
  uint64_t FrameCounter = 0;
  uint64_t PooledReuses = 0;
  size_t InputPos = 0;
  unsigned CallDepth = 0;
  /// Top of the unit-frame stack: Frames[0, FrameTop) are live.
  size_t FrameTop = 0;
  /// Outcomes of self-contained calls (see CallMemo.h). Kept across runs;
  /// recording is switched on per Interpreter::callRoutine on the bytecode
  /// tier with no listener and no dependence tracking, so run() never
  /// records. The counts are flushed by flushPoolStats.
  CallMemo Memo;
  bool MemoRecording = false;
  uint64_t MemoRecorded = 0;
  uint64_t MemoServed = 0;

  ExecState(const pascal::Program &Prog, InterpOptions Opts)
      : Prog(Prog), Opts(Opts) {}

  void reset() {
    Failed = false;
    Error = RuntimeError();
    Output.clear();
    Steps = 0;
    NodeCounter = 0;
    CellSerial = 0;
    FrameCounter = 0;
    InputPos = 0;
    CallDepth = 0;
    Arena.clear();
    FreeList.clear();
    // Keep the frame pool's buffers but release the Values they pin.
    for (UnitFrame &F : Frames)
      F.clearLists();
    FrameTop = 0;
    MemoRecording = false;
    Memo.truncatePending(0);
  }

  /// Pushes a (recycled) unit frame. The caller must assign every header
  /// field; the lists come back empty with capacity retained.
  UnitFrame &pushFrame() {
    if (FrameTop == Frames.size())
      Frames.emplace_back();
    UnitFrame &F = Frames[FrameTop++];
    F.clearLists();
    return F;
  }

  /// Publishes per-run pool and call-memo statistics; called at the end of
  /// each entry point so hot paths pay plain increments, not atomics.
  void flushPoolStats() {
    if (PooledReuses) {
      static obs::Counter &Pooled =
          obs::Registry::global().counter("interp.cells.pooled");
      Pooled.add(PooledReuses);
      PooledReuses = 0;
    }
    if (MemoRecorded) {
      static obs::Counter &Recorded =
          obs::Registry::global().counter("interp.call_memo.recorded");
      Recorded.add(MemoRecorded);
      MemoRecorded = 0;
    }
    if (MemoServed) {
      static obs::Counter &Served =
          obs::Registry::global().counter("interp.call_memo.served");
      Served.add(MemoServed);
      MemoServed = 0;
    }
  }

  void fail(SourceLoc Loc, std::string Msg) {
    if (Failed)
      return;
    Failed = true;
    Error.Loc = Loc;
    Error.Message = std::move(Msg);
  }

  CellRef newCell(const pascal::VarDecl *Decl, Value V) {
    CellRef H;
    if (!FreeList.empty()) {
      H = FreeList.back();
      FreeList.pop_back();
      ++PooledReuses;
    } else {
      H = static_cast<CellRef>(Arena.size());
      Arena.emplace_back();
    }
    Cell &C = Arena[H];
    C.V = std::move(V);
    C.Serial = ++CellSerial;
    C.ReadUpTo = 0;
    C.WriteUpTo = 0;
    C.Decl = Decl;
    return H;
  }

  /// Returns the cells this activation created to the pool. Safe because no
  /// retained handle can reach them afterwards: enclosing unit frames only
  /// record cells below their watermark, which is at or below this
  /// activation's, and the activation's own frames are popped first.
  void freeActivationCells(Activation &Act) {
    for (CellRef H : Act.Slots) {
      if (H == NoCell)
        continue;
      Cell &C = Arena[H];
      if (C.Serial < Act.Watermark)
        continue; // aliased from the caller
      C.V.poolReset(); // don't let pooled cells pin heap payload
      FreeList.push_back(H);
    }
  }

  /// Initial value of a freshly declared variable: in strict mode scalars
  /// stay unset so use-before-assignment is detectable.
  Value initialValue(const pascal::Type *Ty) {
    if (Opts.DetectUninitialized && Ty && !Ty->isArray())
      return Value();
    return defaultValue(Ty);
  }

  //===--------------------------------------------------------------------===//
  // Cell access with unit-frame observation
  //===--------------------------------------------------------------------===//

  // Watermarks are non-decreasing with frame-stack depth, so the frames a
  // cell is non-local to form a suffix of the stack; so do the frames above
  // a cell's stamp. Observation therefore walks from the top of the stack
  // and stops at the first frame that is already covered — each event costs
  // O(frames actually recording), not O(live frames).

  /// Records a read of \p H in every active unit frame to which the cell is
  /// non-local and not already read or written. Call *before* using the
  /// value.
  ///
  /// First-read capture exists solely to assemble input bindings for the
  /// listener (finishCallUnit/exitLoopUnit read FirstReads under
  /// `if (Listener)` only), so with no listener the whole walk — including
  /// the Value copy per recorded read — is skipped. Write observation has
  /// no such shortcut: the Writes list drives output dependence merges,
  /// which persist in cells whether or not anyone is listening.
  void observeRead(CellRef H) {
    if (!Listener || FrameTop == 0)
      return;
    Cell &C = Arena[H];
    uint64_t Stamp = std::max(C.ReadUpTo, C.WriteUpTo);
    for (size_t I = FrameTop; I-- > 0;) {
      UnitFrame &F = Frames[I];
      if (F.FrameId <= Stamp || C.Serial >= F.Watermark)
        break;
      F.FirstReads.push_back({H, C.V});
    }
    if (C.ReadUpTo < Frames[FrameTop - 1].FrameId)
      C.ReadUpTo = Frames[FrameTop - 1].FrameId;
  }

  /// Records a write of \p H in every active unit frame to which the cell
  /// is non-local.
  void observeWrite(CellRef H) {
    if (FrameTop == 0)
      return;
    Cell &C = Arena[H];
    for (size_t I = FrameTop; I-- > 0;) {
      UnitFrame &F = Frames[I];
      if (F.FrameId <= C.WriteUpTo || C.Serial >= F.Watermark)
        break;
      F.Writes.push_back(H);
    }
    if (C.WriteUpTo < Frames[FrameTop - 1].FrameId)
      C.WriteUpTo = Frames[FrameTop - 1].FrameId;
  }

  /// Whether \p H was write-recorded in \p F (valid right after \p F was
  /// popped, before any new frame is pushed).
  bool writtenInFrame(const UnitFrame &F, CellRef H) const {
    return Arena[H].WriteUpTo >= F.FrameId && Arena[H].Serial < F.Watermark;
  }

  /// Full store: observes the write and applies active control deps.
  void storeCell(Activation &A, CellRef H, Value V) {
    observeWrite(H);
    if (Opts.TrackDeps)
      if (const DepSet *Ctrl = A.activeCtrlDeps())
        V.deps().mergeWith(*Ctrl);
    Arena[H].V = std::move(V);
  }

  //===--------------------------------------------------------------------===//
  // Name / cell resolution
  //===--------------------------------------------------------------------===//

  CellRef getCell(Activation &A, const pascal::VarDecl *D, SourceLoc Loc) {
    Activation *Cur = &A;
    for (uint32_t Hops = Cur->R->getStorageDepth() - D->getDepth();
         Hops && Cur; --Hops)
      Cur = Cur->StaticLink;
    if (Cur && D->getSlot() < Cur->Slots.size()) {
      CellRef H = Cur->Slots[D->getSlot()];
      if (H != NoCell)
        return H;
    }
    fail(Loc, "internal: no storage for variable '" + D->getName() + "'");
    return NoCell;
  }

  /// The parameter declaration whose frame slot holds \p H, or null. When
  /// two reference parameters alias one cell, the last one wins (matching
  /// the map-based attribution this replaced).
  const pascal::VarDecl *paramOfCell(const Activation &Act,
                                     const pascal::RoutineDecl *Callee,
                                     CellRef H) const {
    const pascal::VarDecl *Found = nullptr;
    size_t NumParams = Callee->getParams().size();
    for (size_t I = 0; I != NumParams; ++I)
      if (Act.Slots[I] == H)
        Found = Callee->getParams()[I].get();
    return Found;
  }

  /// Returns the name under which \p H is visible from activation \p A
  /// (var parameters alias caller cells whose creation name differs from
  /// the local parameter name). Falls back to the creation name.
  support::Symbol nameOfCell(Activation *A, CellRef H) {
    for (Activation *Cur = A; Cur; Cur = Cur->StaticLink)
      for (size_t I = 0, N = Cur->Slots.size(); I != N; ++I)
        if (Cur->Slots[I] == H)
          return Cur->R->getSlotDecls()[I]->getNameSymbol();
    const pascal::VarDecl *D = Arena[H].Decl;
    static const support::Symbol Unnamed("<cell>");
    return D ? D->getNameSymbol() : Unnamed;
  }

  //===--------------------------------------------------------------------===//
  // Step accounting and control-dependence stack
  //===--------------------------------------------------------------------===//

  bool countStep(SourceLoc Loc) {
    if (++Steps > Opts.MaxSteps) [[unlikely]] {
      fail(Loc, "step limit exceeded (possible non-termination)");
      return false;
    }
    return true;
  }

  void pushCtrl(Activation &A, const DepSet &CondDeps) {
    if (!Opts.TrackDeps)
      return;
    DepSet Merged = CondDeps;
    if (const DepSet *Active = A.activeCtrlDeps())
      Merged.mergeWith(*Active);
    A.CtrlStack.push_back(std::move(Merged));
  }

  /// Move form for callers holding a freshly merged condition set (the
  /// VM's fused compare-and-branch builds one it does not need back).
  void pushCtrl(Activation &A, DepSet &&CondDeps) {
    if (!Opts.TrackDeps)
      return;
    if (const DepSet *Active = A.activeCtrlDeps())
      CondDeps.mergeWith(*Active);
    A.CtrlStack.push_back(std::move(CondDeps));
  }

  void popCtrl(Activation &A) {
    if (!Opts.TrackDeps)
      return;
    A.CtrlStack.pop_back();
  }

  //===--------------------------------------------------------------------===//
  // Unit protocol: calls
  //===--------------------------------------------------------------------===//

  /// Raises the enter event for a routine-call unit and pushes its
  /// observation frame. Returns the unit's node id; finishCallUnit closes
  /// the unit after the body executed. \p Act must have its parameters
  /// bound: with a listener, the value parameters' entry values are the
  /// unit's first inputs; when the memo is recording and \p SelfContained
  /// is set, every parameter's value is the call's key.
  uint32_t beginCallUnit(Activation &Act, const pascal::RoutineDecl *Callee,
                         const pascal::Stmt *CallStmt,
                         const pascal::Expr *CallExpr, SourceLoc Loc,
                         uint64_t Watermark, bool SelfContained = false) {
    uint32_t NodeId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = NodeId;
      Start.Kind = UnitKind::Call;
      Start.Name = Callee->getNameSymbol();
      Start.Routine = Callee;
      Start.CallStmt = CallStmt;
      Start.CallExpr = CallExpr;
      Start.Loc = Loc;
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = NodeId;
    F.Kind = UnitKind::Call;
    F.Watermark = Watermark;
    F.FrameId = ++FrameCounter;
    F.Act = &Act;
    F.MemoKey = MemoRecording && SelfContained ? openMemoRecord(Act, Callee)
                                               : NoMemoKey;
    if (Listener)
      for (const auto &P : Callee->getParams())
        if (!P->isReference())
          F.EntryInputs.push_back(
              {P->getNameSymbol(), Arena[Act.Slots[P->getSlot()]].V});
    return NodeId;
  }

  /// Pushes the key of a call of self-contained \p Callee — every
  /// parameter's entry value — onto the memo's pending words and returns
  /// where it starts. NoMemoKey when the call is not recorded: var
  /// arguments naming one cell twice (`p(t, t)` runs differently from a
  /// direct call, which binds distinct cells), or a value the memo does
  /// not store.
  uint32_t openMemoRecord(const Activation &Act,
                          const pascal::RoutineDecl *Callee) {
    size_t Start = Memo.pendingSize();
    const auto &Params = Callee->getParams();
    for (size_t I = 0, N = Params.size(); I != N; ++I) {
      CellRef C = Act.Slots[Params[I]->getSlot()];
      bool Ok = Memo.pushPending(Arena[C].V);
      if (Params[I]->isReference())
        for (size_t J = 0; J != I && Ok; ++J)
          Ok = !Params[J]->isReference() ||
               Act.Slots[Params[J]->getSlot()] != C;
      if (!Ok) {
        Memo.truncatePending(Start);
        return NoMemoKey;
      }
    }
    return static_cast<uint32_t>(Start);
  }

  /// Closes the record opened at \p Key once the call finished all its
  /// checks: unless the run failed, commits the reference parameters'
  /// final values in declaration order, then the function result.
  void closeMemoRecord(uint32_t Key, const Activation &Act,
                       const pascal::RoutineDecl *Callee,
                       const Value *Result) {
    if (!Failed && (Result || !Callee->isFunction())) {
      size_t OutStart = Memo.pendingSize();
      bool Ok = true;
      for (const auto &P : Callee->getParams())
        if (P->isReference() && Ok)
          Ok = Memo.pushPending(Arena[Act.Slots[P->getSlot()]].V);
      if (Ok && Callee->isFunction())
        Ok = Memo.pushPending(*Result);
      if (Ok && Memo.commit(Callee, Key, OutStart))
        ++MemoRecorded;
    }
    Memo.truncatePending(Key);
  }

  /// Pops the unit frame pushed by beginCallUnit, appends the dynamic
  /// input/output bindings to the listener's pool, applies the output
  /// dependence merges (which persist in the written cells — semantics, not
  /// bookkeeping) and raises the exit event.
  ///
  /// \p OutputsOut, when non-null, receives the output bindings even
  /// without a listener (callRoutine needs them); otherwise bindings are
  /// only assembled for the listener.
  void finishCallUnit(Activation &Act, const pascal::RoutineDecl *Callee,
                      uint32_t NodeId, Activation *Caller,
                      std::vector<Binding> *OutputsOut, Value *Result) {
    // Pop by decrement; the slot stays valid (nothing below pushes a unit
    // frame before this function returns) and its buffers get recycled.
    UnitFrame &Frame = Frames[--FrameTop];
    uint32_t MemoKey = Frame.MemoKey;

    // Inputs: value parameters (captured at entry), then var parameters
    // read before being written, then true global side reads. Pure
    // bookkeeping for the listener — skipped entirely when no one listens.
    std::vector<Binding> *Pool = Listener ? &Listener->bindings() : nullptr;
    size_t Start = Pool ? Pool->size() : 0;
    if (Pool) {
      for (Binding &B : Frame.EntryInputs)
        Pool->push_back(std::move(B));
      for (const auto &[C, V] : Frame.FirstReads)
        if (const pascal::VarDecl *P = paramOfCell(Act, Callee, C))
          Pool->push_back({P->getNameSymbol(), V});
      for (const auto &[C, V] : Frame.FirstReads)
        if (!paramOfCell(Act, Callee, C))
          Pool->push_back({nameOfCell(&Act, C), V});
    }
    size_t NumIn = Pool ? Pool->size() - Start : 0;

    // Outputs: var/out parameters in declared order, then global writes,
    // then the function result. The dependence merges are semantics (they
    // persist in the written cells), so they run with or without bindings.
    DepSet OutDeps;
    if (Opts.TrackDeps) {
      OutDeps.insert(NodeId);
      if (Caller)
        if (const DepSet *Ctrl = Caller->activeCtrlDeps())
          OutDeps.mergeWith(*Ctrl);
    }
    auto output = [&](support::Symbol Name, Value &V) {
      if (Opts.TrackDeps)
        V.deps().mergeWith(OutDeps);
      if (Pool)
        Pool->push_back({Name, V});
      if (OutputsOut)
        OutputsOut->push_back({Name, V});
    };
    for (const auto &P : Callee->getParams()) {
      if (!P->isReference())
        continue;
      CellRef C = Act.Slots[P->getSlot()];
      if (C == NoCell)
        continue;
      if (writtenInFrame(Frame, C) || P->getMode() == pascal::ParamMode::Out)
        output(P->getNameSymbol(), Arena[C].V);
    }
    for (CellRef C : Frame.Writes)
      if (!paramOfCell(Act, Callee, C))
        output(nameOfCell(&Act, C), Arena[C].V);
    if (Callee->isFunction()) {
      CellRef C = Act.Slots[Callee->getResultVar()->getSlot()];
      if (C != NoCell) {
        if (Opts.DetectUninitialized && Arena[C].V.isUnset() && !Failed)
          fail(Callee->getLoc(), "function '" + Callee->getName() +
                                     "' returns without assigning its "
                                     "result");
        output(Callee->getNameSymbol(), Arena[C].V);
        if (Result)
          *Result = std::move(Arena[C].V);
      }
    }

    if (Listener)
      Listener->exitUnit(NodeId, NumIn, Pool->size() - Start - NumIn);
    // Last, so the record sees every check above (checked mode's
    // unassigned result included).
    if (MemoKey != NoMemoKey)
      closeMemoRecord(MemoKey, Act, Callee, Result);
  }

  //===--------------------------------------------------------------------===//
  // Unit protocol: loops and iterations
  //===--------------------------------------------------------------------===//

  /// Pushes a frame + listener event for a loop or iteration unit; returns
  /// the node id (0 when this unit kind is not traced).
  uint32_t enterLoopUnit(UnitKind Kind, support::Symbol Name,
                         const pascal::Stmt *LoopStmt, uint32_t IterIndex,
                         SourceLoc Loc, Activation &A) {
    if (!Opts.TraceLoops)
      return 0;
    if (Kind == UnitKind::Iteration && !Opts.TraceIterations)
      return 0;
    uint32_t NodeId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = NodeId;
      Start.Kind = Kind;
      Start.Name = Name;
      Start.LoopStmt = LoopStmt;
      Start.IterIndex = IterIndex;
      Start.Loc = Loc;
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = NodeId;
    F.Kind = Kind;
    F.Watermark = CellSerial + 1;
    F.FrameId = ++FrameCounter;
    F.Act = &A;
    return NodeId;
  }

  void exitLoopUnit(uint32_t NodeId, Activation &A) {
    if (NodeId == 0)
      return;
    UnitFrame &Frame = Frames[--FrameTop]; // pop; see finishCallUnit
    std::vector<Binding> *Pool = Listener ? &Listener->bindings() : nullptr;
    size_t Start = Pool ? Pool->size() : 0;
    if (Pool)
      for (const auto &[C, V] : Frame.FirstReads)
        Pool->push_back({nameOfCell(&A, C), V});
    size_t NumIn = Pool ? Pool->size() - Start : 0;
    DepSet OutDeps;
    if (Opts.TrackDeps) {
      OutDeps.insert(NodeId);
      if (const DepSet *Ctrl = A.activeCtrlDeps())
        OutDeps.mergeWith(*Ctrl);
    }
    for (CellRef C : Frame.Writes) {
      if (Opts.TrackDeps)
        Arena[C].V.deps().mergeWith(OutDeps);
      if (Pool)
        Pool->push_back({nameOfCell(&A, C), Arena[C].V});
    }
    if (Listener)
      Listener->exitUnit(NodeId, NumIn, Pool->size() - Start - NumIn);
  }

  //===--------------------------------------------------------------------===//
  // Program entry and exit (the root unit)
  //===--------------------------------------------------------------------===//

  /// Sets up \p Act as the main activation: globals become fresh cells.
  /// \p Act must already be empty/reset.
  void setUpMainActivation(Activation &Act) {
    Act.R = Prog.getMain();
    Act.StaticLink = nullptr;
    Act.Watermark = CellSerial + 1;
    Act.Slots.assign(Prog.getMain()->getNumSlots(), NoCell);
    Act.CtrlStack.clear();
    for (const auto &G : Prog.getMain()->getLocals())
      Act.Slots[G->getSlot()] = newCell(G.get(), initialValue(G->getType()));
  }

  /// Raises the enter event for the root (whole-program) unit and pushes
  /// its observation frame. Returns the root node id.
  uint32_t enterRoot(Activation &Main) {
    uint32_t RootId = ++NodeCounter;
    if (Listener) {
      UnitStart Start;
      Start.NodeId = RootId;
      Start.Kind = UnitKind::Call;
      Start.Name = Prog.getMain()->getNameSymbol();
      Start.Routine = Prog.getMain();
      Start.Loc = Prog.getMain()->getLoc();
      Listener->enterUnit(Start);
    }
    UnitFrame &F = pushFrame();
    F.NodeId = RootId;
    F.Kind = UnitKind::Call;
    F.Watermark = CellSerial + 1;
    F.FrameId = ++FrameCounter;
    F.Act = &Main;
    return RootId;
  }

  /// Pops the root frame, assembles the final-global bindings and raises
  /// the root exit event (globals plus the collected `<output>` text).
  void exitRoot(uint32_t RootId, Activation &Main, ExecResult &Res) {
    --FrameTop;
    for (const auto &G : Prog.getMain()->getLocals())
      Res.FinalGlobals.push_back(
          {G->getNameSymbol(), Arena[Main.Slots[G->getSlot()]].V});
    if (Listener) {
      std::vector<Binding> &Pool = Listener->bindings();
      size_t Start = Pool.size();
      Pool.insert(Pool.end(), Res.FinalGlobals.begin(),
                  Res.FinalGlobals.end());
      static const support::Symbol OutputName("<output>");
      if (!Output.empty())
        Pool.push_back({OutputName, Value::makeStr(Output)});
      Listener->exitUnit(RootId, 0, Pool.size() - Start);
    }
  }

  //===--------------------------------------------------------------------===//
  // Routine entry (Interpreter::callRoutine)
  //===--------------------------------------------------------------------===//

  /// The activations a direct routine call runs in: main, the static chain
  /// from main down to the callee's parent (EntryChain[d - 1] at static
  /// depth d), and the callee. Kept across calls so a warm caller reuses
  /// their slot vectors.
  Activation EntryMain, EntryCallee;
  std::vector<Activation> EntryChain;

  /// Sets up EntryCallee to call \p Callee directly with \p Args (an unset
  /// value defaults by type). The chain's locals and parameters are
  /// default-initialized, then \p Presets override variables by name,
  /// innermost scope first. Returns the callee unit's watermark. Both tiers
  /// run the callee from here.
  uint64_t setUpRoutineEntry(const pascal::RoutineDecl *Callee,
                             std::vector<Value> &Args,
                             const std::vector<Binding> &Presets) {
    setUpMainActivation(EntryMain);
    // Static chain, outermost first (cells are created in that order).
    const pascal::RoutineDecl *Parent = Callee->getParent();
    size_t ChainLen = Parent ? Parent->getStorageDepth() : 0;
    if (EntryChain.size() < ChainLen)
      EntryChain.resize(ChainLen);
    for (const pascal::RoutineDecl *R = Parent; R && R->getParent();
         R = R->getParent())
      EntryChain[R->getStorageDepth() - 1].R = R;
    Activation *Link = &EntryMain;
    for (size_t I = 0; I != ChainLen; ++I) {
      Activation &A = EntryChain[I];
      A.StaticLink = Link;
      A.Watermark = CellSerial + 1;
      A.Slots.assign(A.R->getNumSlots(), NoCell);
      A.CtrlStack.clear();
      for (const auto &L : A.R->getLocals())
        A.Slots[L->getSlot()] = newCell(L.get(), initialValue(L->getType()));
      for (const auto &P : A.R->getParams())
        A.Slots[P->getSlot()] = newCell(P.get(), defaultValue(P->getType()));
      Link = &A;
    }

    for (const Binding &Preset : Presets)
      for (Activation *Cur = Link; Cur; Cur = Cur->StaticLink) {
        const auto &Decls = Cur->R->getSlotDecls();
        size_t I = 0, N = Decls.size();
        while (I != N && !(Cur->Slots[I] != NoCell &&
                           Decls[I]->getNameSymbol() == Preset.Name))
          ++I;
        if (I != N) {
          Arena[Cur->Slots[I]].V = Preset.V;
          break;
        }
      }

    Activation &Act = EntryCallee;
    uint64_t Watermark = CellSerial + 1;
    Act.R = Callee;
    Act.StaticLink = Link;
    Act.Watermark = Watermark;
    Act.Slots.assign(Callee->getNumSlots(), NoCell);
    Act.CtrlStack.clear();
    for (size_t I = 0, N = Callee->getParams().size(); I != N; ++I) {
      const pascal::VarDecl *Param = Callee->getParams()[I].get();
      Value V = Args[I].isUnset() ? defaultValue(Param->getType())
                                  : std::move(Args[I]);
      Act.Slots[Param->getSlot()] = newCell(Param, std::move(V));
    }
    for (const auto &L : Callee->getLocals())
      Act.Slots[L->getSlot()] = newCell(L.get(), initialValue(L->getType()));
    if (Callee->isFunction()) {
      const pascal::VarDecl *RV = Callee->getResultVar();
      Act.Slots[RV->getSlot()] =
          newCell(RV, initialValue(Callee->getReturnType()));
    }
    return Watermark;
  }

  /// Completes a direct call of EntryCallee: \p Outputs are the
  /// trace-shaped outputs finishCallUnit assembled (written parameters,
  /// global effects, result), augmented with unwritten var parameters so
  /// checkers see the full post-state.
  CallOutcome finishRoutineEntry(std::vector<Binding> Outputs) {
    const pascal::RoutineDecl *Callee = EntryCallee.R;
    CallOutcome Out;
    Out.Ok = !Failed;
    Out.Error = Error;
    Out.Output = Output;
    Out.Outputs = std::move(Outputs);
    for (const auto &Param : Callee->getParams())
      if (Param->isReference() && !hasBinding(Out.Outputs, Param.get()))
        Out.Outputs.push_back({Param->getNameSymbol(),
                               Arena[EntryCallee.Slots[Param->getSlot()]].V});
    flushPoolStats();
    return Out;
  }

  static bool hasBinding(const std::vector<Binding> &Bs,
                         const pascal::VarDecl *Param) {
    for (const Binding &B : Bs)
      if (B.Name == Param->getNameSymbol())
        return true;
    return false;
  }

  /// Answers a direct call of \p Callee with \p Args from the memo,
  /// touching no run state. \p Out is built as finishCallUnit and
  /// finishRoutineEntry build a direct call's outcome: a direct call's
  /// parameter cells are local to its unit, so finishCallUnit reports the
  /// `out` parameters (declaration order) and the function result, and
  /// finishRoutineEntry appends the remaining var parameters. A
  /// self-contained routine writes nothing else and prints nothing.
  /// Returns false (nothing served) on a miss, with a listener attached or
  /// dependence tracking on.
  bool serveFromMemo(const pascal::RoutineDecl *Callee,
                     const std::vector<Value> &Args, CallOutcome &Out) {
    if (Memo.empty() || Listener || Opts.TrackDeps)
      return false;
    const auto &Params = Callee->getParams();
    Memo.truncatePending(0);
    for (size_t I = 0, N = Params.size(); I != N; ++I)
      if (!Memo.pushPending(Args[I].isUnset()
                                ? defaultValue(Params[I]->getType())
                                : Args[I]))
        return false;
    const uint64_t *Recorded = Memo.find(Callee, 0);
    Memo.truncatePending(0);
    if (!Recorded)
      return false;
    // Recorded: reference parameters' final values, then the result.
    Out.Outputs.reserve(Params.size() + 1);
    const uint64_t *W = Recorded;
    for (const auto &P : Params) {
      if (!P->isReference())
        continue;
      if (P->getMode() == pascal::ParamMode::Out)
        Out.Outputs.push_back({P->getNameSymbol(), CallMemo::decode(W)});
      else
        CallMemo::skip(W);
    }
    if (Callee->isFunction())
      Out.Outputs.push_back({Callee->getNameSymbol(), CallMemo::decode(W)});
    W = Recorded;
    for (const auto &P : Params) {
      if (!P->isReference())
        continue;
      if (!hasBinding(Out.Outputs, P.get()))
        Out.Outputs.push_back({P->getNameSymbol(), CallMemo::decode(W)});
      else
        CallMemo::skip(W);
    }
    Out.Ok = true;
    ++MemoServed;
    flushPoolStats();
    return true;
  }
};

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_EXECSTATE_H
