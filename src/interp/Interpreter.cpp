//===- Interpreter.cpp - Tracing Pascal interpreter -----------------------===//

#include "interp/Interpreter.h"

#include "bytecode/Bytecode.h"
#include "bytecode/VM.h"
#include "interp/Arith.h"
#include "interp/ExecState.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <utility>

#include <pthread.h>

using namespace gadt;
using namespace gadt::interp;
using namespace gadt::pascal;

TraceListener::~TraceListener() = default;

namespace {

/// Headroom the tree walker keeps above the end of the host stack: room
/// for the frames one subject call nests between two performCall checks
/// (argument evaluation, statements, unit events) and for the failure
/// path, also under sanitizers, whose frames are larger.
constexpr size_t StackMargin = 256 * 1024;

/// The lowest frame address at which the tree walker may still enter a
/// subject call on this thread, or 0 when the stack bounds are unknown.
/// Read once per thread: on the main thread pthread_getattr_np parses
/// /proc/self/maps. Stacks smaller than four margins keep a quarter.
uintptr_t stackFloor() {
  static thread_local const uintptr_t Floor = [] {
    uintptr_t F = 0;
    pthread_attr_t Attr;
    if (pthread_getattr_np(pthread_self(), &Attr) == 0) {
      void *Addr = nullptr;
      size_t Size = 0;
      if (pthread_attr_getstack(&Attr, &Addr, &Size) == 0 && Addr)
        F = reinterpret_cast<uintptr_t>(Addr) +
            std::min(StackMargin, Size / 4);
      pthread_attr_destroy(&Attr);
    }
    return F;
  }();
  return Floor;
}

/// Run buffers that Interpreters destroyed on this thread left behind,
/// emptied, for the next ones to start from, so a warm thread's first run
/// grows nothing. A session holds two interpreters at once (the trace's and
/// its oracle's), so the spare keeps up to MaxSets sets, and none from a
/// run whose buffers outgrew MaxBytes: an outsized run pins nothing.
/// CallMemo's spare, for the execution state.
class SpareRuns {
public:
  static constexpr unsigned MaxSets = 2;
  static constexpr size_t MaxBytes = 256 * 1024;

  static SpareRuns &get() {
    thread_local SpareRuns S;
    return S;
  }

  ~SpareRuns() {
    for (RunBuffers &B : Sets)
      if (B.VS)
        bytecode::destroyVMState(B.VS);
  }

  /// Moves a spare set, if any, into \p B (which must be empty).
  void take(RunBuffers &B) {
    if (Count)
      std::swap(B, Sets[--Count]);
  }

  /// Keeps \p B's buffers, emptied, when there is room and they are
  /// within the cap; otherwise \p B keeps them, for the caller to free.
  void give(RunBuffers &B) {
    if (Count < MaxSets && B.clear() <= MaxBytes)
      std::swap(B, Sets[Count++]);
  }

private:
  RunBuffers Sets[MaxSets];
  unsigned Count = 0;
};

} // namespace

size_t gadt::interp::RunBuffers::clear() {
  Arena.clear();
  FreeList.clear();
  size_t Bytes = Arena.capacity() * sizeof(Cell) +
                 FreeList.capacity() * sizeof(CellRef) +
                 Frames.capacity() * sizeof(UnitFrame);
  for (UnitFrame &F : Frames) {
    F.clearLists();
    Bytes += F.EntryInputs.capacity() * sizeof(Binding) +
             F.FirstReads.capacity() * sizeof(F.FirstReads[0]) +
             F.Writes.capacity() * sizeof(CellRef);
  }
  if (VS)
    Bytes += bytecode::clearVMState(*VS);
  return Bytes;
}

Value gadt::interp::defaultValue(const Type *Ty) {
  if (!Ty)
    return Value();
  switch (Ty->getKind()) {
  case Type::Kind::Integer:
    return Value::makeInt(0);
  case Type::Kind::Boolean:
    return Value::makeBool(false);
  case Type::Kind::String:
    return Value::makeStr("");
  case Type::Kind::Array: {
    ArrayVal A;
    A.Lo = Ty->getLowerBound();
    A.Hi = Ty->getUpperBound();
    A.Elems.assign(static_cast<size_t>(A.size()), 0);
    return Value::makeArray(std::move(A));
  }
  }
  return Value();
}

struct Interpreter::Impl : ExecState {
  /// Non-local goto in flight (tree tier only; the bytecode compiler
  /// rejects programs with gotos).
  struct {
    bool Active = false;
    int Label = 0;
    Activation *Target = nullptr;
    SourceLoc Loc;
  } Goto;

  // Bytecode tier: the program's shared compile (when no code was
  // injected through InterpOptions::Code), fetched once.
  std::shared_ptr<const bytecode::CompiledProgram> ProgCode;
  bool ProgCodeFetched = false;

  Impl(const Program &Prog, InterpOptions Opts) : ExecState(Prog, Opts) {
    SpareRuns::get().take(*this);
  }

  /// Hands the run buffers to this thread's spare (see SpareRuns).
  ~Impl() {
    SpareRuns::get().give(*this);
    if (VS)
      bytecode::destroyVMState(VS);
  }

  void resetRun() {
    reset();
    Goto.Active = false;
  }

  //===--------------------------------------------------------------------===//
  // Expression evaluation
  //===--------------------------------------------------------------------===//

  Value evalExpr(Activation &A, const Expr *E) {
    if (Failed)
      return Value();
    switch (E->getKind()) {
    case Expr::Kind::IntLiteral:
      return Value::makeInt(cast<IntLiteralExpr>(E)->getValue());
    case Expr::Kind::BoolLiteral:
      return Value::makeBool(cast<BoolLiteralExpr>(E)->getValue());
    case Expr::Kind::StringLiteral:
      return Value::makeStr(cast<StringLiteralExpr>(E)->getValue());

    case Expr::Kind::ArrayLiteral: {
      const auto *AL = cast<ArrayLiteralExpr>(E);
      ArrayVal Arr;
      Arr.Lo = 1;
      Arr.Hi = static_cast<int64_t>(AL->getElements().size());
      DepSet Deps;
      for (const ExprPtr &Elem : AL->getElements()) {
        Value V = evalExpr(A, Elem.get());
        if (Failed)
          return Value();
        Arr.Elems.push_back(V.asInt());
        if (Opts.TrackDeps)
          Deps.mergeWith(V.deps());
      }
      Value Out = Value::makeArray(std::move(Arr));
      Out.deps() = std::move(Deps);
      return Out;
    }

    case Expr::Kind::VarRef: {
      const auto *VR = cast<VarRefExpr>(E);
      CellRef C = getCell(A, VR->getDecl(), VR->getLoc());
      if (C == NoCell)
        return Value();
      if (Opts.DetectUninitialized && Arena[C].V.isUnset()) {
        fail(VR->getLoc(), "variable '" + VR->getName() +
                               "' is used before it is assigned");
        return Value();
      }
      observeRead(C);
      return Arena[C].V;
    }

    case Expr::Kind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
      CellRef C = getCell(A, BaseRef->getDecl(), BaseRef->getLoc());
      if (C == NoCell)
        return Value();
      Value Idx = evalExpr(A, IE->getIndex());
      if (Failed)
        return Value();
      observeRead(C);
      const ArrayVal &Arr = Arena[C].V.asArray();
      if (!Arr.inBounds(Idx.asInt())) {
        fail(IE->getLoc(), "array index " + std::to_string(Idx.asInt()) +
                               " out of bounds [" + std::to_string(Arr.Lo) +
                               ".." + std::to_string(Arr.Hi) + "] for '" +
                               BaseRef->getName() + "'");
        return Value();
      }
      Value Out = Value::makeInt(Arr.at(Idx.asInt()));
      if (Opts.TrackDeps) {
        Out.deps().mergeWith(Arena[C].V.deps());
        Out.deps().mergeWith(Idx.deps());
      }
      return Out;
    }

    case Expr::Kind::Call: {
      const auto *CE = cast<CallExpr>(E);
      return performCall(A, CE->getCallee(), CE->getArgs(), nullptr, CE,
                         CE->getLoc());
    }

    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      Value Op = evalExpr(A, UE->getOperand());
      if (Failed)
        return Value();
      Value Out = UE->getOp() == UnaryOp::Neg
                      ? Value::makeInt(arith::neg(Op.asInt()))
                                              : Value::makeBool(!Op.asBool());
      if (Opts.TrackDeps)
        Out.deps() = Op.deps();
      return Out;
    }

    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(E);
      Value L = evalExpr(A, BE->getLHS());
      if (Failed)
        return Value();
      Value R = evalExpr(A, BE->getRHS());
      if (Failed)
        return Value();
      Value Out = applyBinary(BE, L, R);
      if (Failed)
        return Value();
      if (Opts.TrackDeps) {
        Out.deps().mergeWith(L.deps());
        Out.deps().mergeWith(R.deps());
      }
      return Out;
    }
    }
    return Value();
  }

  Value applyBinary(const BinaryExpr *BE, const Value &L, const Value &R) {
    switch (BE->getOp()) {
    case BinaryOp::Add:
      return Value::makeInt(arith::add(L.asInt(), R.asInt()));
    case BinaryOp::Sub:
      return Value::makeInt(arith::sub(L.asInt(), R.asInt()));
    case BinaryOp::Mul:
      return Value::makeInt(arith::mul(L.asInt(), R.asInt()));
    case BinaryOp::Div:
      if (R.asInt() == 0) {
        fail(BE->getLoc(), "division by zero");
        return Value();
      }
      return Value::makeInt(arith::div(L.asInt(), R.asInt()));
    case BinaryOp::Mod:
      if (R.asInt() == 0) {
        fail(BE->getLoc(), "modulo by zero");
        return Value();
      }
      return Value::makeInt(arith::mod(L.asInt(), R.asInt()));
    case BinaryOp::Eq:
      return Value::makeBool(L.isBool() ? L.asBool() == R.asBool()
                                        : L.asInt() == R.asInt());
    case BinaryOp::Ne:
      return Value::makeBool(L.isBool() ? L.asBool() != R.asBool()
                                        : L.asInt() != R.asInt());
    case BinaryOp::Lt:
      return Value::makeBool(L.asInt() < R.asInt());
    case BinaryOp::Le:
      return Value::makeBool(L.asInt() <= R.asInt());
    case BinaryOp::Gt:
      return Value::makeBool(L.asInt() > R.asInt());
    case BinaryOp::Ge:
      return Value::makeBool(L.asInt() >= R.asInt());
    case BinaryOp::And:
      return Value::makeBool(L.asBool() && R.asBool());
    case BinaryOp::Or:
      return Value::makeBool(L.asBool() || R.asBool());
    }
    return Value();
  }

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  /// Finds the static link for a call to \p Callee made from \p Caller.
  Activation *findStaticLink(Activation &Caller, const RoutineDecl *Callee) {
    for (Activation *Cur = &Caller; Cur; Cur = Cur->StaticLink)
      if (Cur->R == Callee->getParent())
        return Cur;
    // Calling an enclosing routine recursively: its parent's activation is
    // further up; calling the program routine has no static parent.
    return nullptr;
  }

  /// Shared tail of performCall/callRoutine: raises unit events, executes
  /// the body, and collects input/output bindings.
  ///
  /// \p OutputsOut, when non-null, receives the output bindings even
  /// without a listener (callRoutine needs them); otherwise bindings are
  /// only assembled for the listener. Dependence side effects (output deps
  /// merged into cell values and the function result) happen regardless.
  void runPreparedCall(Activation &Act, const RoutineDecl *Callee,
                       const Stmt *CallStmt, const Expr *CallExpr,
                       SourceLoc Loc, Activation *Caller,
                       std::vector<Binding> *OutputsOut, Value *Result,
                       uint64_t Watermark) {
    uint32_t NodeId =
        beginCallUnit(Act, Callee, CallStmt, CallExpr, Loc, Watermark);

    ++CallDepth;
    if (Callee->getBody())
      execStmt(Act, Callee->getBody());
    --CallDepth;

    // A non-local goto targeting *this* activation that was not caught at
    // any compound level means a jump into a structured statement.
    if (Goto.Active && Goto.Target == &Act) {
      fail(Goto.Loc,
           "goto " + std::to_string(Goto.Label) +
               " jumps into a structured statement (not supported)");
      Goto.Active = false;
    }

    finishCallUnit(Act, Callee, NodeId, Caller, OutputsOut, Result);
  }

  Value performCall(Activation &Caller, const RoutineDecl *Callee,
                    const std::vector<ExprPtr> &Args, const Stmt *CallStmt,
                    const Expr *CallExpr, SourceLoc Loc) {
    if (!Callee) {
      fail(Loc, "internal: unresolved call");
      return Value();
    }
    if (CallDepth >= Opts.MaxCallDepth) {
      fail(Loc, "call depth limit exceeded (runaway recursion in '" +
                    Callee->getName() + "')");
      return Value();
    }
    // The subject's recursion is the walker's own: stop before the host
    // stack runs out, whatever MaxCallDepth allows.
    if (reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
        stackFloor()) {
      fail(Loc, "host stack exhausted (recursion in '" + Callee->getName() +
                    "' is too deep for the tree walker)");
      return Value();
    }
    Activation Act;
    Act.R = Callee;
    Act.StaticLink = findStaticLink(Caller, Callee);

    // Bind parameters. Reference parameters alias the caller's cell; value
    // parameters are evaluated and copied. Evaluation happens in the
    // caller, so reads are charged to the caller's units.
    const auto &Params = Callee->getParams();
    std::vector<CellRef> RefCells(Params.size(), NoCell);
    std::vector<Value> ValueArgs(Params.size());
    for (size_t I = 0, N = Params.size(); I != N; ++I) {
      const VarDecl *P = Params[I].get();
      if (P->isReference()) {
        const auto *VR = cast<VarRefExpr>(Args[I].get());
        CellRef C = getCell(Caller, VR->getDecl(), VR->getLoc());
        if (C == NoCell)
          return Value();
        // The caller's cell stays non-local to the callee's frame, so the
        // frame observes whether the callee reads its pre-state.
        RefCells[I] = C;
      } else {
        Value V = evalExpr(Caller, Args[I].get());
        if (Failed)
          return Value();
        ValueArgs[I] = std::move(V);
      }
    }
    // Cells created from here on are local to the callee's unit frame —
    // and owned by its activation (freed when the call returns).
    uint64_t Watermark = CellSerial + 1;
    Act.Watermark = Watermark;
    Act.Slots.resize(Callee->getNumSlots(), NoCell);
    for (size_t I = 0, N = Params.size(); I != N; ++I) {
      const VarDecl *P = Params[I].get();
      Act.Slots[P->getSlot()] =
          RefCells[I] != NoCell ? RefCells[I]
                                : newCell(P, std::move(ValueArgs[I]));
    }
    for (const auto &L : Callee->getLocals())
      Act.Slots[L->getSlot()] = newCell(L.get(), initialValue(L->getType()));
    if (Callee->isFunction()) {
      const VarDecl *RV = Callee->getResultVar();
      Act.Slots[RV->getSlot()] =
          newCell(RV, initialValue(Callee->getReturnType()));
    }

    Value Result;
    runPreparedCall(Act, Callee, CallStmt, CallExpr, Loc, &Caller, nullptr,
                    &Result, Watermark);
    freeActivationCells(Act);
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Loop units
  //===--------------------------------------------------------------------===//

  //===--------------------------------------------------------------------===//
  // Statement execution
  //===--------------------------------------------------------------------===//

  void execStmt(Activation &A, const Stmt *S) {
    if (Failed || Goto.Active)
      return;
    if (!countStep(S->getLoc()))
      return;

    switch (S->getKind()) {
    case Stmt::Kind::Compound:
      execCompound(A, cast<CompoundStmt>(S)->getBody());
      return;
    case Stmt::Kind::Assign:
      execAssign(A, cast<AssignStmt>(S));
      return;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S);
      Value Cond = evalExpr(A, IS->getCond());
      if (Failed)
        return;
      pushCtrl(A, Cond.deps());
      if (Cond.asBool())
        execStmt(A, IS->getThen());
      else if (IS->getElse())
        execStmt(A, IS->getElse());
      popCtrl(A);
      return;
    }
    case Stmt::Kind::While:
      execWhile(A, cast<WhileStmt>(S));
      return;
    case Stmt::Kind::Repeat:
      execRepeat(A, cast<RepeatStmt>(S));
      return;
    case Stmt::Kind::For:
      execFor(A, cast<ForStmt>(S));
      return;
    case Stmt::Kind::ProcCall: {
      const auto *PC = cast<ProcCallStmt>(S);
      performCall(A, PC->getCallee(), PC->getArgs(), PC, nullptr,
                  PC->getLoc());
      return;
    }
    case Stmt::Kind::Goto: {
      const auto *GS = cast<GotoStmt>(S);
      // Find the activation that declares the label (walk the static chain
      // to the routine Sema resolved).
      Activation *Target = &A;
      while (Target && Target->R != GS->getTargetRoutine())
        Target = Target->StaticLink;
      if (!Target) {
        fail(GS->getLoc(), "internal: no activation declares label " +
                               std::to_string(GS->getLabel()));
        return;
      }
      Goto.Active = true;
      Goto.Label = GS->getLabel();
      Goto.Target = Target;
      Goto.Loc = GS->getLoc();
      return;
    }
    case Stmt::Kind::Labeled:
      execStmt(A, cast<LabeledStmt>(S)->getSub());
      return;
    case Stmt::Kind::Read:
      execRead(A, cast<ReadStmt>(S));
      return;
    case Stmt::Kind::Write:
      execWrite(A, cast<WriteStmt>(S));
      return;
    case Stmt::Kind::Empty:
      return;
    }
  }

  void execCompound(Activation &A, const std::vector<StmtPtr> &Body) {
    size_t I = 0;
    while (I < Body.size()) {
      if (Failed)
        return;
      execStmt(A, Body[I].get());
      if (Failed)
        return;
      if (Goto.Active) {
        // Catch the goto if its label is an immediate child of this
        // compound within the right activation.
        if (Goto.Target == &A) {
          bool Caught = false;
          for (size_t J = 0; J < Body.size(); ++J) {
            const auto *LS = dyn_cast<LabeledStmt>(Body[J].get());
            if (LS && LS->getLabel() == Goto.Label) {
              Goto.Active = false;
              I = J;
              Caught = true;
              break;
            }
          }
          if (Caught) {
            if (!countStep(Body[I]->getLoc()))
              return;
            continue; // execute the labeled statement next
          }
        }
        return; // propagate outward
      }
      ++I;
    }
  }

  void execAssign(Activation &A, const AssignStmt *AS) {
    Value V = evalExpr(A, AS->getValue());
    if (Failed)
      return;
    if (const auto *VR = dyn_cast<VarRefExpr>(AS->getTarget())) {
      CellRef C = getCell(A, VR->getDecl(), VR->getLoc());
      if (C == NoCell)
        return;
      storeCell(A, C, std::move(V));
      return;
    }
    const auto *IE = cast<IndexExpr>(AS->getTarget());
    const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
    CellRef C = getCell(A, BaseRef->getDecl(), BaseRef->getLoc());
    if (C == NoCell)
      return;
    Value Idx = evalExpr(A, IE->getIndex());
    if (Failed)
      return;
    // Writing one element both reads and writes the array as a whole.
    observeRead(C);
    observeWrite(C);
    ArrayVal &Arr = Arena[C].V.asArray();
    if (!Arr.inBounds(Idx.asInt())) {
      fail(IE->getLoc(), "array index " + std::to_string(Idx.asInt()) +
                             " out of bounds [" + std::to_string(Arr.Lo) +
                             ".." + std::to_string(Arr.Hi) + "] for '" +
                             BaseRef->getName() + "'");
      return;
    }
    Arr.at(Idx.asInt()) = V.asInt();
    if (Opts.TrackDeps) {
      Arena[C].V.deps().mergeWith(V.deps());
      Arena[C].V.deps().mergeWith(Idx.deps());
      if (const DepSet *Ctrl = A.activeCtrlDeps())
        Arena[C].V.deps().mergeWith(*Ctrl);
    }
  }

  void execWhile(Activation &A, const WhileStmt *WS) {
    uint32_t LoopNode = enterLoopUnit(UnitKind::Loop, WS->getUnitSymbol(),
                                      WS, 0, WS->getLoc(), A);
    DepSet CondAccum;
    uint32_t Iter = 0;
    for (;;) {
      Value Cond = evalExpr(A, WS->getCond());
      if (Failed)
        break;
      if (Opts.TrackDeps)
        CondAccum.mergeWith(Cond.deps());
      if (!Cond.asBool())
        break;
      ++Iter;
      if (!countStep(WS->getLoc()))
        break;
      uint32_t IterNode = enterLoopUnit(UnitKind::Iteration,
                                        WS->getUnitSymbol(), WS, Iter,
                                        WS->getLoc(), A);
      pushCtrl(A, CondAccum);
      execStmt(A, WS->getBody());
      popCtrl(A);
      exitLoopUnit(IterNode, A);
      if (Failed || Goto.Active)
        break;
    }
    exitLoopUnit(LoopNode, A);
  }

  void execRepeat(Activation &A, const RepeatStmt *RS) {
    uint32_t LoopNode = enterLoopUnit(UnitKind::Loop, RS->getUnitSymbol(),
                                      RS, 0, RS->getLoc(), A);
    DepSet CondAccum;
    uint32_t Iter = 0;
    for (;;) {
      ++Iter;
      if (!countStep(RS->getLoc()))
        break;
      uint32_t IterNode = enterLoopUnit(UnitKind::Iteration,
                                        RS->getUnitSymbol(), RS, Iter,
                                        RS->getLoc(), A);
      pushCtrl(A, CondAccum);
      for (const StmtPtr &Sub : RS->getBody()) {
        execStmt(A, Sub.get());
        if (Failed || Goto.Active)
          break;
      }
      popCtrl(A);
      exitLoopUnit(IterNode, A);
      if (Failed || Goto.Active)
        break;
      Value Cond = evalExpr(A, RS->getCond());
      if (Failed)
        break;
      if (Opts.TrackDeps)
        CondAccum.mergeWith(Cond.deps());
      if (Cond.asBool())
        break;
    }
    exitLoopUnit(LoopNode, A);
  }

  void execFor(Activation &A, const ForStmt *FS) {
    uint32_t LoopNode = enterLoopUnit(UnitKind::Loop, FS->getUnitSymbol(),
                                      FS, 0, FS->getLoc(), A);
    const auto *VR = cast<VarRefExpr>(FS->getLoopVar());
    CellRef LoopCell = getCell(A, VR->getDecl(), VR->getLoc());
    Value From = evalExpr(A, FS->getFrom());
    Value To = evalExpr(A, FS->getTo());
    if (!Failed && LoopCell != NoCell) {
      DepSet BoundDeps;
      if (Opts.TrackDeps) {
        BoundDeps.mergeWith(From.deps());
        BoundDeps.mergeWith(To.deps());
      }
      pushCtrl(A, BoundDeps);
      int64_t I = From.asInt();
      int64_t Limit = To.asInt();
      uint32_t Iter = 0;
      while (FS->isDownward() ? I >= Limit : I <= Limit) {
        ++Iter;
        if (!countStep(FS->getLoc()))
          break;
        Value IV = Value::makeInt(I);
        if (Opts.TrackDeps)
          IV.deps() = BoundDeps;
        storeCell(A, LoopCell, std::move(IV));
        uint32_t IterNode = enterLoopUnit(UnitKind::Iteration,
                                          FS->getUnitSymbol(), FS, Iter,
                                          FS->getLoc(), A);
        execStmt(A, FS->getBody());
        exitLoopUnit(IterNode, A);
        // Leave at the limit rather than step past it, which would wrap
        // at INT64_MAX (INT64_MIN downward) and loop on.
        if (Failed || Goto.Active || I == Limit)
          break;
        I += FS->isDownward() ? -1 : 1;
      }
      popCtrl(A);
    }
    exitLoopUnit(LoopNode, A);
  }

  void execRead(Activation &A, const ReadStmt *RS) {
    for (const ExprPtr &T : RS->getTargets()) {
      if (Failed)
        return;
      if (InputPos >= Input.size()) {
        fail(RS->getLoc(), "read past end of program input");
        return;
      }
      Value V = Value::makeInt(Input[InputPos++]);
      if (const auto *VR = dyn_cast<VarRefExpr>(T.get())) {
        CellRef C = getCell(A, VR->getDecl(), VR->getLoc());
        if (C == NoCell)
          return;
        storeCell(A, C, std::move(V));
        continue;
      }
      const auto *IE = cast<IndexExpr>(T.get());
      const auto *BaseRef = cast<VarRefExpr>(IE->getBase());
      CellRef C = getCell(A, BaseRef->getDecl(), BaseRef->getLoc());
      if (C == NoCell)
        return;
      Value Idx = evalExpr(A, IE->getIndex());
      if (Failed)
        return;
      observeRead(C);
      observeWrite(C);
      ArrayVal &Arr = Arena[C].V.asArray();
      if (!Arr.inBounds(Idx.asInt())) {
        fail(IE->getLoc(), "array index " + std::to_string(Idx.asInt()) +
                               " out of bounds in read");
        return;
      }
      Arr.at(Idx.asInt()) = V.asInt();
      if (Opts.TrackDeps) {
        Arena[C].V.deps().mergeWith(Idx.deps());
        if (const DepSet *Ctrl = A.activeCtrlDeps())
          Arena[C].V.deps().mergeWith(*Ctrl);
      }
    }
  }

  void execWrite(Activation &A, const WriteStmt *WS) {
    for (const ExprPtr &Arg : WS->getArgs()) {
      Value V = evalExpr(A, Arg.get());
      if (Failed)
        return;
      if (V.isStr())
        Output += V.asStr();
      else
        Output += V.str();
    }
    if (WS->isWriteln())
      Output += '\n';
  }

  //===--------------------------------------------------------------------===//
  // Entry points
  //===--------------------------------------------------------------------===//

  ExecResult runTree() {
    resetRun();
    ExecResult Res;
    Activation Main;
    setUpMainActivation(Main);
    uint32_t RootId = enterRoot(Main);

    if (Prog.getMain()->getBody())
      execStmt(Main, Prog.getMain()->getBody());
    if (Goto.Active) {
      fail(Goto.Loc, "goto " + std::to_string(Goto.Label) +
                         " escaped the main program");
      Goto.Active = false;
    }

    exitRoot(RootId, Main, Res);
    Res.Ok = !Failed;
    Res.Error = Error;
    Res.Output = Output;
    Res.Steps = Steps;
    Res.UnitsExecuted = NodeCounter;
    flushPoolStats();
    return Res;
  }

  /// Selected execution tier for this process (cached env lookup). The
  /// environment can only force the tree tier; bytecode is the default.
  static ExecTier envTier() {
    static ExecTier T = [] {
      const char *E = std::getenv("GADT_EXEC_TIER");
      if (E && std::string_view(E) == "tree")
        return ExecTier::Tree;
      return ExecTier::Bytecode;
    }();
    return T;
  }

  /// The compiled unit to run, preferring code injected via InterpOptions
  /// (the RuntimeContext cache) when it matches this program and checking
  /// mode; otherwise the program's own compile, built once per Program and
  /// shared by every Interpreter over it. Null = unsupported, run the tree.
  const bytecode::CompiledProgram *resolveCode() {
    if (Opts.Code && Opts.Code->Prog == &Prog &&
        Opts.Code->Checked == Opts.DetectUninitialized)
      return Opts.Code.get();
    if (!ProgCodeFetched) {
      ProgCodeFetched = true;
      ProgCode = Prog.compiledCode(Opts.DetectUninitialized, [this] {
        return bytecode::compile(Prog, Opts.DetectUninitialized);
      });
    }
    return ProgCode.get();
  }

  /// Picks the executor for one entry point (run or callRoutine) and bumps
  /// its `interp.tier.*` counter: the compiled unit to run on the VM, or
  /// null for the tree walker.
  const bytecode::CompiledProgram *selectTier() {
    ExecTier Tier = Opts.Tier != ExecTier::Auto ? Opts.Tier : envTier();
    if (Tier == ExecTier::Bytecode) {
      if (const bytecode::CompiledProgram *CP = resolveCode()) {
        static obs::Counter &TierBc =
            obs::Registry::global().counter("interp.tier.bytecode");
        TierBc.add();
        if (!VS)
          VS = bytecode::createVMState();
        return CP;
      }
      static obs::Counter &TierFb =
          obs::Registry::global().counter("interp.tier.fallback");
      TierFb.add();
    }
    static obs::Counter &TierTree =
        obs::Registry::global().counter("interp.tier.tree");
    TierTree.add();
    return nullptr;
  }

  ExecResult run() {
    if (const bytecode::CompiledProgram *CP = selectTier())
      return bytecode::run(*this, *CP, *VS);
    return runTree();
  }

  CallOutcome callRoutine(const RoutineDecl *Callee, std::vector<Value> Args,
                          const std::vector<Binding> &GlobalPresets) {
    if (Args.size() != Callee->getParams().size()) {
      resetRun();
      CallOutcome Out;
      Out.Error = {SourceLoc(), "argument count mismatch calling '" +
                                    Callee->getName() + "'"};
      return Out;
    }
    // A self-contained routine ignores the presets, so the memo key is
    // the arguments alone.
    CallOutcome Served;
    if (serveFromMemo(Callee, Args, Served))
      return Served;
    resetRun();
    const bytecode::CompiledProgram *CP = selectTier();
    MemoRecording = CP && !Listener && !Opts.TrackDeps;
    if (MemoRecording)
      Memo.prepare();
    std::vector<Binding> Outputs;
    uint64_t Watermark = setUpRoutineEntry(Callee, Args, GlobalPresets);
    if (CP) {
      bytecode::callRoutine(*this, *CP, *VS, Watermark, Outputs);
      return finishRoutineEntry(std::move(Outputs));
    }
    Value Result;
    runPreparedCall(EntryCallee, Callee, nullptr, nullptr, Callee->getLoc(),
                    nullptr, &Outputs, &Result, Watermark);
    if (Goto.Active) {
      fail(Goto.Loc, "non-local goto escaped the routine under test");
      Goto.Active = false;
    }
    return finishRoutineEntry(std::move(Outputs));
  }
};

Interpreter::Interpreter(const Program &Prog, InterpOptions Opts)
    : P(std::make_unique<Impl>(Prog, Opts)) {
  // Every production path reaches the interpreter through pascal::analyze(),
  // which assigns frame slots; hand-built programs in tests may not have
  // them yet. The lazy assignment is idempotent and happens before any
  // BatchRunner thread could share the program (subjects are analyzed
  // before the pool starts), so it is not a data race in practice.
  if (!Prog.areSlotsAssigned())
    assignStorageSlots(const_cast<Program &>(Prog));
}

Interpreter::~Interpreter() = default;

void Interpreter::setInput(std::vector<int64_t> Input) {
  P->Input = std::move(Input);
}

void Interpreter::setListener(TraceListener *L) { P->Listener = L; }

ExecResult Interpreter::run() {
  obs::Span Span("interp.run", "interp");
  ExecResult R = P->run();
  Span.arg("steps", R.Steps);
  Span.arg("units", R.UnitsExecuted);
  // Per-run execution profile, unified in the central registry. The
  // references are resolved once; subsequent runs pay three relaxed adds.
  static obs::Counter &Runs = obs::Registry::global().counter("interp.runs");
  static obs::Counter &Steps =
      obs::Registry::global().counter("interp.steps");
  static obs::Counter &Units =
      obs::Registry::global().counter("interp.units");
  Runs.add();
  Steps.add(R.Steps);
  Units.add(R.UnitsExecuted);
  return R;
}

CallOutcome Interpreter::callRoutine(const std::string &Name,
                                     std::vector<Value> Args,
                                     const std::vector<Binding> &Presets) {
  const RoutineDecl *Callee = P->Prog.findRoutine(support::Symbol(Name));
  if (!Callee) {
    CallOutcome Out;
    Out.Error = {SourceLoc(), "no routine named '" + Name + "'"};
    return Out;
  }
  return P->callRoutine(Callee, std::move(Args), Presets);
}

CallOutcome Interpreter::callRoutine(const RoutineDecl *Routine,
                                     std::vector<Value> Args,
                                     const std::vector<Binding> &Presets) {
  if (!Routine) {
    CallOutcome Out;
    Out.Error = {SourceLoc(), "no routine to call"};
    return Out;
  }
  return P->callRoutine(Routine, std::move(Args), Presets);
}
