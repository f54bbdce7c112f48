//===- VM.cpp - Bytecode dispatch loop ------------------------------------===//
//
// Executes bytecode::CompiledProgram over interp::ExecState. Every handler
// is a transliteration of the corresponding tree-walker step (see
// interp/Interpreter.cpp) — reads, writes, dependence merges and unit
// events happen in the same order, which keeps transcripts byte-identical.
//
// On a runtime failure the VM unwinds its frame stack top-down, raising the
// same iteration/loop/call exit events the recursive walker's early returns
// produce (the walker still runs every exitLoopUnit/finishCallUnit on its
// way out).
//
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

#include "interp/Arith.h"

using namespace gadt;
using namespace gadt::bytecode;
using namespace gadt::interp;

namespace {

/// A loop statement currently executing (while/repeat/for).
struct LoopState {
  const LoopInfo *LI = nullptr;
  uint32_t LoopNode = 0; ///< loop unit node id (0 = untraced)
  uint32_t IterNode = 0; ///< current iteration unit (0 = between iterations)
  uint32_t Iter = 0;
  /// While/repeat: accumulated condition deps; for: the bound deps.
  DepSet CondAccum;
  CellRef ForCell = NoCell;
  int64_t I = 0;
  int64_t Limit = 0;
  /// Ctrl-stack depths to restore when unwinding out of an iteration /
  /// out of the loop (mirrors where the tree walker's popCtrl calls sit).
  uint32_t CtrlIterDepth = 0;
  uint32_t CtrlLoopDepth = 0;
};

/// One VM call frame.
struct VMFrame {
  uint32_t RoutineIdx = 0;
  uint32_t PC = 0;
  uint32_t RegBase = 0;
  uint32_t NodeId = 0;
  uint16_t Dest = NoDest; ///< caller register receiving the result
  Activation *Act = nullptr;
  Activation *CallerAct = nullptr;
  size_t LoopBase = 0; ///< VMState::Loops size at frame entry
  const pascal::RoutineDecl *Callee = nullptr;
};

} // namespace

namespace gadt {
namespace bytecode {

/// Stacks reused across runs (capacity stays warm, mirroring the pooled
/// cell arena). Frames/activations are indexed, never popped, so their
/// vectors keep their capacity and the activation pointers stay stable.
struct VMState {
  std::vector<Value> Regs;
  std::vector<VMFrame> Frames;
  size_t Depth = 0;
  std::vector<std::unique_ptr<Activation>> ActPool;
  std::vector<LoopState> Loops;
  std::vector<CellRef> RefScratch;

  VMFrame &frameAt(size_t I) {
    if (Frames.size() <= I)
      Frames.resize(I + 1);
    return Frames[I];
  }
  Activation &actAt(size_t I) {
    while (ActPool.size() <= I)
      ActPool.push_back(std::make_unique<Activation>());
    return *ActPool[I];
  }
};

VMState *createVMState() { return new VMState(); }
void destroyVMState(VMState *VS) { delete VS; }

size_t clearVMState(VMState &VS) {
  for (Value &V : VS.Regs)
    V.poolReset();
  VS.Depth = 0;
  VS.Loops.clear();
  VS.RefScratch.clear();
  size_t Bytes = VS.Regs.capacity() * sizeof(Value) +
                 VS.Frames.capacity() * sizeof(VMFrame) +
                 VS.Loops.capacity() * sizeof(LoopState) +
                 VS.RefScratch.capacity() * sizeof(CellRef);
  for (const std::unique_ptr<Activation> &A : VS.ActPool) {
    A->CtrlStack.clear();
    Bytes += sizeof(Activation) + A->Slots.capacity() * sizeof(CellRef) +
             A->CtrlStack.capacity() * sizeof(DepSet);
  }
  return Bytes;
}

} // namespace bytecode
} // namespace gadt

namespace {

/// Resolves a cell operand against \p A's static chain. Does not observe.
/// Failures here mirror the tree walker's getCell "internal:" error — they
/// cannot occur for analyzed programs.
CellRef resolveCell(ExecState &S, Activation *A, uint16_t Operand) {
  unsigned Hops = (Operand >> CellHopsShift) & MaxCellHops;
  unsigned Slot = Operand & CellSlotMask;
  Activation *Cur = A;
  for (; Hops && Cur; --Hops)
    Cur = Cur->StaticLink;
  if (Cur && Slot < Cur->Slots.size()) {
    CellRef H = Cur->Slots[Slot];
    if (H != NoCell)
      return H;
  }
  std::string Name =
      Cur && Slot < Cur->R->getSlotDecls().size()
          ? Cur->R->getSlotDecls()[Slot]->getName()
          : std::string("<slot>");
  S.fail(SourceLoc(), "internal: no storage for variable '" + Name + "'");
  return NoCell;
}

/// Fetches a source operand: a register, a constant, or a frame cell (the
/// cell path performs the observeRead the tree walker's VarRef evaluation
/// would). Returns null after a resolution failure.
const Value *fetchSrc(ExecState &S, const CompiledProgram &CP,
                      Activation *Act, Value *Regs, uint16_t Operand) {
  switch (Operand & OpModeMask) {
  case OpReg:
    return &Regs[Operand];
  case OpConst:
    return &CP.Consts[Operand & ~OpModeMask];
  default: {
    CellRef H = resolveCell(S, Act, Operand);
    if (H == NoCell)
      return nullptr;
    S.observeRead(H);
    return &S.Arena[H].V;
  }
  }
}

/// Raises the exit events a failure abandons in the current frame:
/// innermost loops first, iteration before loop, with the control stack
/// truncated to where each tree-walker popCtrl would have left it.
void unwindLoops(ExecState &S, VMState &VS, VMFrame &F) {
  while (VS.Loops.size() > F.LoopBase) {
    LoopState &LS = VS.Loops.back();
    Activation &A = *F.Act;
    if (S.Opts.TrackDeps && A.CtrlStack.size() > LS.CtrlIterDepth)
      A.CtrlStack.resize(LS.CtrlIterDepth);
    S.exitLoopUnit(LS.IterNode, A);
    if (S.Opts.TrackDeps && A.CtrlStack.size() > LS.CtrlLoopDepth)
      A.CtrlStack.resize(LS.CtrlLoopDepth);
    S.exitLoopUnit(LS.LoopNode, A);
    VS.Loops.pop_back();
  }
}

/// Unwind after a failure: finish abandoned loops and calls exactly as the
/// recursive walker's early returns would, innermost first. Leaves Depth at
/// 1 — run() closes the root unit.
void unwindAll(ExecState &S, VMState &VS, VMFrame *F) {
  for (;;) {
    unwindLoops(S, VS, *F);
    if (VS.Depth == 1)
      return;
    --S.CallDepth;
    Value Result;
    S.finishCallUnit(*F->Act, F->Callee, F->NodeId, F->CallerAct, nullptr,
                     &Result);
    S.freeActivationCells(*F->Act);
    --VS.Depth;
    F = &VS.Frames[VS.Depth - 1];
  }
}

/// Evaluates a fused comparison kind (the A field of CmpBr/CmpWhile).
bool evalCmp(Op K, const Value &L, const Value &R) {
  switch (K) {
  case Op::EqI:
    return L.asInt() == R.asInt();
  case Op::NeI:
    return L.asInt() != R.asInt();
  case Op::EqB:
    return L.asBool() == R.asBool();
  case Op::NeB:
    return L.asBool() != R.asBool();
  case Op::Lt:
    return L.asInt() < R.asInt();
  case Op::Le:
    return L.asInt() <= R.asInt();
  case Op::Gt:
    return L.asInt() > R.asInt();
  case Op::Ge:
    return L.asInt() >= R.asInt();
  case Op::AndB:
    return L.asBool() && R.asBool();
  case Op::OrB:
    return L.asBool() || R.asBool();
  default:
    return false; // unreachable: fusion only encodes the kinds above
  }
}

/// Evaluates a fused binop kind (the Aux field of BinStore). Only
/// non-failing kinds are ever encoded (never Div/Mod).
Value evalBin(Op K, const Value &L, const Value &R) {
  switch (K) {
  case Op::Add:
    return Value::makeInt(arith::add(L.asInt(), R.asInt()));
  case Op::Sub:
    return Value::makeInt(arith::sub(L.asInt(), R.asInt()));
  case Op::Mul:
    return Value::makeInt(arith::mul(L.asInt(), R.asInt()));
  default:
    return Value::makeBool(evalCmp(K, L, R));
  }
}

/// The interpreter loop: re-checks S.Failed, then fetches one instruction
/// and switches to its handler (bytecode/VMOps.inc).
template <bool TrackDeps>
void dispatchLoop(ExecState &S, const CompiledProgram &CP, VMState &VS) {
  VMFrame *F = &VS.Frames[VS.Depth - 1];
  const Instr *Code = CP.Routines[F->RoutineIdx].Code.data();
  uint32_t PC = F->PC;
  Value *Regs = VS.Regs.data() + F->RegBase;
  Activation *Act = F->Act;

  auto reload = [&] {
    F = &VS.Frames[VS.Depth - 1];
    Code = CP.Routines[F->RoutineIdx].Code.data();
    PC = F->PC;
    Regs = VS.Regs.data() + F->RegBase;
    Act = F->Act;
  };

  for (;;) {
    if (S.Failed) [[unlikely]] {
      unwindAll(S, VS, F);
      return;
    }

    const Instr &I = Code[PC++];
    switch (I.Code) {
// clang-format off
#define GADT_OP(name) case Op::name: {
#define GADT_OP_END } break;
#define GADT_NEXT break
// clang-format on
#include "bytecode/VMOps.inc"
#undef GADT_OP
#undef GADT_OP_END
#undef GADT_NEXT
    }
  }
}

/// Runs the dispatch loop from the top frame until the base frame
/// returns (or a failure unwinds to it).
void dispatch(ExecState &S, const CompiledProgram &CP, VMState &VS) {
  if (S.Opts.TrackDeps)
    dispatchLoop<true>(S, CP, VS);
  else
    dispatchLoop<false>(S, CP, VS);
}

/// Makes \p Act, running routine \p RoutineIdx as unit \p NodeId, the
/// VM's only frame.
void enterBaseFrame(const CompiledProgram &CP, VMState &VS,
                    uint32_t RoutineIdx, Activation &Act, uint32_t NodeId) {
  VS.Depth = 1;
  VS.Loops.clear();
  VMFrame &F = VS.frameAt(0);
  F.RoutineIdx = RoutineIdx;
  F.PC = 0;
  F.RegBase = 0;
  F.Dest = NoDest;
  F.Act = &Act;
  F.CallerAct = nullptr;
  F.LoopBase = 0;
  F.Callee = CP.Routines[RoutineIdx].Routine;
  F.NodeId = NodeId;
  if (VS.Regs.size() < CP.Routines[RoutineIdx].NumRegs)
    VS.Regs.resize(CP.Routines[RoutineIdx].NumRegs);
}

} // namespace

ExecResult bytecode::run(ExecState &S, const CompiledProgram &CP,
                         VMState &VS) {
  S.reset();
  ExecResult Res;

  Activation &Main = VS.actAt(0);
  S.setUpMainActivation(Main);
  uint32_t RootId = S.enterRoot(Main);
  enterBaseFrame(CP, VS, 0, Main, RootId);
  dispatch(S, CP, VS);

  S.exitRoot(RootId, Main, Res);
  Res.Ok = !S.Failed;
  Res.Error = S.Error;
  Res.Output = S.Output;
  Res.Steps = S.Steps;
  Res.UnitsExecuted = S.NodeCounter;
  S.flushPoolStats();
  return Res;
}

void bytecode::callRoutine(ExecState &S, const CompiledProgram &CP,
                           VMState &VS, uint64_t Watermark,
                           std::vector<Binding> &Outputs) {
  Activation &Act = S.EntryCallee;
  const pascal::RoutineDecl *Callee = Act.R;
  uint32_t Idx = 0;
  while (Idx != CP.Routines.size() && CP.Routines[Idx].Routine != Callee)
    ++Idx;
  if (Idx == CP.Routines.size()) {
    S.fail(Callee->getLoc(), "internal: routine '" + Callee->getName() +
                                 "' is not in the compiled program");
    return;
  }
  // The frame stack may grow during dispatch; keep the node id locally.
  uint32_t NodeId =
      S.beginCallUnit(Act, Callee, nullptr, nullptr, Callee->getLoc(),
                      Watermark, CP.Routines[Idx].SelfContained);
  enterBaseFrame(CP, VS, Idx, Act, NodeId);
  ++S.CallDepth;
  dispatch(S, CP, VS);
  --S.CallDepth;
  Value Result;
  S.finishCallUnit(Act, Callee, NodeId, nullptr, &Outputs, &Result);
}
