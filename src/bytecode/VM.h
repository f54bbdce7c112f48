//===- VM.h - Bytecode dispatch loop ----------------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register VM executing bytecode::CompiledProgram over the shared
/// interp::ExecState substrate. Internal to the interpreter — the public
/// surface is InterpOptions::Tier.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_BYTECODE_VM_H
#define GADT_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "interp/ExecState.h"

namespace gadt {
namespace bytecode {

/// Reusable VM stacks (register file, frame stack, activation pool). Owned
/// by the Interpreter and carried across runs so repeated executions reuse
/// warmed allocations, mirroring the tree walker's pooled cells.
struct VMState;

VMState *createVMState();
void destroyVMState(VMState *);
/// Releases every value \p VS holds from its last run, keeping the stacks'
/// capacity, and returns the bytes that capacity takes — so an idle state
/// can be kept for the next interpreter on the thread.
size_t clearVMState(VMState &VS);

/// Executes the whole program. \p S must be freshly reset by the caller's
/// entry point *except* for Arena/FreeList pool state; this mirrors
/// the tree walker's run() and produces an identical event stream.
interp::ExecResult run(interp::ExecState &S, const CompiledProgram &CP,
                       VMState &VS);

/// Executes one routine directly: the callee activation \p S.EntryCallee,
/// set up by ExecState::setUpRoutineEntry with unit watermark
/// \p Watermark, runs as the VM's base frame. Raises the same events and
/// collects the same \p Outputs as the tree walker's callRoutine.
void callRoutine(interp::ExecState &S, const CompiledProgram &CP,
                 VMState &VS, uint64_t Watermark,
                 std::vector<interp::Binding> &Outputs);

} // namespace bytecode
} // namespace gadt

#endif // GADT_BYTECODE_VM_H
