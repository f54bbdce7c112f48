//===- Interpreter.h - Tracing Pascal interpreter ---------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter for the Pascal subset with the hooks GADT's
/// tracing phase needs:
///
///  - Unit events: every routine call (and, optionally, every local loop and
///    loop iteration — the paper's debugging units) raises enter/exit events
///    carrying input and output bindings. Input/output sets are computed
///    *dynamically*: a unit's inputs are the parameters plus every non-local
///    cell it read before writing; its outputs are the var/out parameters
///    and non-local cells it wrote, plus the function result. This realizes
///    the paper's requirement that the execution tree record "parameter
///    values and value of variables which cause global side-effects within
///    the unit" without relying on static analysis.
///
///  - Dependence tracking: when enabled, every value carries the set of unit
///    executions whose outputs flowed into it (including dynamic control
///    dependences), which the dynamic slicer consumes.
///
///  - Non-local gotos execute with exit-side-effect semantics (activations
///    unwind until the declaring routine is reached), so untransformed
///    programs behave identically to their transformed versions.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_INTERPRETER_H
#define GADT_INTERP_INTERPRETER_H

#include "interp/Value.h"
#include "pascal/AST.h"
#include "support/SourceLoc.h"
#include "support/Symbols.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gadt {
namespace bytecode {
struct CompiledProgram;
} // namespace bytecode
namespace interp {

/// Which executor runs the program. Both tiers raise identical events and
/// produce byte-identical results; the bytecode tier is simply faster.
/// `Auto` defers to the `GADT_EXEC_TIER` environment variable
/// (`tree`/`bytecode`) and defaults to bytecode. Programs the bytecode
/// compiler cannot handle (non-local gotos, un-annotated hand-built ASTs,
/// encoding overflows) automatically fall back to the tree walker.
enum class ExecTier : uint8_t { Auto, Tree, Bytecode };

/// A fatal condition encountered while executing the subject program.
struct RuntimeError {
  SourceLoc Loc;
  std::string Message;
};

/// What kind of debugging unit an execution-tree node stands for.
enum class UnitKind : uint8_t { Call, Loop, Iteration };

/// A named value crossing a unit boundary. The name is an interned symbol:
/// one word per binding, and the execution tree's millions of bindings
/// share a single copy of each distinct name.
struct Binding {
  support::Symbol Name;
  Value V;
};

/// Identification of a unit execution, delivered on entry.
struct UnitStart {
  uint32_t NodeId = 0;
  UnitKind Kind = UnitKind::Call;
  /// Routine name for calls; the loop's synthesized unit name for loops and
  /// iterations. Interned — comparisons are integer compares.
  support::Symbol Name;
  const pascal::RoutineDecl *Routine = nullptr; // calls only
  const pascal::Stmt *CallStmt = nullptr;  // statement-position call site
  const pascal::Expr *CallExpr = nullptr;  // expression-position call site
  const pascal::Stmt *LoopStmt = nullptr;  // loops and iterations
  uint32_t IterIndex = 0;                  // 1-based, iterations only
  SourceLoc Loc;
};

/// Receives unit enter/exit events; the trace library's ExecTreeBuilder is
/// the implementation. A unit's bindings do not travel with its exit event:
/// the execution appends them to the listener's binding pool, inputs then
/// outputs, right before raising it.
class TraceListener {
public:
  virtual ~TraceListener();
  virtual void enterUnit(const UnitStart &Start) = 0;
  /// The pool every exiting unit's bindings are appended to.
  virtual std::vector<Binding> &bindings() = 0;
  /// Closes unit \p NodeId, whose bindings are the last \p NumIn +
  /// \p NumOut entries of bindings(): \p NumIn inputs, then the outputs.
  virtual void exitUnit(uint32_t NodeId, size_t NumIn, size_t NumOut) = 0;
};

/// Execution knobs.
struct InterpOptions {
  /// Raise unit events for local loops (paper: loops are debugging units).
  bool TraceLoops = false;
  /// Raise unit events for individual loop iterations (requires TraceLoops).
  bool TraceIterations = false;
  /// Track value dependences for dynamic slicing.
  bool TrackDeps = false;
  /// Abort with a runtime error after this many executed statements.
  uint64_t MaxSteps = 50000000;
  /// Abort when the subject's call depth exceeds this. The tree walker
  /// recurses on the host stack, so it also fails the run ("host stack
  /// exhausted") when that stack nears its end, whatever this allows.
  unsigned MaxCallDepth = 1000;
  /// Strict mode: scalar variables start out unset and reading one before
  /// assigning it is a runtime error, as is a function returning without
  /// assigning its result. (Arrays are still zero-initialized; per-element
  /// tracking is out of scope.) Off by default — standard Pascal leaves
  /// such reads undefined, and the paper's programs do not rely on them.
  bool DetectUninitialized = false;
  /// Executor selection; see ExecTier.
  ExecTier Tier = ExecTier::Auto;
  /// Precompiled bytecode for the program being run (e.g. from the
  /// RuntimeContext code cache). Used only when it matches the program and
  /// the DetectUninitialized mode; otherwise the interpreter compiles (or
  /// falls back) on its own. The referenced program must stay alive for as
  /// long as this compiled unit is used.
  std::shared_ptr<const bytecode::CompiledProgram> Code;
};

/// Result of running a whole program.
struct ExecResult {
  bool Ok = false;
  RuntimeError Error;
  /// Text produced by write/writeln.
  std::string Output;
  /// Final values of the program's global variables.
  std::vector<Binding> FinalGlobals;
  uint64_t Steps = 0;
  uint32_t UnitsExecuted = 0;
};

/// Result of invoking one routine directly (used by the T-GEN test runner
/// and by reference-program oracles).
struct CallOutcome {
  bool Ok = false;
  RuntimeError Error;
  /// var/out parameters (final values) and, for functions, the result —
  /// in declaration order, result last.
  std::vector<Binding> Outputs;
  std::string Output;
};

/// The interpreter. One instance executes one program; it may be run
/// multiple times (state is reset per run). Its run buffers come from a
/// per-thread spare and go back to the spare of the thread that destroys
/// it, so an Interpreter must be destroyed before that thread's
/// thread-local storage is: never hold one in static storage.
class Interpreter {
public:
  explicit Interpreter(const pascal::Program &P, InterpOptions Opts = {});
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Values consumed by read() statements, in order.
  void setInput(std::vector<int64_t> Input);
  /// Receives unit events; may be null. Not owned.
  void setListener(TraceListener *L);

  /// Executes the whole program.
  ExecResult run();

  /// Executes a single routine. \p Name is the simple (lowercase) routine
  /// name, looked up depth-first in the routine tree. \p Args supplies one
  /// value per parameter (values for var/out parameters initialize the
  /// callee-visible cell; pass Value() for out parameters). Globals are
  /// default-initialized, then overridden by \p GlobalPresets (matched by
  /// name against the variables of enclosing scopes) — this lets reference
  /// oracles replay a traced call of a routine with global side effects.
  ///
  /// Outputs carry the same bindings a traced execution would record
  /// (written var/out parameters, global side effects, function result),
  /// plus unwritten var parameters for checker convenience.
  ///
  /// The executor is picked as for run(): the bytecode tier unless the
  /// options or `GADT_EXEC_TIER` ask for the tree walker or the compiler
  /// rejects the program. Both produce the same outcome.
  ///
  /// Call memo: on the bytecode tier, with no listener and dependence
  /// tracking off, each call of a self-contained routine (one whose runs
  /// depend on its parameters alone; bytecode::CompiledRoutine::
  /// SelfContained) that completes without failure inside a callRoutine
  /// is recorded, keyed by the routine and its parameters' entry values.
  /// A later callRoutine with a recorded key returns the recorded outcome,
  /// identical to a fresh run's, and executes nothing: it raises no unit
  /// event and bumps no `interp.tier.*` counter, only
  /// `interp.call_memo.served` (recording bumps
  /// `interp.call_memo.recorded`). run() never records.
  CallOutcome callRoutine(const std::string &Name, std::vector<Value> Args,
                          const std::vector<Binding> &GlobalPresets = {});
  /// As above, for a routine of this interpreter's program that the caller
  /// already resolved (repeat callers skip the name search).
  CallOutcome callRoutine(const pascal::RoutineDecl *Routine,
                          std::vector<Value> Args,
                          const std::vector<Binding> &GlobalPresets = {});

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Returns a default-initialized value of type \p Ty (0 / false / zeroed
/// array with declared bounds).
Value defaultValue(const pascal::Type *Ty);

} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_INTERPRETER_H
