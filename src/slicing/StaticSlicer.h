//===- StaticSlicer.h - Two-phase interprocedural slicing -------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward interprocedural slicing over the system dependence graph using
/// the Horwitz-Reps-Binkley two-phase algorithm: phase 1 walks backwards
/// without descending into callees (summary edges substitute for them),
/// phase 2 descends into callees without re-ascending. The result is a
/// context-sensitive static slice — the machinery behind the paper's
/// Section 4 and Section 7.
///
/// Both phases run over the SDG's CSR in-edge arrays with a dense id
/// bitset for the visited set, so a slice costs two adjacency sweeps and
/// no node allocations. A StaticSlice is just that id set: every
/// statement, call or routine membership question is a bit test over the
/// vertex groups the SDG indexes when it is built.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SLICING_STATICSLICER_H
#define GADT_SLICING_STATICSLICER_H

#include "analysis/SDG.h"
#include "support/NodeSet.h"

#include <string>
#include <vector>

namespace gadt {
namespace slicing {

/// The result of a slice: the SDG vertex ids in the slice. Statement,
/// call and routine membership are id queries against the graph's vertex
/// groups.
class StaticSlice {
public:
  /// An empty slice attached to no graph.
  StaticSlice() = default;

  /// True when any of \p Vs is in the slice.
  bool containsAny(analysis::SDGVertexSpan Vs) const {
    for (analysis::SDGNodeId V : Vs)
      if (Ids.contains(V))
        return true;
    return false;
  }
  /// True when any vertex of \p S (statement, predicate or one of its
  /// actuals) is in the slice.
  bool containsStmt(const pascal::Stmt *S) const {
    return G && containsAny(G->stmtVertices(S));
  }
  /// True when any vertex of routine \p R is in the slice.
  bool containsRoutine(const pascal::RoutineDecl *R) const {
    if (!G)
      return false;
    auto [Begin, End] = G->vertexRange(R);
    return Ids.countRange(Begin, End) != 0;
  }
  /// True when the specific expression-position call \p E has a vertex in
  /// the slice (finer-grained than containsStmt for statements that make
  /// several calls).
  bool containsCallExpr(const pascal::Expr *E) const {
    return G && containsAny(G->callExprVertices(E));
  }

  /// The sliced vertex ids (indices into graph()->nodes()).
  const support::NodeSet &nodes() const { return Ids; }
  /// The SDG the ids refer to; null for a default-constructed slice.
  const analysis::SDG *graph() const { return G; }

  size_t size() const { return Count; }

private:
  friend StaticSlice
  backwardSlice(const analysis::SDG &,
                const std::vector<analysis::SDGNodeId> &);
  friend StaticSlice sliceFromNodes(const analysis::SDG &,
                                    support::NodeSet);

  const analysis::SDG *G = nullptr;
  support::NodeSet Ids;
  size_t Count = 0;
};

/// Computes the backward slice of \p G from \p Criteria.
StaticSlice backwardSlice(const analysis::SDG &G,
                          const std::vector<analysis::SDGNodeId> &Criteria);

/// Wraps an already-computed id set as a slice over \p G. The incremental
/// runtime uses this to replay a memoized slice onto a rebuilt graph after
/// shifting its ids by the per-routine range deltas; the caller is
/// responsible for the set actually being the backward closure of its
/// criterion in \p G.
StaticSlice sliceFromNodes(const analysis::SDG &G, support::NodeSet Ids);

/// Slice with respect to output variable \p VarName of routine \p R — the
/// criterion the debugger produces when the user flags one erroneous output
/// (paper Section 7). The formal-out vertex of the variable anchors the
/// slice. Returns an empty slice when no such vertex exists.
StaticSlice sliceOnRoutineOutput(const analysis::SDG &G,
                                 const pascal::RoutineDecl *R,
                                 const std::string &VarName);

/// Slice with respect to the value of global \p VarName at the end of the
/// program (the classic Weiser criterion of the paper's Figure 2).
StaticSlice sliceOnProgramVar(const analysis::SDG &G,
                              const pascal::Program &P,
                              const std::string &VarName);

} // namespace slicing
} // namespace gadt

#endif // GADT_SLICING_STATICSLICER_H
