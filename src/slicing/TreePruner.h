//===- TreePruner.h - Execution-tree pruning --------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Projects a slice onto the execution tree (paper Section 7): given the
/// node where the user flagged an incorrect output variable, computes the
/// set of execution-tree nodes the continued algorithmic-debugging search
/// may still visit. Two variants exist — pruning by the *static* slice
/// (call sites outside the slice are discarded with their subtrees) and by
/// the *dynamic* dependences gathered during tracing (see DynamicSlicer).
/// The result is a retained-id set; the tree itself is never mutated, so a
/// session can re-slice repeatedly (paper: "a smaller and smaller set of
/// procedures") and intersect successive slices.
///
/// Retained sets are chain-closed: a node is retained only if its parent
/// is (the search never descends past a discarded node). That invariant is
/// what makes popcount-over-interval counting exact.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_SLICING_TREEPRUNER_H
#define GADT_SLICING_TREEPRUNER_H

#include "slicing/StaticSlicer.h"
#include "trace/ExecTree.h"
#include "support/NodeSet.h"

#include <cstdint>
#include <vector>

namespace gadt {
namespace slicing {

/// Where each execution-tree node's static-slice membership is decided,
/// resolved once per tree: the SDG vertices of its site. A statement call
/// has its statement's vertices, an expression call its actuals, a loop or
/// iteration node its loop statement's vertices, and the root (which has
/// no call site) its routine's vertex range. A node's site is in a slice
/// iff any of those vertices is.
class SliceSites {
public:
  SliceSites() = default;
  /// Resolves every node of \p T against \p G, the graph of the program
  /// \p T was traced from.
  SliceSites(const analysis::SDG &G, const trace::ExecTree &T);

  bool empty() const { return Sites.empty(); }
  /// True when the site of the node numbered \p Id is in \p Slice.
  bool inSlice(uint32_t Id, const StaticSlice &Slice) const {
    const Site &X = Sites[Id];
    return Slice.nodes().countRange(X.Begin, X.End) != 0 ||
           Slice.containsAny(X.Vertices);
  }

private:
  /// The site's vertices: the ids in Vertices plus the id range
  /// [Begin, End).
  struct Site {
    analysis::SDGVertexSpan Vertices;
    analysis::SDGNodeId Begin = 0, End = 0;
  };
  std::vector<Site> Sites; ///< indexed by node id
};

/// Retained node ids for a pruned subtree rooted at \p Root: \p Root itself
/// plus every descendant whose chain of call sites lies entirely inside
/// \p Slice. Loop/iteration nodes are retained when their loop statement is
/// in the slice. \p Sites must cover the tree of \p Root.
support::NodeSet pruneByStaticSlice(const trace::ExecNode *Root,
                                    const StaticSlice &Slice,
                                    const SliceSites &Sites);

/// Number of nodes in the subtree of \p Root retained by \p Kept — a
/// masked popcount over the subtree's id interval. \p Kept must be
/// chain-closed within the subtree (every set produced by the pruner, the
/// dynamic slicer, or their intersection is).
unsigned countRetained(const trace::ExecNode *Root,
                       const support::NodeSet &Kept);

/// Renders only the retained part of the subtree (paper Figures 8/9).
/// Discarded subtrees are skipped by interval jump.
std::string renderPruned(const trace::ExecNode *Root,
                         const support::NodeSet &Kept);

} // namespace slicing
} // namespace gadt

#endif // GADT_SLICING_TREEPRUNER_H
