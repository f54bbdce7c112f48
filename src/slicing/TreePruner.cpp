//===- TreePruner.cpp - Execution-tree pruning ----------------------------===//

#include "slicing/TreePruner.h"

#include <tuple>

using namespace gadt;
using namespace gadt::slicing;
using namespace gadt::trace;

SliceSites::SliceSites(const analysis::SDG &G, const ExecTree &T)
    : Sites(T.maxNodeId() + 1) {
  for (uint32_t Id = 1; Id <= T.maxNodeId(); ++Id) {
    const ExecNode *N = T.node(Id);
    analysis::SDGVertexSpan V;
    if (N->getKind() != interp::UnitKind::Call)
      V = N->getLoopStmt() ? G.stmtVertices(N->getLoopStmt()) : V;
    else if (N->getCallStmt())
      V = G.stmtVertices(N->getCallStmt());
    else if (N->getCallExpr())
      V = G.callExprVertices(N->getCallExpr());
    else
      std::tie(Sites[Id].Begin, Sites[Id].End) =
          G.vertexRange(N->getRoutine());
    // A statement's vertices are usually consecutive ids; such a group is
    // tested as one range, a few masked words, instead of id by id.
    if (!V.empty() && V.back() - V.front() + 1 == V.size())
      Sites[Id] = {{}, V.front(), V.back() + 1};
    else
      Sites[Id].Vertices = V;
  }
}

support::NodeSet gadt::slicing::pruneByStaticSlice(const ExecNode *Root,
                                                   const StaticSlice &Slice,
                                                   const SliceSites &Sites) {
  support::NodeSet Kept;
  if (!Root)
    return Kept;
  Kept = support::NodeSet(Root->subtreeEnd());
  Kept.insert(Root->getId());
  // Preorder interval scan: a node is retained iff its parent is and its
  // own site is in the slice; a discarded node's whole subtree is skipped
  // by jumping its interval.
  uint32_t End = Root->subtreeEnd();
  for (uint32_t Id = Root->getId() + 1; Id < End;) {
    const ExecNode *N = Root->nodeAt(Id);
    if (Kept.contains(N->getParentId()) && Sites.inSlice(Id, Slice)) {
      Kept.insert(Id);
      ++Id;
    } else {
      Id += N->subtreeSize();
    }
  }
  return Kept;
}

unsigned gadt::slicing::countRetained(const ExecNode *Root,
                                      const support::NodeSet &Kept) {
  if (!Root || !Kept.contains(Root->getId()))
    return 0;
  return static_cast<unsigned>(
      Kept.countRange(Root->getId(), Root->subtreeEnd()));
}

std::string gadt::slicing::renderPruned(const ExecNode *Root,
                                        const support::NodeSet &Kept) {
  std::string Out;
  if (!Root || !Kept.contains(Root->getId()))
    return Out;
  // Same indented preorder rendering as ExecTree::str(), restricted to the
  // retained chain; a non-retained node hides its whole subtree.
  std::vector<uint32_t> OpenEnds;
  uint32_t End = Root->subtreeEnd();
  for (uint32_t Id = Root->getId(); Id < End;) {
    const ExecNode *N = Root->nodeAt(Id);
    if (!Kept.contains(Id)) {
      Id += N->subtreeSize();
      continue;
    }
    while (!OpenEnds.empty() && Id >= OpenEnds.back())
      OpenEnds.pop_back();
    Out.append(OpenEnds.size() * 2, ' ');
    Out += N->signature();
    Out += '\n';
    OpenEnds.push_back(N->subtreeEnd());
    ++Id;
  }
  return Out;
}
