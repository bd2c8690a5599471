//===- DepGraph.cpp - Data dependence graph --------------------------------===//
//
// Part of the mvec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "deps/DepGraph.h"

#include <algorithm>
#include <cassert>

using namespace mvec;

const char *mvec::depKindName(DepKind Kind) {
  switch (Kind) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  }
  return "?";
}

std::string DepGraph::str() const {
  std::string Out;
  for (const DepEdge &E : Edges) {
    Out += 'S';
    Out += std::to_string(E.Src);
    Out += " -> S";
    Out += std::to_string(E.Dst);
    Out += " [";
    Out += depKindName(E.Kind);
    Out += ", ";
    if (E.Level == 0) {
      Out += "independent";
    } else {
      Out += "level ";
      Out += std::to_string(E.Level);
    }
    Out += ", ";
    Out += E.Variable;
    Out += "]\n";
  }
  return Out;
}

namespace {

/// Iterative Tarjan SCC.
class TarjanSCC {
public:
  TarjanSCC(unsigned NumNodes, const std::vector<std::vector<unsigned>> &Adj)
      : Adj(Adj), Index(NumNodes, UINT32_MAX), LowLink(NumNodes, 0),
        OnStack(NumNodes, false) {
    for (unsigned N = 0; N != NumNodes; ++N)
      if (Index[N] == UINT32_MAX)
        strongConnect(N);
  }

  std::vector<std::vector<unsigned>> takeComponents() {
    return std::move(Components);
  }

private:
  void strongConnect(unsigned Root) {
    // Iterative DFS with an explicit frame stack.
    struct Frame {
      unsigned Node;
      size_t NextEdge;
    };
    std::vector<Frame> Frames;
    Frames.push_back({Root, 0});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.NextEdge < Adj[F.Node].size()) {
        unsigned Succ = Adj[F.Node][F.NextEdge++];
        if (Index[Succ] == UINT32_MAX) {
          Index[Succ] = LowLink[Succ] = NextIndex++;
          Stack.push_back(Succ);
          OnStack[Succ] = true;
          Frames.push_back({Succ, 0});
        } else if (OnStack[Succ]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], Index[Succ]);
        }
        continue;
      }
      // Finished this node.
      unsigned Node = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        LowLink[Frames.back().Node] =
            std::min(LowLink[Frames.back().Node], LowLink[Node]);
      if (LowLink[Node] == Index[Node]) {
        std::vector<unsigned> Component;
        while (true) {
          unsigned Popped = Stack.back();
          Stack.pop_back();
          OnStack[Popped] = false;
          Component.push_back(Popped);
          if (Popped == Node)
            break;
        }
        std::sort(Component.begin(), Component.end());
        Components.push_back(std::move(Component));
      }
    }
  }

  const std::vector<std::vector<unsigned>> &Adj;
  std::vector<unsigned> Index, LowLink;
  std::vector<bool> OnStack;
  std::vector<unsigned> Stack;
  unsigned NextIndex = 0;
  std::vector<std::vector<unsigned>> Components;
};

} // namespace

std::vector<std::vector<unsigned>>
mvec::stronglyConnectedComponents(const DepGraph &Graph, unsigned MinLevel) {
  std::vector<std::vector<unsigned>> Adj(Graph.NumNodes);
  for (const DepEdge &E : Graph.Edges) {
    if (E.Level != 0 && E.Level < MinLevel)
      continue;
    if (E.Src == E.Dst)
      continue; // self edges do not affect SCC membership
    Adj[E.Src].push_back(E.Dst);
  }
  TarjanSCC Tarjan(Graph.NumNodes, Adj);
  std::vector<std::vector<unsigned>> Components = Tarjan.takeComponents();

  // Tarjan emits components in reverse topological order; reverse, then
  // stable-sort independent components by their smallest statement index so
  // generated code follows source order whenever dependences allow.
  std::reverse(Components.begin(), Components.end());

  // Verify/repair topological order with a stable insertion: build a
  // component index per node.
  std::vector<unsigned> CompOf(Graph.NumNodes, 0);
  for (unsigned C = 0; C != Components.size(); ++C)
    for (unsigned N : Components[C])
      CompOf[N] = C;

  // Kahn's algorithm over the condensation with a min-heap keyed by the
  // smallest statement index, for deterministic source-order-friendly
  // output.
  unsigned NumComps = Components.size();
  std::vector<std::vector<unsigned>> CompAdj(NumComps);
  std::vector<unsigned> InDegree(NumComps, 0);
  for (const DepEdge &E : Graph.Edges) {
    if (E.Level != 0 && E.Level < MinLevel)
      continue;
    unsigned A = CompOf[E.Src], B = CompOf[E.Dst];
    if (A == B)
      continue;
    CompAdj[A].push_back(B);
  }
  for (unsigned C = 0; C != NumComps; ++C) {
    std::sort(CompAdj[C].begin(), CompAdj[C].end());
    CompAdj[C].erase(std::unique(CompAdj[C].begin(), CompAdj[C].end()),
                     CompAdj[C].end());
  }
  for (unsigned C = 0; C != NumComps; ++C)
    for (unsigned Succ : CompAdj[C])
      ++InDegree[Succ];

  std::vector<unsigned> Ready;
  for (unsigned C = 0; C != NumComps; ++C)
    if (InDegree[C] == 0)
      Ready.push_back(C);
  auto BySmallestStmt = [&Components](unsigned A, unsigned B) {
    return Components[A].front() > Components[B].front();
  };
  std::make_heap(Ready.begin(), Ready.end(), BySmallestStmt);

  std::vector<std::vector<unsigned>> Ordered;
  Ordered.reserve(NumComps);
  while (!Ready.empty()) {
    std::pop_heap(Ready.begin(), Ready.end(), BySmallestStmt);
    unsigned C = Ready.back();
    Ready.pop_back();
    Ordered.push_back(Components[C]);
    for (unsigned Succ : CompAdj[C]) {
      if (--InDegree[Succ] == 0) {
        Ready.push_back(Succ);
        std::push_heap(Ready.begin(), Ready.end(), BySmallestStmt);
      }
    }
  }
  assert(Ordered.size() == NumComps && "condensation had a cycle?");
  return Ordered;
}

bool mvec::hasSelfRecurrence(const DepGraph &Graph, unsigned Node,
                             unsigned MinLevel) {
  for (const DepEdge &E : Graph.Edges)
    if (E.Src == Node && E.Dst == Node && E.Level >= MinLevel &&
        E.Level != 0)
      return true;
  return false;
}
