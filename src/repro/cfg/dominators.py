"""Dominator and postdominator computation (Cooper–Harvey–Kennedy).

One algorithm computes every dominance fact here: the immediate
dominator tree of "A Simple, Fast Dominance Algorithm" (Cooper, Harvey
and Kennedy).  It sweeps the nodes in reverse postorder, setting each
node's idom to the nearest common ancestor of its processed
predecessors, until nothing changes.  Dominator sets are read off that
tree: a node's set is its idom's set plus itself.  The property tests
check the tree and the sets against a brute-force path search.

Postdominators are dominators of the reversed CFG, rooted at the unique
exit node every :class:`~repro.ir.function.IRFunction` guarantees.  They
close branch regions in DualEx's execution indexing and anchor the
control-dependence computation of the static analyzer.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cfg.graph import Digraph, function_digraph


def _reverse_postorder(graph: Digraph, root: int) -> List[int]:
    """Nodes reachable from *root*, in reverse postorder of an iterative DFS."""
    postorder: List[int] = []
    seen = {root}
    stack = [(root, iter(graph.succs(root)))]
    while stack:
        node, successors = stack[-1]
        for succ in successors:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(graph.succs(succ))))
                break
        else:
            stack.pop()
            postorder.append(node)
    postorder.reverse()
    return postorder


def immediate_dominators(graph: Digraph, entry: int) -> Dict[int, int]:
    """Map each reachable node (except entry) to its immediate dominator.

    Keys come in reverse postorder, so every node's idom precedes it.
    """
    order = _reverse_postorder(graph, entry)
    position = {node: index for index, node in enumerate(order)}
    idom: Dict[int, int] = {entry: entry}
    changed = True
    while changed:
        changed = False
        for node in order[1:]:
            new_idom = None
            for pred in graph.preds(node):
                if pred not in idom:
                    continue  # unreachable, or not yet reached by the first sweep
                if new_idom is None:
                    new_idom = pred
                    continue
                # Walk both fingers up the tree to their common ancestor.
                finger = pred
                while finger != new_idom:
                    while position[finger] > position[new_idom]:
                        finger = idom[finger]
                    while position[new_idom] > position[finger]:
                        new_idom = idom[new_idom]
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    del idom[entry]
    return idom


def compute_dominators(graph: Digraph, entry: int) -> Dict[int, Set[int]]:
    """Return a map node -> set of its dominators (including itself).

    Unreachable nodes get an empty dominator set and are ignored by loop
    detection.
    """
    dominators: Dict[int, Set[int]] = {node: set() for node in graph.nodes}
    dominators[entry] = {entry}
    for node, parent in immediate_dominators(graph, entry).items():
        dominators[node] = dominators[parent] | {node}
    return dominators


def dominates(dominators: Dict[int, Set[int]], a: int, b: int) -> bool:
    """True when node *a* dominates node *b*."""
    return a in dominators.get(b, ())


# -- postdominators ------------------------------------------------------------


def reversed_digraph(graph: Digraph) -> Digraph:
    """The same nodes with every edge flipped."""
    reverse = Digraph(graph.nodes)
    for src, dst in graph.edges():
        reverse.add_edge(dst, src)
    return reverse


def compute_postdominators(graph: Digraph, exit_node: int) -> Dict[int, Set[int]]:
    """Map node -> set of its postdominators (including itself).

    Nodes with no path to *exit_node* (e.g. bodies of infinite loops)
    get an empty set, symmetric to how :func:`compute_dominators`
    treats nodes unreachable from the entry.
    """
    return compute_dominators(reversed_digraph(graph), exit_node)


def postdominates(postdominators: Dict[int, Set[int]], a: int, b: int) -> bool:
    """True when node *a* postdominates node *b*."""
    return a in postdominators.get(b, ())


def immediate_postdominators_of(graph: Digraph, exit_node: int) -> Dict[int, int]:
    """ipostdom per node, computed as idom on the reversed graph."""
    return immediate_dominators(reversed_digraph(graph), exit_node)


def immediate_postdominators(function) -> Dict[int, int]:
    """ipostdom per node of an :class:`~repro.ir.function.IRFunction`.

    Branch regions in DualEx's execution indexing close at the
    predicate's immediate postdominator, and the static analyzer's
    control-dependence pass walks the same tree.
    """
    return immediate_postdominators_of(function_digraph(function), function.exit)
