"""Whole-graph reference queries over a dependency graph's adjacency lists.

The graph answers reachability from its closure rows and refuses every
cycle-closing edge, so nothing in the library walks the adjacency lists.
Tests and benchmarks hold the graph to these walks instead
(benchmarks import this module as ``tests.ce.graph_reference``).
"""

from typing import Dict, Iterator, List, Tuple

from repro.ce.depgraph import DependencyGraph, TxNode


def has_path_dfs(src: TxNode, dst: TxNode) -> bool:
    """Reachability ``src ->* dst`` by DFS over ``out_edges`` (the seed
    implementation of ``has_path``)."""
    if src is dst:
        return True
    stack = [src]
    seen = {id(src)}
    while stack:
        current = stack.pop()
        for neighbor in current.out_edges:
            if neighbor is dst:
                return True
            if id(neighbor) not in seen:
                seen.add(id(neighbor))
                stack.append(neighbor)
    return False


def is_acyclic(graph: DependencyGraph) -> bool:
    """Full-graph cycle check by iterative DFS from every node."""
    white, grey, black = 0, 1, 2
    color: Dict[int, int] = {}
    for root in graph.nodes.values():
        if color.get(id(root), white) != white:
            continue
        stack: List[Tuple[TxNode, Iterator[TxNode]]] = [
            (root, iter(root.out_edges))]
        color[id(root)] = grey
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = color.get(id(child), white)
                if state == grey:
                    return False
                if state == white:
                    color[id(child)] = grey
                    stack.append((child, iter(child.out_edges)))
                    advanced = True
                    break
            if not advanced:
                color[id(node)] = black
                stack.pop()
    return True


def edge_count(graph: DependencyGraph) -> int:
    """Edge labels out of the graph's registered nodes."""
    return sum(len(labels) for node in graph.nodes.values()
               for labels in node.out_edges.values())
