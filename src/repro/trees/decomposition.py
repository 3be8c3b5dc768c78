"""Tree decompositions (Section 4.1).

A tree decomposition of a tree-network ``T`` is a rooted tree ``H`` over
the same vertex set such that

1. (LCA property) every path in ``T`` through vertices ``x`` and ``y``
   also passes through ``LCA_H(x, y)``; equivalently, the minimum-depth
   ``H``-node on any ``T``-path is unique, and
2. (component property) for every node ``z``, the set ``C(z)`` of ``z``
   and its ``H``-descendants induces a connected subtree of ``T``.

Its efficacy is measured by its *depth* and its *pivot size*
``theta = max_z |Gamma[C(z)]|``.  This module provides the decomposition
container, pivot-set computation, capture nodes, and a full verifier used
throughout the test suite.
"""
from __future__ import annotations

import functools
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.demand import DemandInstance
from repro.core.types import Vertex
from repro.trees.tree import TreeNetwork


class InvalidDecompositionError(ValueError):
    """Raised when a claimed tree decomposition violates its properties."""


class TreeDecomposition:
    """A rooted tree ``H`` over the vertex set of a tree-network ``T``.

    Depths (root at depth 1) come from one climb up the parent map;
    the climb also rejects a parent map with a cycle or an unknown
    parent, so ``H`` is a single tree.  The :attr:`children` lists are
    built on first use.
    """

    def __init__(self, network: TreeNetwork, parent: Dict[Vertex, Optional[Vertex]]):
        self.network = network
        self.parent = dict(parent)
        roots = [v for v, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise InvalidDecompositionError(
                f"expected exactly one root, found {len(roots)}"
            )
        self.root = roots[0]
        if set(self.parent) != set(network.vertices):
            raise InvalidDecompositionError(
                "decomposition must cover exactly the network's vertices"
            )
        self.depth = self._depths()
        self._pivot_sets: Optional[Dict[Vertex, FrozenSet[Vertex]]] = None

    def for_network(self, network: TreeNetwork) -> "TreeDecomposition":
        """This decomposition bound to *network*, a network of the same
        :meth:`~repro.trees.tree.TreeNetwork.shape_key` (any id).

        A builder's output is a function of the shape key alone, so the
        twin equals a fresh build on *network*.  It shares this
        object's parent, depth, children and pivot-set dicts; neither
        object may mutate them.
        """
        if network.shape_key() != self.network.shape_key():
            raise ValueError(
                f"network {network.network_id} differs in shape from "
                f"network {self.network.network_id}"
            )
        twin = object.__new__(TreeDecomposition)
        twin.__dict__.update(self.__dict__)
        twin.network = network
        return twin

    def _depths(self) -> Dict[Vertex, int]:
        """Each node's depth, from a memoized climb to the root.

        The builders list parents before children, so each climb is
        one step; a chain longer than ``H`` has nodes is a cycle.
        """
        parent = self.parent
        depth: Dict[Vertex, int] = {}
        for v, p in parent.items():
            if v in depth:
                continue
            chain = [v]
            while p is not None and p not in depth:
                if len(chain) > len(parent):
                    raise InvalidDecompositionError("cycle in decomposition tree")
                if p not in parent:
                    raise InvalidDecompositionError(f"unknown parent {p}")
                chain.append(p)
                p = parent[p]
            d = 0 if p is None else depth[p]
            for u in reversed(chain):
                d += 1
                depth[u] = d
        return depth

    @functools.cached_property
    def children(self) -> Dict[Vertex, List[Vertex]]:
        """Each node's children in ``H``, ascending."""
        children: Dict[Vertex, List[Vertex]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                children[p].append(v)
        for kids in children.values():
            kids.sort()
        return children

    # ------------------------------------------------------------------
    @property
    def max_depth(self) -> int:
        """Depth of ``H`` (root at depth 1, per the paper)."""
        return max(self.depth.values())

    def is_ancestor_or_self(self, z: Vertex, x: Vertex) -> bool:
        """Whether ``x in C(z)``, i.e. ``z`` is ``x`` or an ancestor of it."""
        for _ in range(self.depth[x] - self.depth[z]):
            x = self.parent[x]  # type: ignore[assignment]
        return x == z

    def component_of(self, z: Vertex) -> FrozenSet[Vertex]:
        """``C(z)``: ``z`` together with its descendants in ``H``."""
        out = []
        stack = [z]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        return frozenset(out)

    def ancestors_or_self(self, x: Vertex) -> List[Vertex]:
        """``x`` and all its ancestors, bottom-up."""
        out = [x]
        p = self.parent[x]
        while p is not None:
            out.append(p)
            p = self.parent[p]
        return out

    # ------------------------------------------------------------------
    # Pivot sets
    # ------------------------------------------------------------------
    def _compute_pivot_sets(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """All pivot sets ``chi(z) = Gamma[C(z)]`` in ``O(#edges * depth)``.

        By the LCA property the endpoints of a network edge ``(x, y)``
        are ancestor-related in ``H``.  With ``y`` the ancestor,
        ``y in chi(z)`` exactly for the ``z`` on the ``H``-path from
        ``x`` up to, but excluding, ``y``; ``x`` lies in ``C(z)`` for
        every ``z`` whose component holds ``y``, so it is nobody's
        pivot.  Each edge is walked once, from its deeper endpoint; an edge
        whose endpoints share a depth walks past the root and raises.
        """
        parent, depth = self.parent, self.depth
        # Lists suffice: C(z) is connected and y lies outside it, so only
        # one edge joins them and no pair (z, y) is met twice.
        pivots: Dict[Vertex, List[Vertex]] = {v: [] for v in parent}
        vertices, adjacency = self.network.shape_key()
        for x, nbrs in zip(vertices, adjacency):
            dx = depth[x]
            for y in nbrs:
                if depth[y] > dx:
                    continue
                z: Optional[Vertex] = x
                while z != y:
                    if z is None:
                        raise InvalidDecompositionError(
                            f"edge ({x}, {y}) joins vertices that are not "
                            f"ancestor-related in the decomposition"
                        )
                    pivots[z].append(y)
                    z = parent[z]
        return {v: frozenset(s) for v, s in pivots.items()}

    def pivot_set(self, z: Vertex) -> FrozenSet[Vertex]:
        """``chi(z)``: the neighborhood of ``C(z)`` in the network."""
        if self._pivot_sets is None:
            self._pivot_sets = self._compute_pivot_sets()
        return self._pivot_sets[z]

    @property
    def pivot_size(self) -> int:
        """``theta``: the maximum pivot-set cardinality over all nodes."""
        if self._pivot_sets is None:
            self._pivot_sets = self._compute_pivot_sets()
        return max(len(s) for s in self._pivot_sets.values())

    # ------------------------------------------------------------------
    # Capture nodes
    # ------------------------------------------------------------------
    def capture_node(self, d: DemandInstance) -> Vertex:
        """``mu(d)``: the least-depth ``H``-node on ``path(d)``.

        Uniqueness is guaranteed by the LCA property of tree
        decompositions (and asserted by :meth:`verify`).
        """
        return min(d.path_vertex_seq, key=lambda v: (self.depth[v], v))

    def capture_node_of_path(self, path_vertices: Sequence[Vertex]) -> Vertex:
        """``mu`` for an explicit vertex path."""
        return min(path_vertices, key=lambda v: (self.depth[v], v))

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self, exhaustive_pairs: bool = True) -> None:
        """Check both tree-decomposition properties; raise on violation.

        With ``exhaustive_pairs`` the LCA property is checked for every
        vertex pair (quadratic; meant for tests).
        """
        net = self.network
        for z in self.parent:
            comp = self.component_of(z)
            if not net.is_component(comp):
                raise InvalidDecompositionError(
                    f"C({z}) does not induce a connected subtree"
                )
        if exhaustive_pairs:
            verts = net.vertices
            for i, x in enumerate(verts):
                for y in verts[i + 1 :]:
                    path = net.path_vertices(x, y)
                    w = self._lca(x, y)
                    if w not in path:
                        raise InvalidDecompositionError(
                            f"path {x}..{y} misses LCA_H({x},{y}) = {w}"
                        )

    def _lca(self, u: Vertex, v: Vertex) -> Vertex:
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self.parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self.parent[u]  # type: ignore[assignment]
            v = self.parent[v]  # type: ignore[assignment]
        return u

    def __repr__(self) -> str:
        return (
            f"TreeDecomposition(network={self.network.network_id}, "
            f"depth={self.max_depth}, n={len(self.parent)})"
        )
