"""The ideal tree decomposition (Section 4.3, Lemma 4.1).

Combines the strengths of the two simple decompositions: depth
``O(log n)`` *and* pivot size ``theta <= 2``.  The construction recurses
on components with at most two outside neighbors, splitting each by a
balancer ``z``; when both neighbor-entry points fall into the same split
component, an extra *junction* node ``j`` (the median of the two outside
neighbors and ``z``) is interposed so that every recursive component
again has at most two neighbors (case 2(b) of the paper).

Each recursion level adds at most two nodes (junction + balancer) to the
depth while at least halving component sizes, giving depth at most
``2 ceil(log2 n)`` (counting a singleton's depth as 1).

**Value identity.**  The decomposition is a function of the network's
:meth:`~repro.trees.tree.TreeNetwork.shape_key` -- its vertices and the
order of each adjacency list -- and of nothing else.  Where a component
has two centroids, the balancer takes the one nearer its walk's start,
the first element of ``set(component)`` for the component frozenset
(:meth:`~repro.trees.tree.TreeNetwork.balance_and_split`).  That
element depends on the frozenset's hash-table layout, which depends on
the order the split walk inserted the piece's vertices.  Any faster
builder must therefore reproduce that start, not, say, ``min(C)``: on
the registry's tree workloads at sizes 16, 64, 200 and 400, 695 of
4907 balancer calls (14%) would pick the other centroid.  The test
suite pins a digest of every layout of a fixed corpus
(``tests/test_layered.py``).

**Sharing is per solve.**  :func:`repro.algorithms.base.tree_layouts`
builds each distinct shape once per call and rebinds it to the other
networks of that shape (:meth:`TreeDecomposition.for_network`).  In a
``multi-tenant-forest@400`` request 28.3% of the networks repeat an
earlier shape.  Across 96 such requests a process-wide memo would hit
only 33.7% of the time while collecting 19,102 distinct shapes, so it
would need a bound (a new knob) to win little more.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.types import Vertex
from repro.trees.decomposition import InvalidDecompositionError, TreeDecomposition
from repro.trees.tree import TreeNetwork


def _entry_vertex(network: TreeNetwork, outside: Vertex, component: FrozenSet[Vertex]) -> Vertex:
    """The unique vertex of *component* adjacent to *outside* (``u'_i``).

    Uniqueness holds because two entry vertices would close a cycle in
    the tree.
    """
    entries = [w for w in network.neighbors(outside) if w in component]
    if len(entries) != 1:
        raise InvalidDecompositionError(
            f"outside neighbor {outside} touches component at {entries}"
        )
    return entries[0]


def build_ideal(network: TreeNetwork) -> TreeDecomposition:
    """Build the ideal tree decomposition of *network* (Lemma 4.1)."""
    parent: Dict[Vertex, Optional[Vertex]] = {}

    def attach(child: Vertex, parent_node: Optional[Vertex]) -> None:
        if child in parent:
            raise InvalidDecompositionError(f"vertex {child} attached twice")
        parent[child] = parent_node

    def build(
        component: FrozenSet[Vertex],
        neighbors: Tuple[Vertex, ...],
        parent_node: Optional[Vertex],
    ) -> Vertex:
        """BuildIdealTD: returns the root of the decomposition of *component*.

        Precondition: ``neighbors = Gamma[component]`` and has size <= 2,
        and *component* has at least two vertices -- a single-vertex
        piece is attached by its caller, with no recursion.
        """
        if len(neighbors) > 2:
            raise InvalidDecompositionError(
                f"precondition violated: component has {len(neighbors)} neighbors"
            )

        z, pieces = network.balance_and_split(component)

        # Locate which split component each outside neighbor enters through.
        entry: Dict[Vertex, Vertex] = {}  # outside neighbor -> entry vertex u'_i
        home: Dict[Vertex, Optional[int]] = {}  # outside neighbor -> piece index
        for u in neighbors:
            up = _entry_vertex(network, u, component)
            entry[u] = up
            if up == z:
                home[u] = None
            else:
                home[u] = next(i for i, p in enumerate(pieces) if up in p)

        indices = [home[u] for u in neighbors if home[u] is not None]
        same_piece = len(indices) == 2 and indices[0] == indices[1]

        if not same_piece:
            # Cases 1 and 2(a): z becomes the root; each split piece
            # recurses with neighborhood {z} plus its entering outsiders.
            attach(z, parent_node)
            for i, piece in enumerate(pieces):
                if len(piece) == 1:
                    attach(*piece, z)
                else:
                    gamma = {z} | {u for u in neighbors if home[u] == i}
                    build(piece, tuple(sorted(gamma)), z)
            return z

        # Case 2(b): both entries in the same piece C1 -> junction.
        u1, u2 = neighbors
        c1 = pieces[indices[0]]
        j = network.median(u1, u2, z)
        if j not in c1:
            raise InvalidDecompositionError("junction fell outside component C1")
        attach(j, parent_node)
        attach(z, j)

        # The first vertex after j on the path j ~> z; if it is z itself,
        # no sub-piece of C1 lies between the junction and the balancer.
        toward_z = network.path_vertices(j, z)[1]
        z_entry: Optional[Vertex] = None if toward_z == z else toward_z

        sub_pieces = (
            network.split_component(c1, j) if len(c1) > 1 else []
        )
        for piece in sub_pieces:
            # Pieces between the junction and the balancer hang under z
            # (they are part of C(z) in H); everything else under j.
            between = z_entry is not None and z_entry in piece
            if len(piece) == 1:
                attach(*piece, z if between else j)
                continue
            gamma = {j}
            if between:
                gamma.add(z)
            if entry[u1] in piece:
                gamma.add(u1)
            if entry[u2] in piece:
                gamma.add(u2)
            build(piece, tuple(sorted(gamma)), z if between else j)

        # Remaining split pieces of C - z (other than C1) hang under z.
        for i, piece in enumerate(pieces):
            if i == indices[0]:
                continue
            if len(piece) == 1:
                attach(*piece, z)
            else:
                gamma = {z} | {u for u in neighbors if home[u] == i}
                build(piece, tuple(sorted(gamma)), z)
        return j

    # Top level: split the whole vertex set by a balancer g; every piece
    # then has exactly one neighbor, {g}, satisfying the precondition.
    g, pieces = network.balance_and_split(frozenset(network.vertices))
    attach(g, None)
    for piece in pieces:
        if len(piece) == 1:
            attach(*piece, g)
        else:
            build(piece, (g,), g)
    return TreeDecomposition(network, parent)
