"""Balancing tree decomposition (Section 4.2, procedure BuildBalTD).

Recursively split each component by a balancer (centroid): the balancer
becomes the root and the recursive decompositions of the split components
become its children.  The depth is at most ``ceil(log2 n)`` (component
sizes at least halve per level, counting the depth of a singleton as 1),
but the pivot size can grow to ``Theta(log n)`` because the neighborhood
of ``C(z)`` may contain every ancestor balancer.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from repro.core.types import Vertex
from repro.trees.decomposition import TreeDecomposition
from repro.trees.tree import TreeNetwork


def build_balancing(network: TreeNetwork) -> TreeDecomposition:
    """Build the balancing decomposition of *network* (BuildBalTD)."""
    parent: Dict[Vertex, Optional[Vertex]] = {}

    def build(component: FrozenSet[Vertex], parent_node: Optional[Vertex]) -> Vertex:
        z, pieces = network.balance_and_split(component)
        parent[z] = parent_node
        for piece in pieces:
            build(piece, z)
        return z

    build(frozenset(network.vertices), None)
    return TreeDecomposition(network, parent)
