"""Tree-network substrate.

A :class:`TreeNetwork` is the paper's tree-network ``T``: an undirected
tree over a set of integer vertices.  It provides the primitive queries
every other layer is built on:

* unique paths between vertex pairs (``path_vertices`` / ``path_edges``),
* least common ancestors with respect to an arbitrary internal root,
* component manipulation (split by a vertex, neighborhoods ``Gamma[C]``),
* balancers (centroids) and medians (junctions), used by the tree
  decompositions of Section 4.

Line-networks are path-shaped tree-networks (see :mod:`repro.lines.line`),
so Sections 5-7 of the paper all run on this one substrate.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.types import EdgeKey, NetworkId, Vertex, edge_key


#: :meth:`TreeNetwork.shape_key`: sorted vertices, then each vertex's
#: adjacency list in insertion order.
ShapeKey = Tuple[Tuple[Vertex, ...], Tuple[Tuple[Vertex, ...], ...]]


class NotATreeError(ValueError):
    """Raised when the supplied edge set does not form a tree."""


class TreeNetwork:
    """An undirected tree over integer vertices, with path/LCA queries.

    Parameters
    ----------
    network_id:
        Identifier of this network; baked into every :data:`EdgeKey`.
    edges:
        Iterable of ``(u, v)`` pairs.  They must form a connected acyclic
        graph (a tree).  A single-vertex network may be created by passing
        no edges and ``vertices={v}``.
    vertices:
        Optional explicit vertex set; defaults to the endpoints of *edges*.
    """

    #: Memo of :meth:`shape_key`; a class-level default, so networks
    #: unpickled from before the memo existed still compute it.
    _shape_key: Optional[ShapeKey] = None

    def __init__(
        self,
        network_id: NetworkId,
        edges: Iterable[Tuple[Vertex, Vertex]],
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self.network_id = network_id
        self._adj: Dict[Vertex, List[Vertex]] = {}
        if vertices is not None:
            for v in vertices:
                self._adj.setdefault(int(v), [])
        edge_list = [(int(u), int(v)) for u, v in edges]
        for u, v in edge_list:
            if u == v:
                raise NotATreeError(f"self-loop ({u}, {v})")
            self._adj.setdefault(u, [])
            self._adj.setdefault(v, [])
            self._adj[u].append(v)
            self._adj[v].append(u)
        if not self._adj:
            raise NotATreeError("a tree-network needs at least one vertex")
        if len(edge_list) != len(self._adj) - 1:
            raise NotATreeError(
                f"{len(edge_list)} edges over {len(self._adj)} vertices cannot be a tree"
            )
        self._vertices: Tuple[Vertex, ...] = tuple(sorted(self._adj))
        self._root = self._vertices[0]
        self._parent: Dict[Vertex, Optional[Vertex]] = {}
        self._depth: Dict[Vertex, int] = {}
        self._build_rooted_index()

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        """Number of vertices in this network."""
        return len(self._vertices)

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices, sorted ascending."""
        return self._vertices

    def edges(self) -> List[EdgeKey]:
        """All edges of the network as canonical :data:`EdgeKey` triples."""
        out = []
        for u in self._vertices:
            for v in self._adj[u]:
                if u < v:
                    out.append(edge_key(self.network_id, u, v))
        return out

    def neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Vertices adjacent to *v*."""
        return tuple(self._adj[v])

    def degree(self, v: Vertex) -> int:
        """Degree of vertex *v*."""
        return len(self._adj[v])

    def has_vertex(self, v: Vertex) -> bool:
        """Whether *v* belongs to this network."""
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the edge ``(u, v)`` belongs to this network."""
        return u in self._adj and v in self._adj[u]

    def edge(self, u: Vertex, v: Vertex) -> EdgeKey:
        """Canonical key of the existing edge ``(u, v)``."""
        if not self.has_edge(u, v):
            raise KeyError(f"({u}, {v}) is not an edge of network {self.network_id}")
        return edge_key(self.network_id, u, v)

    def shape_key(self) -> ShapeKey:
        """Everything the decomposition builders read: the sorted
        vertices and each one's adjacency list, in insertion order.

        Two networks with equal keys get value-identical decompositions
        under any builder, whatever their ids.  The adjacency order is
        part of the key on purpose: it steers the component walks, so
        the same edge set listed in another order can decompose
        differently.
        """
        key = self._shape_key
        if key is None:
            key = self._shape_key = (
                self._vertices,
                tuple(map(tuple, map(self._adj.__getitem__, self._vertices))),
            )
        return key

    def is_path_graph(self) -> bool:
        """Whether the network is a line (every vertex has degree <= 2)."""
        return all(len(self._adj[v]) <= 2 for v in self._vertices)

    # ------------------------------------------------------------------
    # Rooted index and path queries
    # ------------------------------------------------------------------
    def _build_rooted_index(self) -> None:
        """BFS from an arbitrary fixed root, recording parent and depth."""
        root = self._root
        parent: Dict[Vertex, Optional[Vertex]] = {root: None}
        depth: Dict[Vertex, int] = {root: 0}
        frontier = [root]
        while frontier:
            nxt: List[Vertex] = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in depth:
                        parent[w] = u
                        depth[w] = depth[u] + 1
                        nxt.append(w)
            frontier = nxt
        if len(depth) != len(self._adj):
            raise NotATreeError("edge set is not connected")
        self._parent = parent
        self._depth = depth

    @property
    def root(self) -> Vertex:
        """The fixed internal root (smallest vertex)."""
        return self._root

    def parent_of(self, v: Vertex) -> Optional[Vertex]:
        """Parent of *v* w.r.t. the internal root (None for the root)."""
        return self._parent[v]

    def depth_of(self, v: Vertex) -> int:
        """Depth of *v* w.r.t. the internal root (root has depth 0)."""
        return self._depth[v]

    def children_of(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Children of *v* w.r.t. the internal root."""
        return tuple(w for w in self._adj[v] if self._parent.get(w) == v)

    def lca(self, u: Vertex, v: Vertex) -> Vertex:
        """Least common ancestor of *u* and *v* w.r.t. the internal root."""
        du, dv = self._depth[u], self._depth[v]
        while du > dv:
            u = self._parent[u]  # type: ignore[assignment]
            du -= 1
        while dv > du:
            v = self._parent[v]  # type: ignore[assignment]
            dv -= 1
        while u != v:
            u = self._parent[u]  # type: ignore[assignment]
            v = self._parent[v]  # type: ignore[assignment]
        return u

    def path_vertices(self, u: Vertex, v: Vertex) -> Tuple[Vertex, ...]:
        """The unique path from *u* to *v*, inclusive of both endpoints."""
        if u not in self._adj or v not in self._adj:
            raise KeyError(f"({u}, {v}) not in network {self.network_id}")
        w = self.lca(u, v)
        up: List[Vertex] = []
        x = u
        while x != w:
            up.append(x)
            x = self._parent[x]  # type: ignore[assignment]
        down: List[Vertex] = []
        x = v
        while x != w:
            down.append(x)
            x = self._parent[x]  # type: ignore[assignment]
        return tuple(up + [w] + list(reversed(down)))

    def path_edges(self, u: Vertex, v: Vertex) -> Tuple[EdgeKey, ...]:
        """Edges of the unique path from *u* to *v*, in path order."""
        verts = self.path_vertices(u, v)
        nid = self.network_id
        return tuple(edge_key(nid, a, b) for a, b in zip(verts, verts[1:]))

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Number of edges on the unique path between *u* and *v*."""
        w = self.lca(u, v)
        return self._depth[u] + self._depth[v] - 2 * self._depth[w]

    # ------------------------------------------------------------------
    # Component operations (Section 4 machinery)
    # ------------------------------------------------------------------
    def is_component(self, component: Iterable[Vertex]) -> bool:
        """Whether *component* induces a connected subtree of this network."""
        comp = set(component)
        if not comp:
            return False
        if not comp <= set(self._adj):
            return False
        start = next(iter(comp))
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for w in self._adj[x]:
                if w in comp and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen == comp

    def component_neighborhood(self, component: Iterable[Vertex]) -> FrozenSet[Vertex]:
        """``Gamma[C]``: vertices outside *component* adjacent to it."""
        comp = set(component)
        out: Set[Vertex] = set()
        for x in comp:
            for w in self._adj[x]:
                if w not in comp:
                    out.add(w)
        return frozenset(out)

    def split_component(
        self, component: Iterable[Vertex], pivot: Vertex
    ) -> List[FrozenSet[Vertex]]:
        """Split *component* by *pivot*: components of ``C - {pivot}``.

        This is the paper's "node z splits C into components C1..Cs".
        """
        return self._split(set(component), pivot)

    def balancer(self, component: Iterable[Vertex]) -> Vertex:
        """A balancer (centroid) of *component*.

        Returns a vertex ``z`` such that every component of ``C - {z}`` has
        at most ``floor(|C|/2)`` vertices (the paper's balancer, Section 4.2;
        one always exists).
        """
        return self._centroid(set(component))

    def balance_and_split(
        self, component: Iterable[Vertex]
    ) -> Tuple[Vertex, List[FrozenSet[Vertex]]]:
        """``(z, split_component(C, z))`` for ``z = balancer(C)``, with
        one copy of *component* serving both steps."""
        comp = set(component)
        z = self._centroid(comp)
        return z, self._split(comp, z)

    def _centroid(self, comp: Set[Vertex]) -> Vertex:
        """:meth:`balancer` of a set copy of the component.

        The walk is rooted at the copy's first element, i.e.
        ``next(iter(set(component)))``, and returns the deepest vertex
        whose subtree holds more than half of ``C``.  When ``C`` has two
        centroids, that start decides between them, so it must stay
        exactly this expression for decompositions to keep their values.
        """
        if not comp:
            raise ValueError("empty component has no balancer")
        adj = self._adj
        root = next(iter(comp))
        # Breadth-first order of the induced subtree; ``parent`` doubles
        # as the visited set.
        parent: Dict[Vertex, Optional[Vertex]] = {root: None}
        order = [root]
        for x in order:
            for w in adj[x]:
                if w in comp and w not in parent:
                    parent[w] = x
                    order.append(w)
        if len(order) != len(comp):
            raise ValueError("input set is not a connected component")
        # Vertices whose subtree exceeds half of C form a path down from
        # the root; bottom-up, the first one met is its deepest vertex.
        # A subtree size is final once reached: descendants come later
        # in breadth-first order.
        half = len(order) // 2
        size = dict.fromkeys(order, 1)
        for x in reversed(order):
            if size[x] > half:
                return x
            size[parent[x]] += size[x]  # type: ignore[index]
        raise AssertionError("the root's subtree is all of C")  # pragma: no cover

    def _split(self, unvisited: Set[Vertex], pivot: Vertex) -> List[FrozenSet[Vertex]]:
        """:meth:`split_component`, consuming a set copy of the component.

        Each piece is grown depth-first from its seed; the insertion
        order of that walk fixes the piece's frozenset layout, which the
        balancer start reads, so the walk order is part of the
        decompositions' value contract.
        """
        if pivot not in unvisited:
            raise ValueError(f"pivot {pivot} is not in the component")
        unvisited.discard(pivot)
        adj = self._adj
        pieces: List[FrozenSet[Vertex]] = []
        for seed in adj[pivot]:
            if seed not in unvisited:
                continue
            unvisited.discard(seed)
            piece = {seed}
            stack = [seed]
            while stack:
                for w in adj[stack.pop()]:
                    if w in unvisited:
                        unvisited.discard(w)
                        piece.add(w)
                        stack.append(w)
            pieces.append(frozenset(piece))
        if unvisited:
            raise ValueError("input set was not a connected component")
        return pieces

    def median(self, a: Vertex, b: Vertex, c: Vertex) -> Vertex:
        """The unique vertex lying on all three pairwise paths of a, b, c.

        This is the "junction" of Section 4.3, case 2(b).
        """
        on_ab = set(self.path_vertices(a, b))
        for x in self.path_vertices(c, a):
            if x in on_ab:
                return x
        raise AssertionError("tree paths must intersect")  # pragma: no cover

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"TreeNetwork(id={self.network_id}, n={self.n_vertices}, "
            f"edges={self.n_vertices - 1})"
        )


def make_line_network(network_id: NetworkId, n_slots: int) -> TreeNetwork:
    """Build a line-network with *n_slots* timeslots.

    Timeslot ``t`` (``0 <= t < n_slots``) is the edge ``(t, t+1)``; the
    network is the path on vertices ``0..n_slots``.  This realizes the
    paper's reformulation of line-networks as timelines (Section 1).
    """
    if n_slots < 1:
        raise ValueError("a line-network needs at least one timeslot")
    return TreeNetwork(network_id, [(t, t + 1) for t in range(n_slots)])


def path_between(network: TreeNetwork, u: Vertex, v: Vertex) -> Tuple[EdgeKey, ...]:
    """Convenience alias for ``network.path_edges(u, v)``."""
    return network.path_edges(u, v)
