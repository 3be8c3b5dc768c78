"""Tests for layered decompositions (Lemma 4.2/4.3 and Section 7)."""
import hashlib
import math
import platform
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import DECOMPOSITION_BUILDERS, tree_layouts
from repro.core.demand import Demand, WindowDemand
from repro.core.problem import Problem
from repro.lines.layered import layered_by_length
from repro.lines.line import instance_mid_slot, instance_slots
from repro.trees.balancing import build_balancing
from repro.trees.decomposition import InvalidDecompositionError, TreeDecomposition
from repro.trees.ideal import build_ideal
from repro.trees.layered import (
    LayeredDecompositionError,
    bending_point,
    layered_from_tree_decomposition,
    wings,
)
from repro.trees.root_fixing import build_root_fixing
from repro.trees.tree import TreeNetwork, make_line_network
from repro.workloads.random_suite import REGISTRY, build_workload
from repro.workloads.scenarios import figure6_network
from repro.workloads.trees import SHAPES, random_tree, random_tree_edges


def tree_problem(net, pairs):
    demands = [Demand(i, u, v, profit=1.0) for i, (u, v) in enumerate(pairs)]
    return Problem(networks={net.network_id: net}, demands=demands)


def random_pairs(net, k, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(net.vertices, 2)) for _ in range(k)]


class TestWingsAndBending:
    def test_figure6_wings(self):
        """Figure 6: node 4 has one wing <4,2>; node 8 has <5,8>, <8,13>."""
        net = figure6_network()
        p = tree_problem(net, [(4, 13)])
        (d,) = p.instances
        assert set(wings(d, 4)) == {(0, 2, 4)}
        assert set(wings(d, 8)) == {(0, 5, 8), (0, 8, 13)}

    def test_figure6_bending_points(self):
        """Figure 6: bending points of <4,13> w.r.t. 3 and 9 are 2 and 5."""
        net = figure6_network()
        p = tree_problem(net, [(4, 13)])
        (d,) = p.instances
        assert bending_point(net, d, 3) == 2
        assert bending_point(net, d, 9) == 5

    def test_bending_point_on_path_is_itself(self):
        net = figure6_network()
        p = tree_problem(net, [(4, 13)])
        (d,) = p.instances
        assert bending_point(net, d, 5) == 5

    def test_wings_requires_on_path_vertex(self):
        net = figure6_network()
        p = tree_problem(net, [(4, 13)])
        (d,) = p.instances
        with pytest.raises(LayeredDecompositionError):
            wings(d, 7)

    def test_bending_point_is_closest_path_vertex(self):
        net = random_tree(30, seed=5)
        p = tree_problem(net, random_pairs(net, 5, seed=6))
        rng = random.Random(7)
        for d in p.instances:
            for _ in range(5):
                u = rng.choice(net.vertices)
                y = bending_point(net, d, u)
                dist_y = net.distance(u, y)
                assert all(
                    dist_y <= net.distance(u, x) for x in d.path_vertex_seq
                )


BUILDERS = {
    "root_fixing": build_root_fixing,
    "balancing": build_balancing,
    "ideal": build_ideal,
}


class TestLemma42Transform:
    @pytest.mark.parametrize("builder_name", list(BUILDERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layered_property_holds(self, builder_name, seed):
        net = random_tree(22, seed=seed)
        p = tree_problem(net, random_pairs(net, 18, seed=seed + 50))
        td = BUILDERS[builder_name](net)
        layered = layered_from_tree_decomposition(td, p.instances)
        layered.verify(p.instances)

    @pytest.mark.parametrize("builder_name", list(BUILDERS))
    def test_delta_bound_2_theta_plus_1(self, builder_name):
        net = random_tree(40, seed=9)
        p = tree_problem(net, random_pairs(net, 30, seed=10))
        td = BUILDERS[builder_name](net)
        layered = layered_from_tree_decomposition(td, p.instances)
        assert layered.critical_set_size <= 2 * (td.pivot_size + 1)

    def test_lemma_43_ideal_gives_delta_six_log_length(self):
        for seed in range(4):
            net = random_tree(60, seed=seed)
            p = tree_problem(net, random_pairs(net, 40, seed=seed + 90))
            td = build_ideal(net)
            layered = layered_from_tree_decomposition(td, p.instances)
            assert layered.critical_set_size <= 6
            assert layered.length <= 2 * math.ceil(math.log2(60)) + 1
            layered.verify(p.instances)

    def test_groups_reverse_capture_depth(self):
        net = figure6_network()
        p = tree_problem(net, [(4, 13), (9, 12)])
        td = build_root_fixing(net, root=1)
        layered = layered_from_tree_decomposition(td, p.instances)
        d_4_13, d_9_12 = p.instances
        # <9,12> is captured deeper than <4,13> => earlier group.
        assert layered.group_of[d_9_12.instance_id] < layered.group_of[d_4_13.instance_id]

    def test_rejects_foreign_instance(self):
        net = random_tree(10, seed=0)
        other = random_tree(10, seed=1, network_id=1)
        p = Problem(
            networks={0: net, 1: other},
            demands=[Demand(0, 0, 5, 1.0)],
            access={0: (1,)},
        )
        td = build_ideal(net)
        with pytest.raises(LayeredDecompositionError):
            layered_from_tree_decomposition(td, p.instances)

    def test_critical_edges_on_path(self):
        net = random_tree(30, seed=3)
        p = tree_problem(net, random_pairs(net, 20, seed=4))
        td = build_ideal(net)
        layered = layered_from_tree_decomposition(td, p.instances)
        for d in p.instances:
            assert set(layered.pi[d.instance_id]) <= d.path_edges


#: sha256 of :func:`layout_corpus_digest`, taken before the builders,
#: the component primitives and the pivot sets were optimized.  Every
#: later change to those must leave every layout value-identical.
#:
#: The digest is tied to the interpreter it was taken and checked on,
#: CPython 3.11: the layouts follow the iteration order of CPython's
#: int sets (the balancer starts at ``next(iter(set(C)))``, see
#: :mod:`repro.trees.ideal`).  An interpreter that lays small-int sets
#: out differently builds other, equally valid decompositions, at the
#: commit that pinned this digest as well.  A mismatch on another
#: interpreter version therefore needs a check against that commit on
#: the same interpreter before it is read as a layout change.
PINNED_LAYOUT_DIGEST = (
    "de7270ab2aff76d703c5d3f0274d7fd9daa3a99b3cf26fbdbbb5f36233668609"
)


def layout_corpus():
    """``(network, instances)`` pairs: every registry workload at sizes
    16/64/200, then 4200 random trees over every shape in ``SHAPES``
    (sizes 1-80) with sparse random labels, edges in shuffled order and
    random orientation."""
    for name in sorted(REGISTRY):
        for size in (16, 64, 200):
            problem = build_workload(name, size, seed=size)
            by_net = problem.instances_by_network
            for nid in sorted(problem.networks):
                yield problem.networks[nid], by_net.get(nid, ())
    rng = random.Random(20120716)
    for i in range(4200):
        n = rng.randint(1, 80)
        edges = random_tree_edges(n, seed=rng.randrange(10**6), shape=SHAPES[i % len(SHAPES)])
        labels = rng.sample(range(max(1, rng.choice((n, 4 * n, 50 * n)))), n)
        edges = [
            (labels[u], labels[v]) if rng.random() < 0.5 else (labels[v], labels[u])
            for u, v in edges
        ]
        rng.shuffle(edges)
        yield TreeNetwork(i, edges, vertices=[labels[0]]), ()


def layout_corpus_digest():
    """One digest over the parent maps and all pivot sets of the three
    builders, and their Lemma 4.2 layered decompositions
    ``(group_of, pi, length)`` where the network has instances."""
    h = hashlib.sha256()
    for net, instances in layout_corpus():
        for name in ("ideal", "balancing", "root_fixing"):
            td = DECOMPOSITION_BUILDERS[name](net)
            h.update(repr(sorted(td.parent.items())).encode())
            h.update(
                repr([(z, sorted(td.pivot_set(z))) for z in sorted(td.parent)]).encode()
            )
            if instances:
                ld = layered_from_tree_decomposition(td, instances)
                h.update(
                    repr(
                        (sorted(ld.group_of.items()), sorted(ld.pi.items()), ld.length)
                    ).encode()
                )
    return h.hexdigest()


class TestLayoutValueIdentity:
    @pytest.mark.slow
    def test_pinned_layout_digest(self):
        assert layout_corpus_digest() == PINNED_LAYOUT_DIGEST, (
            f"layouts differ from the digest pinned under CPython 3.11; "
            f"running {platform.python_implementation()} {platform.python_version()}"
        )

    @pytest.mark.parametrize("name", sorted(DECOMPOSITION_BUILDERS))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_for_network_twin_equals_fresh_build(self, name, shape):
        builder = DECOMPOSITION_BUILDERS[name]
        edges = random_tree_edges(23, seed=4, shape=shape)
        template = builder(TreeNetwork(0, edges))
        other = TreeNetwork(5, edges)
        twin = template.for_network(other)
        fresh = builder(other)
        assert twin.network is other and template.network.network_id == 0
        assert twin.parent == fresh.parent and twin.depth == fresh.depth
        assert twin.root == fresh.root and twin.children == fresh.children
        assert all(twin.pivot_set(z) == fresh.pivot_set(z) for z in fresh.parent)
        p = tree_problem(other, random_pairs(other, 12, seed=8))
        a = layered_from_tree_decomposition(twin, p.instances)
        b = layered_from_tree_decomposition(fresh, p.instances)
        assert (a.group_of, a.pi, a.length) == (b.group_of, b.pi, b.length)

    def test_for_network_rejects_another_edge_order(self):
        edges = random_tree_edges(12, seed=1)
        td = build_ideal(TreeNetwork(0, edges))
        with pytest.raises(ValueError, match="shape"):
            td.for_network(TreeNetwork(1, list(reversed(edges))))

    def test_tree_layouts_builds_each_shape_once(self):
        edges = random_tree_edges(15, seed=2)
        nets = {
            0: TreeNetwork(0, edges),
            1: TreeNetwork(1, edges),
            2: TreeNetwork(2, list(reversed(edges))),
        }
        demands = [Demand(i, i, 14 - i, 1.0) for i in range(6)]
        problem = Problem(
            networks=nets, demands=demands, access={i: (i % 3,) for i in range(6)}
        )
        _, decomps = tree_layouts(problem)
        assert decomps[1].parent is decomps[0].parent
        assert decomps[2].parent is not decomps[0].parent
        for nid, td in decomps.items():
            assert td.network is nets[nid]
            assert td.parent == build_ideal(nets[nid]).parent

    def test_pivot_sets_reject_edges_that_are_not_ancestor_related(self):
        path = TreeNetwork(0, [(0, 1), (1, 2), (2, 3)])
        # Edge (1, 2) joins siblings; then a deeper vertex whose
        # ancestors miss its network neighbor.
        for parent in ({0: None, 1: 0, 2: 0, 3: 2}, {0: None, 1: 0, 3: 0, 2: 3}):
            with pytest.raises(InvalidDecompositionError, match="ancestor"):
                TreeDecomposition(path, parent).pivot_size

    def test_depths_climb_the_parent_map(self):
        path = TreeNetwork(0, [(0, 1), (1, 2)])
        # A child may be listed before its parent.
        td = TreeDecomposition(path, {2: 0, 0: 1, 1: None})
        assert td.depth == {1: 1, 0: 2, 2: 3} and td.max_depth == 3
        assert td.is_ancestor_or_self(1, 2) and not td.is_ancestor_or_self(2, 0)
        with pytest.raises(InvalidDecompositionError, match="cycle"):
            TreeDecomposition(path, {1: None, 0: 2, 2: 0})
        with pytest.raises(InvalidDecompositionError, match="unknown parent"):
            TreeDecomposition(path, {1: None, 0: 1, 2: 7})


def line_problem(n_slots, jobs):
    demands = [
        WindowDemand(i, release=s, deadline=e, processing=e - s + 1, profit=1.0)
        for i, (s, e) in enumerate(jobs)
    ]
    return Problem(networks={0: make_line_network(0, n_slots)}, demands=demands)


class TestLineLayered:
    def test_delta_at_most_three(self):
        p = line_problem(60, [(0, 29), (5, 9), (10, 11), (30, 59), (3, 3)])
        layered = layered_by_length(0, p.instances)
        assert layered.critical_set_size <= 3
        layered.verify(p.instances)

    def test_groups_by_length_class(self):
        p = line_problem(64, [(0, 0), (0, 1), (0, 3), (0, 7), (0, 15)])
        layered = layered_by_length(0, p.instances)
        groups = [layered.group_of[d.instance_id] for d in p.instances]
        assert groups == [1, 2, 3, 4, 5]

    def test_same_length_same_group(self):
        p = line_problem(20, [(0, 4), (5, 9), (10, 14)])
        layered = layered_by_length(0, p.instances)
        gs = {layered.group_of[d.instance_id] for d in p.instances}
        assert gs == {1}

    def test_critical_edges_are_start_mid_end(self):
        p = line_problem(20, [(4, 11)])
        layered = layered_by_length(0, p.instances)
        (d,) = p.instances
        s, e = instance_slots(d)
        mid = instance_mid_slot(d)
        assert (s, e, mid) == (4, 11, 7)
        assert set(layered.pi[d.instance_id]) == {(0, 4, 5), (0, 7, 8), (0, 11, 12)}

    def test_unit_length_instance_single_critical(self):
        p = line_problem(10, [(3, 3)])
        layered = layered_by_length(0, p.instances)
        (d,) = p.instances
        assert layered.pi[d.instance_id] == ((0, 3, 4),)

    def test_empty_network(self):
        layered = layered_by_length(5, [])
        assert layered.length == 0 and layered.critical_set_size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_layered_property_random(self, seed):
        rng = random.Random(seed)
        jobs = []
        for _ in range(25):
            s = rng.randrange(0, 50)
            e = min(49, s + rng.randrange(0, 25))
            jobs.append((s, e))
        p = line_problem(50, jobs)
        layered = layered_by_length(0, p.instances)
        layered.verify(p.instances)
        assert layered.critical_set_size <= 3


@st.composite
def line_jobs(draw):
    n_slots = draw(st.integers(min_value=4, max_value=80))
    k = draw(st.integers(min_value=1, max_value=20))
    jobs = []
    for _ in range(k):
        s = draw(st.integers(min_value=0, max_value=n_slots - 1))
        e = draw(st.integers(min_value=s, max_value=n_slots - 1))
        jobs.append((s, e))
    return n_slots, jobs


class TestLineLayeredProperties:
    @given(line_jobs())
    @settings(max_examples=50, deadline=None)
    def test_property_always_holds(self, data):
        n_slots, jobs = data
        p = line_problem(n_slots, jobs)
        layered = layered_by_length(0, p.instances)
        layered.verify(p.instances)
        assert layered.critical_set_size <= 3
