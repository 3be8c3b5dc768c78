"""Hypothesis suite for the service layer's canonical fingerprints.

The cache-key contract of :mod:`repro.service.fingerprint`:

* **Invariance** -- insertion-order shuffles (demand list, networks
  dict, access dict and its tuples) and isomorphic relabelings of
  network ids and demand ids never change the fingerprint;
* **Sensitivity** -- any change to the demands (profit, height,
  window), the accessibility map, or the solve knobs changes it;
* **Soundness plumbing** -- the underlying canonical byte encoding
  distinguishes types exactly (``1`` vs ``1.0`` vs ``True``), orders
  sets/dicts content-wise, and rejects unknown types loudly.
"""
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.canonical import (
    CanonicalizationError,
    canonical_bytes,
    stable_digest,
)
from repro.core.problem import Problem
from repro.service.fingerprint import (
    SolveKnobs,
    problem_fingerprint,
    solve_fingerprint,
)
from repro.trees.tree import TreeNetwork
from repro.workloads import (
    build_workload,
    diurnal_line_problem,
    random_line_problem,
    workload_names,
)

COMMON = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Scalable registry workloads cover trees, forests, lines, windows,
#: single-network access and mixed heights in one sweep.
SCALE_NAMES = workload_names(scale=True)

problem_cases = st.tuples(
    st.sampled_from(SCALE_NAMES),
    st.integers(min_value=6, max_value=24),
    st.integers(min_value=0, max_value=10_000),
)


def relabeled(problem: Problem, seed: int) -> Problem:
    """An isomorphic copy: fresh network/demand ids, shuffled orders."""
    rng = random.Random(seed)
    nids = sorted(problem.networks)
    new_ids = rng.sample(range(10_000, 10_000 + 10 * len(nids) + 10), len(nids))
    nmap = dict(zip(nids, new_ids))
    dmap = {
        a.demand_id: 5_000 + i
        for i, a in enumerate(rng.sample(problem.demands, len(problem.demands)))
    }
    networks = {}
    for nid in rng.sample(nids, len(nids)):  # shuffled dict insertion
        edges = [(u, v) for (_n, u, v) in problem.networks[nid].edges()]
        rng.shuffle(edges)  # shuffled edge insertion
        networks[nmap[nid]] = TreeNetwork(nmap[nid], edges)
    demands = [
        replace(a, demand_id=dmap[a.demand_id])
        for a in rng.sample(problem.demands, len(problem.demands))
    ]
    access = {}
    for a in rng.sample(problem.demands, len(problem.demands)):
        nets = [nmap[n] for n in problem.access[a.demand_id]]
        rng.shuffle(nets)
        access[dmap[a.demand_id]] = tuple(nets)
    return Problem(networks=networks, demands=demands, access=access)


class TestInvariance:
    @settings(**COMMON)
    @given(case=problem_cases, perm_seed=st.integers(0, 10_000))
    def test_relabeling_and_shuffles_hash_equal(self, case, perm_seed):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        assert problem_fingerprint(relabeled(problem, perm_seed)) == (
            problem_fingerprint(problem)
        )

    @settings(**COMMON)
    @given(case=problem_cases)
    def test_rebuild_is_deterministic(self, case):
        name, size, seed = case
        a = problem_fingerprint(build_workload(name, size, seed=seed))
        b = problem_fingerprint(build_workload(name, size, seed=seed))
        assert a == b

    def test_fixed_scenarios_fingerprint(self):
        for name in workload_names(scale=False):
            p = build_workload(name, 1, seed=0)
            assert problem_fingerprint(p) == problem_fingerprint(
                build_workload(name, 1, seed=0)
            )


class TestSensitivity:
    """Any semantic change must change the fingerprint."""

    @settings(**COMMON)
    @given(case=problem_cases, idx=st.integers(min_value=0, max_value=10**9))
    def test_profit_change_differs(self, case, idx):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        i = idx % len(demands)
        demands[i] = replace(demands[i], profit=demands[i].profit + 0.5)
        mutated = Problem(problem.networks, demands, dict(problem.access))
        assert problem_fingerprint(mutated) != fp

    @settings(**COMMON)
    @given(case=problem_cases, idx=st.integers(min_value=0, max_value=10**9))
    def test_height_change_differs(self, case, idx):
        name, size, seed = case
        problem = build_workload(name, size, seed=seed)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        i = idx % len(demands)
        new_h = 0.35 if demands[i].height > 0.5 else 0.75
        demands[i] = replace(demands[i], height=new_h)
        mutated = Problem(problem.networks, demands, dict(problem.access))
        assert problem_fingerprint(mutated) != fp

    def test_access_change_differs(self):
        problem = build_workload("sparse-access-forest", 18, seed=4)
        fp = problem_fingerprint(problem)
        # Widen one demand's accessibility to every network.
        access = dict(problem.access)
        victim = next(
            a.demand_id for a in problem.demands
            if len(access[a.demand_id]) < len(problem.networks)
        )
        access[victim] = tuple(sorted(problem.networks))
        mutated = Problem(problem.networks, list(problem.demands), access)
        assert problem_fingerprint(mutated) != fp

    def test_window_shift_differs(self):
        problem = diurnal_line_problem(24, 10, seed=3)
        fp = problem_fingerprint(problem)
        demands = list(problem.demands)
        a = demands[0]
        demands[0] = replace(
            a, release=a.release + 1, deadline=min(22, a.deadline + 1)
        )
        assert problem_fingerprint(Problem(problem.networks, demands)) != fp

    def test_network_shape_differs(self):
        p1 = random_line_problem(20, 8, seed=1)
        p2 = Problem(
            networks={0: TreeNetwork(0, [(t, t + 1) for t in range(21)])},
            demands=list(p1.demands),
        )
        assert problem_fingerprint(p1) != problem_fingerprint(p2)

    def test_same_shape_different_wiring_differs(self):
        # Two identical tenant trees; d0/d1 both on net 0 vs spread over
        # both nets.  A lossy multiset-of-records hash would collide.
        from repro.core.demand import Demand

        edges = [(0, 1), (1, 2), (2, 3)]
        nets = {0: TreeNetwork(0, edges), 1: TreeNetwork(1, edges)}
        demands = [Demand(0, 0, 2, profit=1.0), Demand(1, 1, 3, profit=1.0)]
        together = Problem(nets, demands, {0: (0,), 1: (0,)})
        spread = Problem(nets, demands, {0: (0,), 1: (1,)})
        assert problem_fingerprint(together) != problem_fingerprint(spread)


class TestSolveKnobs:
    def test_each_knob_changes_the_key(self):
        problem = build_workload("bursty-lines", 10, seed=0)
        # backend pinned so the variant set is REPRO_BACKEND-independent
        base = SolveKnobs(engine="parallel", backend="thread")
        fp = solve_fingerprint(problem, base)
        variants = [
            replace(base, epsilon=0.2),
            replace(base, mis="greedy"),
            replace(base, seed=1),
            replace(base, engine="incremental"),
            replace(base, backend="process"),
            replace(base, decomposition="balancing"),
        ]
        others = {solve_fingerprint(problem, k).digest for k in variants}
        assert fp.digest not in others
        assert len(others) == len(variants)

    def test_workers_is_not_part_of_the_key(self):
        problem = build_workload("bursty-lines", 10, seed=0)
        a = solve_fingerprint(problem, SolveKnobs(engine="parallel", workers=2))
        b = solve_fingerprint(problem, SolveKnobs(engine="parallel", workers=8))
        assert a == b

    def test_parallel_only_knobs_normalize_for_serial_engines(self):
        problem = build_workload("bursty-lines", 10, seed=0)
        a = solve_fingerprint(problem, SolveKnobs(engine="incremental"))
        b = solve_fingerprint(
            problem, SolveKnobs(engine="incremental", workers=4)
        )
        assert a == b

    def test_env_backend_resolves_into_the_key(self, monkeypatch):
        problem = build_workload("bursty-lines", 10, seed=0)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        thread_fp = solve_fingerprint(problem, SolveKnobs(engine="parallel"))
        monkeypatch.setenv("REPRO_BACKEND", "process")
        process_fp = solve_fingerprint(problem, SolveKnobs(engine="parallel"))
        assert thread_fp != process_fp
        explicit = solve_fingerprint(
            problem, SolveKnobs(engine="parallel", backend="process")
        )
        assert process_fp == explicit

    def test_vectorized_accepts_executor_knobs(self, monkeypatch):
        # The vectorized engine routes workers=/backend= through the
        # parallel executor, so it validates and keys like
        # engine='parallel': workers stays an execution hint, the other
        # knobs resolve into the key.  backend=None resolves through
        # REPRO_BACKEND, so the variable is pinned unset.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        problem = build_workload("bursty-lines", 10, seed=0)
        SolveKnobs(engine="vectorized", workers=2, backend="process").validate()
        a = solve_fingerprint(problem, SolveKnobs(engine="vectorized", workers=2))
        b = solve_fingerprint(problem, SolveKnobs(engine="vectorized", workers=8))
        assert a == b
        assert a != solve_fingerprint(
            problem, SolveKnobs(engine="vectorized", backend="process")
        )
        with pytest.raises(ValueError, match="vectorized"):
            SolveKnobs(engine="incremental", backend="process").validate()


class TestCanonicalBytes:
    def test_types_are_distinguished(self):
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(1) != canonical_bytes(True)
        assert canonical_bytes(0) != canonical_bytes(False)
        assert canonical_bytes("1") != canonical_bytes(1)
        assert canonical_bytes((1,)) != canonical_bytes([1])
        assert canonical_bytes(()) != canonical_bytes(None)

    def test_containers_are_content_ordered(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})
        assert canonical_bytes(frozenset((1, 2))) == canonical_bytes({2, 1})
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_nesting_is_unambiguous(self):
        assert canonical_bytes(((1, 2), 3)) != canonical_bytes((1, (2, 3)))
        assert canonical_bytes(("ab",)) != canonical_bytes(("a", "b"))

    def test_floats_are_exact(self):
        assert canonical_bytes(0.1 + 0.2) != canonical_bytes(0.3)
        assert stable_digest(1e-9) == stable_digest(1e-9)

    def test_unknown_types_rejected(self):
        with pytest.raises(CanonicalizationError, match="object"):
            canonical_bytes(object())

    def test_digest_is_stable(self):
        # Pinned value: a changed encoding must fail loudly here, since
        # it silently invalidates every on-disk cache entry.
        assert stable_digest((1, "a", 2.5)) == stable_digest((1, "a", 2.5))
        assert canonical_bytes((1, "a", 2.5)) == b't(i1;s1:af0x1.4000000000000p+1;)'
