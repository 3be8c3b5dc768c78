"""Canonical fingerprints of problems and solve configurations.

The scheduling service keys its result cache by a content hash of the
:class:`~repro.core.problem.Problem` plus the solve knobs, so that a
re-submitted workload -- or the *same* workload arriving under freshly
minted ids -- hits the cache instead of re-running a solve.  Two design
requirements shape the canonicalization:

**Invariance.**  The fingerprint must not change under

* insertion-order shuffles: the order of the ``networks`` dict, the
  ``demands`` list, the ``access`` dict and its per-demand network
  tuples (every consumer of those containers iterates them sorted);
* isomorphic relabelings of *network ids* and *demand ids*: a control
  plane that mints fresh ids per submission still describes the same
  instance.

Vertex labels are **not** abstracted away: they are the paper's
structural coordinates (on a line-network, vertex = timeslot), so two
problems that differ only by a vertex relabeling are genuinely
different requests.

**Soundness.**  A false hash equality would hand a caller the cached
result of a *different* problem, so the fingerprint never hashes a
lossy summary: it hashes a complete serialization of the problem under
a canonically chosen relabeling.  Network ids are canonicalized by
color refinement on the bipartite demand-access structure (initial
color = the network's shape payload, refined by the multiset of
accessing demand signatures until stable); demand ids by sorting the
id-free demand records.  Equal fingerprints therefore certify an
isomorphism between the two problems.  The converse direction is
best-effort: refinement-tied networks are ordered by their original
ids, which is exact when the tie is a true symmetry (any assignment
among interchangeable networks serializes identically) and at worst
costs a cache *miss* on exotic non-symmetric ties -- never a wrong
hit.

A cache hit on a relabeled-but-isomorphic problem returns the stored
result of the canonical representative: identical profits, schedule
shape and certificates, with ids drawn from the representative
submission.  Hits on a byte-identical resubmission (the overwhelmingly
common traffic pattern) are bit-identical outright.

:class:`SolveKnobs` folds the solve configuration -- epsilon, MIS
oracle, seed, engine, backend, decomposition -- into
the key, since each of those can change the semantic artifact.  The
``workers`` pool size is deliberately *excluded*: job chunking and the
ordered merge make the semantic tuple independent of pool sizing.

``capacity_epoch`` is the one knob that is *not* about the solve at
all: it is a monotonically bumped generation counter for mutable
serving state (link capacities re-planned, tenant quotas changed).
Folding it into the key means a bumped epoch simply *misses* -- the
new-epoch request solves fresh while old-epoch entries age out of the
LRU or are bulk-dropped via
:meth:`repro.service.cache.ResultCache.invalidate`\\ ``(epoch_below=)``
-- the ROADMAP's "TTL/invalidation hooks for mutable capacity".
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.algorithms.base import validate_engine_knobs
from repro.core.canonical import stable_digest
from repro.core.demand import WindowDemand
from repro.core.engines.backends import resolve_backend
from repro.core.problem import Problem
from repro.trees.tree import TreeNetwork

__all__ = [
    "Fingerprint",
    "SolveKnobs",
    "problem_canonical_form",
    "problem_fingerprint",
    "solve_fingerprint",
]

#: Version tags baked into every digest, so a change to the canonical
#: form can never collide with fingerprints minted by an older layout.
_PROBLEM_TAG = "problem/v1"
# v2: + capacity_epoch; v3: + admission engine; v4: admission engine
# and plan granularity dropped.
_KNOBS_TAG = "knobs/v4"
_SOLVE_TAG = "solve/v1"


@dataclass(frozen=True)
class Fingerprint:
    """A stable content hash, printable in short form for messages."""

    digest: str

    @property
    def short(self) -> str:
        """First 12 hex chars -- the form used in logs and errors."""
        return self.digest[:12]

    def __str__(self) -> str:
        return self.short


def _network_payload(net: TreeNetwork) -> Tuple:
    """The id-free shape of a network: vertices + undirected edges."""
    edges = tuple(sorted((u, v) for (_nid, u, v) in net.edges()))
    return ("net", net.vertices, edges)


def _demand_payload(demand) -> Tuple:
    """The id-free content of a demand (kind, endpoints/window, p, h)."""
    if isinstance(demand, WindowDemand):
        return (
            "window", demand.release, demand.deadline, demand.processing,
            float(demand.profit), float(demand.height),
        )
    return ("p2p", demand.u, demand.v, float(demand.profit), float(demand.height))


def _ranked(keyed: Dict) -> Dict[int, int]:
    """Replace each payload with its rank among the distinct payloads.

    Payload tuples are homogeneous per position (kind tag first, then
    ints/floats), so Python's native tuple ordering is a total,
    content-determined order -- no byte encoding needed on this hot
    path.
    """
    order = sorted(set(keyed.values()))
    rank = {v: i for i, v in enumerate(order)}
    return {k: rank[v] for k, v in keyed.items()}


def problem_canonical_form(problem: Problem) -> Tuple:
    """The problem as a nested tuple, invariant under id relabelings.

    Network ids are replaced by canonical indices found through color
    refinement (see the module docstring); demand records are id-free
    and sorted.  Feed the result to
    :func:`repro.core.canonical.stable_digest` -- or use
    :func:`problem_fingerprint`, which does exactly that.
    """
    nids = sorted(problem.networks)
    payload = {nid: _network_payload(problem.networks[nid]) for nid in nids}
    demand_payload = {
        a.demand_id: _demand_payload(a) for a in problem.demands
    }
    color = _ranked(payload)
    demand_rank = _ranked(demand_payload)
    # Color refinement on the demand-access bipartite structure.  Each
    # round folds the accessing demands' signatures into the network
    # colors.  Payloads enter only through their precomputed ranks, so
    # per-round signatures are small integer tuples (directly sortable,
    # no re-encoding of network shapes).  Refinement only ever *splits*
    # classes (the old color is part of the signature), so the class
    # count is strictly increasing until the fixpoint: an unchanged
    # count means an unchanged partition, and the loop runs at most
    # n_networks rounds.
    n_classes = len(set(color.values()))
    for _ in range(len(nids)):
        demand_sig = {
            a.demand_id: (
                demand_rank[a.demand_id],
                tuple(sorted(color[n] for n in problem.access[a.demand_id])),
            )
            for a in problem.demands
        }
        accessors: Dict[int, List] = {nid: [] for nid in nids}
        for a in problem.demands:
            for n in problem.access[a.demand_id]:
                accessors[n].append(demand_sig[a.demand_id])
        network_sig = {
            nid: (color[nid], tuple(sorted(accessors[nid])))
            for nid in nids
        }
        order = sorted(set(network_sig.values()))
        rank = {sig: i for i, sig in enumerate(order)}
        color = {nid: rank[network_sig[nid]] for nid in nids}
        if len(order) == n_classes:
            break
        n_classes = len(order)
    # Canonical network order: by final color; ties (interchangeable
    # networks) keep original-id order, which serializes identically
    # for true symmetries.
    canon_order = sorted(nids, key=lambda nid: (color[nid], nid))
    canon_id = {nid: i for i, nid in enumerate(canon_order)}
    records = sorted(
        (
            demand_payload[a.demand_id],
            tuple(sorted(canon_id[n] for n in problem.access[a.demand_id])),
        )
        for a in problem.demands
    )
    return (
        _PROBLEM_TAG,
        tuple(payload[nid] for nid in canon_order),
        tuple(records),
    )


def problem_fingerprint(problem: Problem) -> Fingerprint:
    """Fingerprint of the problem alone (no solve knobs)."""
    return Fingerprint(stable_digest(problem_canonical_form(problem)))


@dataclass(frozen=True)
class SolveKnobs:
    """The solve configuration folded into a cache key.

    Defaults mirror the service's solve path: the incremental engine,
    Luby's oracle, the ideal tree decomposition.  ``workers`` is an
    execution hint only -- it never changes the semantic artifact, so
    it is excluded from :meth:`canonical_form`.
    """

    epsilon: float = 0.1
    mis: str = "luby"
    seed: int = 0
    engine: str = "incremental"
    workers: Optional[int] = None
    backend: Optional[str] = None
    decomposition: str = "ideal"
    #: Capacity-generation tag (see module docstring): identical
    #: requests under different epochs key differently, so serving
    #: state that mutated in bulk can never be answered from a
    #: previous generation's cache entry.
    capacity_epoch: int = 0

    def validate(self) -> "SolveKnobs":
        """Reject invalid knob names *and combinations* early.

        The combination check matters to the cache: for serial engines
        :meth:`canonical_form` normalizes the parallel-only knobs away,
        so an invalid combination like ``engine="incremental",
        backend="process"`` would *key the same* as its valid
        normalization -- and whether it errored or silently succeeded
        would then depend on cache state.  Validating before any cache
        interaction (the service does) keeps rejection deterministic.
        """
        validate_engine_knobs(self.engine, self.backend)
        if self.capacity_epoch < 0:
            raise ValueError(
                f"capacity_epoch must be >= 0, got {self.capacity_epoch}"
            )
        if self.engine not in ("parallel", "vectorized"):
            for knob, value in (
                ("workers", self.workers),
                ("backend", self.backend),
            ):
                if value is not None:
                    raise ValueError(
                        f"{knob}= applies only to engine='parallel' or "
                        f"'vectorized', not {self.engine!r}"
                    )
        return self

    def canonical_form(self) -> Tuple:
        """The key-relevant knobs as a tuple.

        Assumes :meth:`validate` passed: the executor knob slots
        normalize to ``None`` for the serial engines, and
        ``backend=None`` resolves through the environment exactly as
        the engine would, so a run keyed under ``REPRO_BACKEND=process``
        cannot alias one keyed under the thread default.  The
        vectorized engine keys like the parallel one: its executor
        knobs route it through the same plan/execute/merge machinery
        (``kernel="vectorized"``).
        """
        backend = (
            resolve_backend(self.backend)
            if self.engine in ("parallel", "vectorized")
            else None
        )
        return (
            _KNOBS_TAG,
            float(self.epsilon),
            self.mis,
            int(self.seed),
            self.engine,
            backend,
            self.decomposition,
            int(self.capacity_epoch),
        )


def solve_fingerprint(problem: Problem, knobs: SolveKnobs) -> Fingerprint:
    """Fingerprint of (problem, solve configuration) -- the cache key."""
    form = (_SOLVE_TAG, problem_canonical_form(problem), knobs.canonical_form())
    return Fingerprint(stable_digest(form))
