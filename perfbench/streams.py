"""The fixed, seeded request streams of the benchmark's workloads.

A stream is a whole number of *units* (see :data:`UNITS_PER_S`), and its
length depends only on ``--seconds``, never on how fast the program
answers, so the parent and a change receive exactly the same requests
in the same order, and the result cache fills the same way on both.

The units come from a fixed corpus: unit ``u`` of a workload always
carries the same inputs, and ``--seed`` only shuffles the order in
which a run sends them.  Runs of every seed therefore send the same
set of requests, so the spread between seeds is the measurement's and
not that of the instance sizes each seed happens to draw.
This module imports nothing from the program under test.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Cold workloads: (registry workload, size).  Every request carries a
#: seed of its own, so every request is a cache miss.
COLD: Dict[str, Tuple[str, int]] = {
    "cold-forest": ("multi-tenant-forest", 400),
    "cold-lines": ("bursty-lines", 200),
}
#: churn-mix alternates these trajectories, one rotation each per unit.
CHURN: Tuple[Tuple[str, int], ...] = (("tenant-churn", 400), ("churn-lines", 200))
#: Trajectory steps written per rotation.  The wire rebuilds snapshot k
#: from the base in O(k), so the bound keeps writes comparable.  Two
#: steps make a rotation cold, write, read, write, read: the median
#: then lies inside the write mode and the tail inside the tenant-churn
#: cold mode, instead of in the gaps between modes, where either would
#: jump with the mix of mutation kinds a seed happens to draw.
CHURN_STEPS = 2
WORKLOADS = ("cold-forest", "cold-lines", "churn-mix")
#: Units per second of ``--seconds``: a unit is one request on the cold
#: workloads and one rotation per trajectory on churn-mix.  A timed
#: section lasts about ``--seconds`` reference seconds.  They are
#: constants, so the stream of a given ``--seconds`` never changes.
UNITS_PER_S = {"cold-forest": 8.0, "cold-lines": 9.0, "churn-mix": 1.33}
#: How strongly a request's time follows the reference loop (see
#: :mod:`refloop`), per input family: the slope of log(latency) on
#: log(loop) that gave the smallest spread between seeds at the commit
#: that introduced the benchmark.  The interpreter-bound first phase of
#: the line families follows the loop almost fully; the tree families
#: spend most of their time in numpy-heavy tree layout, which follows
#: it less.
SENSITIVITY = {
    "multi-tenant-forest": 0.5, "tenant-churn": 0.5,
    "bursty-lines": 0.9, "churn-lines": 0.9,
}
#: Requests per timed run whose digests are re-derived in process.
CHECK_SAMPLE = 8
#: Instance seed of corpus entry 0; disjoint from the probe's seed.
CORPUS_BASE = 1_000_000


@dataclass(frozen=True)
class Request:
    """One wire request and what it should be answered with.

    ``kind`` is ``cold`` (a fresh input; status ``miss``), ``write`` (a
    ``solve_delta`` of the next trajectory snapshot) or ``read`` (an
    exact repeat of an earlier snapshot; status ``hit``).  ``source``
    names the input for the in-process check: ``("workload", name,
    size, seed)`` or ``("trajectory", name, size, seed, step)``.
    """

    id: int
    kind: str
    message: dict
    source: tuple

    @property
    def sensitivity(self) -> float:
        return SENSITIVITY[self.source[1]]


def units(workload: str, seconds: float) -> int:
    """Units in a timed section of *seconds*: at least two, and even,
    so the two halves of the stream carry the same mix."""
    n = max(2, round(seconds * UNITS_PER_S[workload]))
    return n + n % 2


def build(workload: str, seed: int, n_units: int) -> List[Request]:
    """The first *n_units* units of *workload*'s corpus, in the order
    that *seed* shuffles them into."""
    order = list(range(n_units))
    random.Random(f"{workload}/{seed}").shuffle(order)
    out: List[Request] = []

    def add(kind: str, message: dict, source: tuple) -> None:
        rid = len(out)
        out.append(Request(rid, kind, dict(message, id=rid), source))

    if workload in COLD:
        name, size = COLD[workload]
        for u in order:
            s = CORPUS_BASE + u
            add("cold", {"workload": name, "size": size, "seed": s},
                ("workload", name, size, s))
        return out
    if workload != "churn-mix":
        raise ValueError(f"unknown workload {workload!r}")
    for u in order:
        for j, (name, size) in enumerate(CHURN):
            tseed = CORPUS_BASE + u * len(CHURN) + j
            reads = random.Random(tseed)

            def snapshot(kind: str, step: int, op: str = "solve") -> None:
                add(kind, {"op": op, "trajectory": name, "size": size,
                           "seed": tseed, "step": step},
                    ("trajectory", name, size, tseed, step))

            snapshot("cold", 0)
            for step in range(1, CHURN_STEPS + 1):
                snapshot("write", step, "solve_delta")
                snapshot("read", reads.randrange(step))
    return out


def probe(workload: str) -> dict:
    """The small request a fresh server answers first: set-up ends with
    its response.  Its input is disjoint from every stream's."""
    name = COLD["cold-lines" if workload == "cold-lines" else "cold-forest"][0]
    return {"workload": name, "size": 16, "seed": 0, "id": -1}


def check_sample(requests: List[Request]) -> List[Request]:
    """A fixed, evenly spaced sample of *requests* for the in-process
    digest check; on churn-mix it is drawn from the writes, whose delta
    digests must equal a cold solve of the same snapshot."""
    pool = [r for r in requests if r.kind == "write"] or requests
    step = max(1, len(pool) // CHECK_SAMPLE)
    return pool[::step][:CHECK_SAMPLE]
