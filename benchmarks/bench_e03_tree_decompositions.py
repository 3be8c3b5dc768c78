"""E3 -- Section 4.2/4.3, Lemma 4.1: tree-decomposition parameters.

Claims reproduced: root-fixing achieves pivot size 1 but depth up to n;
balancing achieves depth <= ceil(log n) + 1 but pivots up to its depth;
the ideal decomposition achieves depth <= 2 ceil(log n) + 1 AND pivot
size <= 2, on every tree shape.

Next to depth and theta, the table reports each decomposition's build
time and the time to compute all its pivot sets (best of
``TIMING_REPEATS`` wall-clock runs, in ms), so the layout cost of the
tree solves is tracked outside the end-to-end benchmark.
"""
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import table

from repro import build_balancing, build_ideal, build_root_fixing
from repro.workloads.trees import random_tree

BUILDERS = [
    ("root-fixing", build_root_fixing),
    ("balancing", build_balancing),
    ("ideal", build_ideal),
]
SHAPES = ("path", "star", "caterpillar", "binary", "uniform")
SIZES = (64, 256, 1024)
TIMING_REPEATS = 3


def timed_build(builder, net):
    """``(decomposition, build ms, pivot-set ms)``, best of
    ``TIMING_REPEATS`` runs each; the pivot sets are computed afresh on
    every run."""
    build_s = pivot_s = float("inf")
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        td = builder(net)
        t1 = time.perf_counter()
        td.pivot_size
        t2 = time.perf_counter()
        build_s, pivot_s = min(build_s, t1 - t0), min(pivot_s, t2 - t1)
    return td, 1e3 * build_s, 1e3 * pivot_s


def run_experiment():
    rows = []
    worst = {name: {"depth_over_log": 0.0, "pivot": 0} for name, _ in BUILDERS}
    for n in SIZES:
        log_term = math.ceil(math.log2(n))
        for shape in SHAPES:
            net = random_tree(n, seed=13, shape=shape)
            for name, builder in BUILDERS:
                td, build_ms, pivot_ms = timed_build(builder, net)
                rows.append([
                    n, shape, name, td.max_depth, td.pivot_size,
                    f"{build_ms:.2f}", f"{pivot_ms:.2f}",
                ])
                worst[name]["depth_over_log"] = max(
                    worst[name]["depth_over_log"], td.max_depth / log_term
                )
                worst[name]["pivot"] = max(worst[name]["pivot"], td.pivot_size)
                if name == "ideal":
                    assert td.pivot_size <= 2, "Lemma 4.1 pivot bound violated"
                    assert td.max_depth <= 2 * log_term + 1, "Lemma 4.1 depth bound violated"
                if name == "root-fixing":
                    assert td.pivot_size <= 1
                if name == "balancing":
                    assert td.max_depth <= log_term + 1
                    assert td.pivot_size <= td.max_depth

    # Shape claims: root-fixing depth is Theta(n) on a path; balancing
    # pivots exceed 2 somewhere; ideal never does.
    path_net = random_tree(SIZES[-1], seed=13, shape="path")
    assert build_root_fixing(path_net).max_depth == SIZES[-1]
    assert worst["balancing"]["pivot"] > 2
    assert worst["ideal"]["pivot"] <= 2

    out = table(
        ["n", "shape", "decomposition", "depth", "pivot size", "build ms", "pivots ms"],
        rows,
    )
    return "E3 - Tree decompositions (Lemma 4.1)", out, worst


def bench_e03_build_ideal(benchmark):
    net = random_tree(1024, seed=13, shape="uniform")
    td = benchmark(build_ideal, net)
    assert td.pivot_size <= 2


if __name__ == "__main__":
    title, out, _ = run_experiment()
    print(title, "\n", out, sep="")
