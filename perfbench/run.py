"""Wire benchmark of the scheduling service, drift-normalized.

Run from the root of a checkout (the program is read from ``src/``)::

    python3 perfbench/run.py --workload cold-forest --seed 1 --seconds 20 --trace 0

A server child (:mod:`server`) serves the real newline-JSON endpoint of
``AsyncSchedulingService`` on the service defaults; this process is the
one client, on one connection, sending the workload's fixed stream
(:mod:`streams`) in a closed loop.  Every timing is in reference
seconds (:mod:`refloop`).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures the per-layer split: the stream of a third of
``--seconds`` on an untraced and on a traced server (:mod:`spans`), whose
ratio is the tracing overhead.  The last line of standard output is one JSON object.
See README.md in this directory for the metrics and their predictions.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import select
import socket
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import refloop
import streams
from refloop import Reference, median, normalize, proc_cpu_s, proc_hwm_mb
from spans import union_length

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SERVER = Path(__file__).resolve().parent / "server.py"
#: Fresh server starts per timed run; set-up time is their median.
SETUP_STARTS = 5
#: Sensitivity of a server start to the reference loop (see
#: :mod:`refloop`): spawn and import are partly kernel and file work,
#: and over 265 starts their wall time grew as the loop's to the 0.43.
SETUP_SENSITIVITY = 0.5
#: Fresh interpreters timed for ``setup.import_s`` in the traced run.
IMPORT_STARTS = 3
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Server:
    """One server child and the client's connection to it."""

    def __init__(self, keep_artifacts: bool = False,
                 trace_out: Optional[Path] = None) -> None:
        cmd = [sys.executable, str(SERVER)]
        if keep_artifacts:
            cmd.append("--keep-artifacts")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT,
        )
        self.sock = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line.startswith(b"PORT "):
                raise RuntimeError(f"server did not start (said {line!r})")
            self.sock = socket.create_connection(
                ("127.0.0.1", int(line.split()[1])), timeout=REPLY_TIMEOUT_S
            )
            self.rfile = self.sock.makefile("rb")
        except BaseException:
            self.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def call(self, message: dict) -> Tuple[float, dict]:
        """Send one request, wait for its response: (wall seconds, response)."""
        data = json.dumps(message).encode() + b"\n"
        t0 = time.perf_counter()
        self.sock.sendall(data)
        line = self.rfile.readline()
        wall = time.perf_counter() - t0
        if not line:
            raise RuntimeError("server closed the connection")
        return wall, json.loads(line)

    def close(self) -> None:
        """Close the connection and stdin; wait for the child to exit."""
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Row:
    """One request of a section, as the client saw it.  ``factor`` turns
    its wall time into reference seconds, from the loops around it."""

    req: streams.Request
    response: dict
    wall: float
    server_cpu: float
    factor: float

    @property
    def latency(self) -> float:
        return self.wall * self.factor


def drive(srv: Server, requests: List[streams.Request]) -> Tuple[List[Row], Reference]:
    """Send *requests* in a closed loop, a guarded reference loop before
    the first and after every request.  Server CPU is read before each
    send, so work the server finishes after replying is charged to the
    request that caused it."""
    ref = Reference(srv.pid)
    loops = [ref.measure()]
    marks: List[float] = []
    sent = []
    for req in requests:
        marks.append(proc_cpu_s(srv.pid))
        wall, response = srv.call(req.message)
        loops.append(ref.measure())
        sent.append((req, response, wall))
    marks.append(proc_cpu_s(srv.pid))
    rows = []
    for i, (req, response, wall) in enumerate(sent):
        factor = normalize(1.0, loops[i], loops[i + 1], req.sensitivity)
        rows.append(Row(req, response, wall, marks[i + 1] - marks[i], factor))
    return rows, ref


def start_server(workload: str, trace_out: Optional[Path] = None) -> Server:
    return Server(keep_artifacts=workload == "churn-mix", trace_out=trace_out)


def setup_times(workload: str) -> Tuple[List[float], List[List[float]]]:
    """Raw seconds from spawn to the first served response for
    :data:`SETUP_STARTS` fresh servers, and the reference loops run
    before and after each start."""
    ref = Reference(None)
    raw, loops = [], []
    for _ in range(SETUP_STARTS):
        before = [ref.measure() for _ in range(3)]
        t0 = time.perf_counter()
        srv = start_server(workload)
        try:
            _, response = srv.call(streams.probe(workload))
            wall = time.perf_counter() - t0
        finally:
            srv.close()
        if not response.get("ok"):
            raise RuntimeError(f"set-up probe failed: {response}")
        raw.append(wall)
        loops.append(before + [ref.measure() for _ in range(3)])
    return raw, loops


def import_times() -> List[float]:
    """Reference seconds for a fresh interpreter to import repro.service,
    as timed inside that interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.service; "
            "print(time.perf_counter() - t)")
    ref = Reference(None)
    r_prev = ref.measure()
    out = []
    for _ in range(IMPORT_STARTS):
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, check=True, timeout=START_TIMEOUT_S,
        )
        r_next = ref.measure()
        out.append(normalize(float(done.stdout.split()[-1]), r_prev, r_next,
                             SETUP_SENSITIVITY))
        r_prev = r_next
    return out


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
EXPECTED_STATUS = {
    "cold": ("miss",),
    # A write can revisit an earlier snapshot (add, then drop-recent),
    # which is an exact repeat and so a hit.
    "write": ("delta", "miss", "hit"),
    "read": ("hit",),
}


class Checker:
    """Re-derives response digests in this process with ``solve_auto``
    on the wire's effective knobs; one cold solve per distinct input."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from repro.algorithms.auto import solve_auto
        from repro.service.cache import report_semantic_digest
        from repro.service.fingerprint import SolveKnobs
        from repro.workloads import build_trajectory, build_workload

        self._solve_auto = solve_auto
        self._digest = report_semantic_digest
        self._knobs = SolveKnobs
        self._build_workload = build_workload
        self._build_trajectory = build_trajectory
        self._params = set(inspect.signature(solve_auto).parameters) - {"problem"}
        self._memo: Dict[tuple, str] = {}

    def digest(self, source: tuple) -> str:
        if source not in self._memo:
            if source[0] == "workload":
                _, name, size, seed = source
                problem = self._build_workload(name, size, seed=seed)
            else:
                _, name, size, seed, step = source
                problem = self._build_trajectory(
                    name, size, seed=seed, steps=step + 1
                )[step].problem
            knobs = self._knobs(seed=seed)
            kwargs = {k: getattr(knobs, k) for k in self._params if hasattr(knobs, k)}
            self._memo[source] = self._digest(self._solve_auto(problem, **kwargs))
        return self._memo[source]


def check_rows(rows: List[Row], solve_check: List[Row]) -> List[str]:
    """Failure messages, at most one per request: a response not ``ok``,
    an unexpected status, a digest that differs from the one served
    earlier for the same input, or (for *solve_check*) from a cold
    in-process solve."""
    failures: Dict[int, str] = {}
    served: Dict[tuple, str] = {}
    for row in rows:
        r, rid = row.response, row.req.id
        if not r.get("ok"):
            failures[rid] = f"request {rid}: {r.get('error')}"
        elif r.get("status") not in EXPECTED_STATUS[row.req.kind]:
            failures[rid] = f"request {rid}: status {r.get('status')} for a {row.req.kind}"
        elif served.setdefault(row.req.source, r["semantic_digest"]) != r["semantic_digest"]:
            failures[rid] = f"request {rid}: digest differs from an earlier reply"
    if solve_check:
        checker = Checker()
        for row in solve_check:
            rid = row.req.id
            if rid in failures:
                continue
            if row.response.get("semantic_digest") != checker.digest(row.req.source):
                failures[rid] = f"request {rid}: digest differs from solve_auto"
    return [failures[k] for k in sorted(failures)]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def latency_summary(rows: List[Row]) -> dict:
    lat = [row.latency for row in rows]
    pct, tail_value, beyond = refloop.tail(lat)
    half = len(rows) // 2
    return {
        "n": len(rows),
        "p50": median(lat),
        "tail_pct": pct,
        "tail": tail_value,
        "tail_beyond": beyond,
        "raw_p50": median([row.wall for row in rows]),
        "raw_tail": refloop.nearest_rank([row.wall for row in rows], pct)[0],
        "first_half_p50": median(lat[:half]),
        "second_half_p50": median(lat[half:]),
    }


def kind_latencies(rows: List[Row], kind: str, statuses: Tuple[str, ...]) -> List[float]:
    """Reference-second latencies of the *kind* requests answered with
    one of *statuses*."""
    return [row.latency for row in rows
            if row.req.kind == kind and row.response.get("status") in statuses]


def mean(values: List[float]) -> float:
    """The mean, or 0 for no values (a workload without that request kind)."""
    return sum(values) / len(values) if values else 0.0


def timed_run(workload: str, seed: int, seconds: float) -> Tuple[dict, int, int]:
    setup_raw, setup_loops = setup_times(workload)
    setup_norm = [normalize(w, mean(l[:3]), mean(l[3:]), SETUP_SENSITIVITY)
                  for w, l in zip(setup_raw, setup_loops)]
    requests = streams.build(workload, seed, streams.units(workload, seconds))
    srv = start_server(workload)
    try:
        srv.call(streams.probe(workload))
        t0 = time.perf_counter()
        rows, ref = drive(srv, requests)
        section_s = time.perf_counter() - t0
        hwm = proc_hwm_mb(srv.pid)
    finally:
        srv.close()
    sample = {r.id for r in streams.check_sample(requests)}
    failures = check_rows(rows, [row for row in rows if row.req.id in sample])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"rows-{workload}-{seed}-{os.getpid()}.json", "w") as fh:
        json.dump({
            "setup_raw": setup_raw, "setup_loops": setup_loops,
            "loops": ref.readings,
            "rows": [[r.req.id, r.req.kind, r.response.get("status"), r.wall,
                      r.response.get("latency_s"), r.server_cpu, r.factor]
                     for r in rows],
        }, fh)
    lat = latency_summary(rows)
    total = sum(row.latency for row in rows)
    cpu = sum(row.server_cpu * row.factor for row in rows) / len(rows)
    say(f"{workload} seed={seed}: {len(rows)} requests in {section_s:.1f} s, "
        f"{len(failures)} failed, {ref.violations} guard violations")
    say(f"setup_s: median {median(setup_norm):.4f} ref-s of {SETUP_STARTS} starts "
        f"(raw median {median(setup_raw):.4f} s)")
    say(f"latency_p50_s {lat['p50']:.4f} ref-s (raw {lat['raw_p50']:.4f} s); "
        f"latency_tail_s = p{lat['tail_pct']:g} {lat['tail']:.4f} ref-s "
        f"(raw {lat['raw_tail']:.4f} s), {lat['tail_beyond']} of {lat['n']} samples beyond")
    say(f"requests_per_s {len(rows) / total:.4f} (raw {len(rows) / sum(r.wall for r in rows):.4f}); "
        f"cpu_s_per_req {cpu:.4f} ref-s (raw {sum(r.server_cpu for r in rows) / len(rows):.4f} s)")
    say(f"drift check: p50 first half {lat['first_half_p50']:.4f}, "
        f"second half {lat['second_half_p50']:.4f} ref-s")
    if workload == "churn-mix":
        writes = kind_latencies(rows, "write", ("delta", "miss"))
        reads = kind_latencies(rows, "read", ("hit",))
        say(f"delta writes: {len(writes)}, p50 {median(writes):.4f}, mean {mean(writes):.4f} ref-s; "
            f"hit reads: {len(reads)}, p50 {median(reads):.4f}, mean {mean(reads):.4f} ref-s")
    for msg in failures[:10]:
        say(f"FAILED {msg}")
    metrics = {
        "setup_s": metric(median(setup_norm), "s"),
        "requests_per_s": metric(len(rows) / total, "1/s"),
        "latency_p50_s": metric(lat["p50"], "s"),
        "latency_tail_s": metric(lat["tail"], "s"),
        "cpu_s_per_req": metric(cpu, "s"),
        "peak_rss_mb": metric(hwm, "MB"),
    }
    return metrics, len(rows), len(failures)


# ----------------------------------------------------------------------
# Traced run: the per-layer split
# ----------------------------------------------------------------------
#: Per-layer time metric -> span names; each is their self time, in
#: reference seconds per request of the traced section.  Only layers
#: that every workload runs get a time (a layer a workload never runs
#: would read exactly 0 s on every run); the others get a share.
LAYER_TIMES = {
    "workloads.build_s": ("workloads.build",),
    "fingerprint.solve_s": ("fingerprint.solve",),
    "layout.s": ("trees.layout", "lines.layout"),
    "first_phase.s": ("first_phase",),
    "admission.s": ("admission",),
    "digest.s": ("digest",),
    "solve.self_s": ("solve",),
    "cache.probe_s": ("cache.probe",),
    "front.self_s": ("wire.dispatch",),
}
#: Per-layer share metric -> span name: its self time over the summed
#: duration of the traced requests' root spans.
LAYER_SHARES = {
    "trees.layout_share": "trees.layout",
    "lines.layout_share": "lines.layout",
    "delta.solve_share": "delta.solve",
}
#: Per-layer count metric -> (span name, attribute), summed over spans.
LAYER_COUNTS = {
    "first_phase.raises": ("first_phase", "raises"),
    "first_phase.mis_rounds": ("first_phase", "mis_rounds"),
    "first_phase.steps": ("first_phase", "steps"),
    "first_phase.satisfaction_checks": ("first_phase", "satisfaction_checks"),
    "first_phase.adjacency_touches": ("first_phase", "adjacency_touches"),
    "admission.checks": ("admission", "checks"),
    "admission.admitted": ("admission", "admitted"),
    "cache.hits": ("cache.probe", "hit"),
}


def layer_split(spans: List[dict], rows: List[Row]) -> Tuple[dict, dict]:
    """Self time per span name (reference seconds, summed over the
    requests of *rows*) and attribute totals per (name, attribute).
    Spans of other requests (the set-up probe, the stats op) are left out."""
    factor = {row.req.id: row.factor for row in rows}
    kids = defaultdict(list)
    for sp in spans:
        kids[sp["parent"]].append(sp)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[tuple, int] = defaultdict(int)
    for sp in spans:
        f = factor.get(sp["request"])
        if f is None:
            continue
        covered = union_length(
            [(c["start"], c["end"]) for c in kids[sp["id"]]], sp["start"], sp["end"]
        )
        self_s[sp["name"]] += (sp["end"] - sp["start"] - covered) * f
        for key, value in sp["attrs"].items():
            counts[(sp["name"], key)] += value
    return self_s, counts


def traced_run(workload: str, seed: int, seconds: float) -> Tuple[dict, int, int]:
    requests = streams.build(workload, seed, streams.units(workload, seconds / 3))
    imports = import_times()
    srv = start_server(workload)
    try:
        srv.call(streams.probe(workload))
        plain, ref_plain = drive(srv, requests)
    finally:
        srv.close()
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-{seed}-{os.getpid()}.jsonl"
    srv = start_server(workload, trace_out=span_file)
    try:
        srv.call(streams.probe(workload))
        traced, ref_traced = drive(srv, requests)
        _, stats = srv.call({"op": "stats", "id": "stats"})
    finally:
        srv.close()
    with open(span_file) as fh:
        spans = [json.loads(line) for line in fh]
    failures = check_rows(plain, []) + check_rows(traced, traced)
    for msg in failures[:10]:
        say(f"FAILED {msg}")

    n = len(traced)
    self_s, counts = layer_split(spans, traced)
    service = stats["stats"]["service"]
    cache, totals = service["cache"], service["delta_totals"]
    replays = totals["epochs_replayed"] + totals["epochs_rerun"]
    lat_plain = latency_summary(plain)
    mean_plain = mean([r.latency for r in plain])
    mean_traced = mean([r.latency for r in traced])
    served = sum(self_s.values())
    metrics = {name: metric(sum(self_s.get(sp, 0.0) for sp in names) / n, "s")
               for name, names in LAYER_TIMES.items()}
    metrics.update({name: metric(self_s.get(span, 0.0) / served, "ratio")
                    for name, span in LAYER_SHARES.items()})
    metrics.update({name: metric(counts.get(key, 0), "count")
                    for name, key in LAYER_COUNTS.items()})
    metrics.update({
        "cache.hit_ratio": metric(cache["hit_ratio"], "ratio"),
        "cache.evictions": metric(cache["evictions"], "count"),
        "delta.warm_ratio": metric(
            service["delta_outcomes"]["warm"] / service["delta_requests"]
            if service["delta_requests"] else 0.0, "ratio"),
        "delta.epoch_replay_ratio": metric(
            totals["epochs_replayed"] / replays if replays else 0.0, "ratio"),
        "delta.layouts_reused": metric(totals["layouts_reused"], "count"),
        "delta.admission_replayed": metric(totals["admission_replayed"], "count"),
        "delta.requests": metric(service["delta_requests"], "count"),
        "server.latency_s": metric(
            sum(r.response["latency_s"] * r.factor for r in plain) / len(plain), "s"),
        "wire.unattributed_s": metric(
            sum((r.wall - r.response["latency_s"]) * r.factor for r in plain)
            / len(plain), "s"),
        "setup.import_s": metric(median(imports), "s"),
        "machine.ref_loop_s": metric(median(ref_plain.readings), "s"),
        "machine.wall_latency_p50_s": metric(lat_plain["raw_p50"], "s"),
        "machine.guard_violations": metric(
            ref_plain.violations + ref_traced.violations, "count"),
        "machine.half_ratio": metric(
            lat_plain["second_half_p50"] / lat_plain["first_half_p50"], "ratio"),
        "trace.overhead_ratio": metric(mean_traced / mean_plain, "ratio"),
    })
    front = stats["stats"]
    for key, value in (
        ("served", front["served"]), ("peak_active", front["peak_active"]),
        ("peak_queued", front["peak_queued"]), ("solves", service["solves"]),
        ("coalesced", service["coalesced"]),
    ):
        metrics[f"front.stats.{key}"] = metric(value, "count")
    say(f"{workload} seed={seed} traced: {n} requests per section, "
        f"{len(failures)} failed, {len(spans)} spans in {span_file.name}")
    width = max(len(k) for k in metrics)
    for key in sorted(metrics):
        say(f"{key:<{width}}  {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    return metrics, len(plain) + n, len(failures)


def say(text: str) -> None:
    print(f"# {text}", flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description="Wire benchmark of the scheduling service.")
    ap.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "service" / "async_front.py").is_file():
        print(f"perfbench: no program under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    # Client and server share one CPU (children inherit the affinity).
    # The closed loop never runs them at once, and the reference loop
    # then times the CPU the server runs on, not its neighbour.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = traced_run if args.trace else timed_run
    metrics, attempted, failed = run(args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
