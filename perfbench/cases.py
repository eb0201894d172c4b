"""The three workloads: seeded inputs, one closed-loop round, and the
independent checks of every output.

A round builds a fresh job, feeds the whole stream, drives it to its
results and checks each one.  Rounds of one run cycle through a few
graphs drawn from its seed, so their medians speak for the input
distribution, not one graph.  Checks are made apart from the program:
the repo's Dijkstra oracle on the edge set replayed from the stream, and
the PageRank fixed-point residual plus an L1 bound against
``reference_pagerank``.  A wrong answer is a failed operation.  Check
time is kept out of every timed figure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.algorithms import EdgeStreamRouter, PageRankProgram, SSSPProgram
from repro.algorithms.pagerank import reference_pagerank
from repro.algorithms.sssp import reference_sssp
from repro.core import Application, TornadoConfig, TornadoJob
from repro.datagen import livejournal_like
from repro.streams import (ADD_EDGE, BurstyRate, StreamTuple, UniformRate,
                           edge_stream)

import hygiene

SOURCE = 0
DELETE_FRACTION = 0.1
#: Virtual seconds between quiescence polls (kept short: each poll is a
#: cheap Python call, the sim steps are the measured work).
POLL = 0.01
#: Fully activated branch-loop ranking refreshes after each PageRank
#: round's ingestion.
PAGERANK_QUERIES = 3


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's input (see the README)."""

    vertices: int
    edges: int
    epochs: int = 1
    rate: float = 2000.0
    epoch_gap: float = 1.0
    burst_size: int = 0
    burst_period: float = 0.0
    tolerance: float = 0.003
    damping: float = 0.85
    workers: int = 1
    #: Graphs drawn per run from its seed; rounds cycle through them, so
    #: a run's medians speak for the input distribution, not one graph.
    graphs: int = 4


SHAPES = {
    "sim-sssp-evolving": Shape(vertices=400, edges=2000, epochs=8,
                               graphs=8),
    "sim-pagerank-burst": Shape(vertices=150, edges=750, burst_size=75,
                                burst_period=0.2),
    "live-sssp-1w": Shape(vertices=120, edges=500, workers=1),
}


@dataclass
class Input:
    workload: str
    shape: Shape
    stream: list
    #: Stream index one past each epoch's last tuple.
    epoch_ends: list[int]
    #: Expected result after each epoch: Dijkstra's distances, or the
    #: final edge set with its reference ranks.
    expected: list[Any]


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    timed_s: float
    query_s: list[float]
    tuples: int = 0
    ops: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    worker_rss_mb: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


# ------------------------------------------------------------------ inputs
def _graph(shape: Shape, seed: int) -> list[tuple[int, int]]:
    # R-MAT plus star edges from the source; duplicates dropped so that
    # set and multiset replay of the stream agree.
    return list(dict.fromkeys(livejournal_like(shape.vertices, shape.edges,
                                               seed=seed)))


def replay(stream: list, until: int, edges: set | None = None) -> set:
    """The live edge set after the first ``until`` tuples."""
    edges = set() if edges is None else edges
    for tup in stream[:until]:
        if tup.kind == ADD_EDGE:
            edges.add(tup.payload)
        else:
            edges.discard(tup.payload)
    return edges


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The run's inputs: ``graphs`` graphs, each from its own sub-seed."""
    graphs = SHAPES[workload].graphs
    return [make_input(workload, seed * graphs + index)
            for index in range(graphs)]


def make_input(workload: str, seed: int) -> Input:
    shape = SHAPES[workload]
    edges = _graph(shape, seed)
    rng = np.random.default_rng(seed)
    if workload == "sim-pagerank-burst":
        stream = edge_stream(edges, BurstyRate(shape.burst_size,
                                               shape.burst_period),
                             delete_fraction=DELETE_FRACTION, rng=rng)
        final = replay(stream, len(stream))
        return Input(workload, shape, stream, [len(stream)],
                     [(final, reference_pagerank(list(final),
                                                 shape.damping))])
    base = edge_stream(edges, UniformRate(rate=shape.rate),
                       delete_fraction=DELETE_FRACTION, rng=rng)
    per = math.ceil(len(base) / shape.epochs)
    ends = [min(len(base), per * (k + 1)) for k in range(shape.epochs)]
    if workload == "live-sssp-1w":
        # The live ingester releases parked input when the pump is idle,
        # not by timestamp: the whole stream is one batch.
        return Input(workload, shape, base, [len(base)],
                     [dijkstra(replay(base, len(base)))])
    # Epoch k arrives at the source rate from k * (span + gap), so the
    # main loop can settle before the next epoch's first tuple.
    span = per / shape.rate
    stream = [StreamTuple((i // per) * (span + shape.epoch_gap)
                          + (i % per + 1) / shape.rate,
                          tup.kind, tup.payload, tup.weight)
              for i, tup in enumerate(base)]
    expected, live, done = [], set(), 0
    for end in ends:
        live = replay(stream[done:end], end - done, live)
        done = end
        expected.append(dijkstra(live))
    return Input(workload, shape, stream, ends, expected)


# ------------------------------------------------------------------ checks
def dijkstra(edges: set) -> dict[Any, float]:
    """Distances from ``SOURCE`` by the repo's Dijkstra oracle (unit
    weights); unreachable vertices are absent."""
    return {vertex: dist for vertex, dist
            in reference_sssp(list(edges), SOURCE).items()
            if dist != math.inf}


def check_sssp(values: dict[Any, Any], expected: dict[Any, float]
               ) -> str | None:
    """None when every vertex's distance equals Dijkstra's."""
    for vertex in set(values) | set(expected):
        got = values[vertex].distance if vertex in values else math.inf
        want = expected.get(vertex, math.inf)
        if got != want:
            return f"vertex {vertex}: distance {got}, expected {want}"
    return None


def check_pagerank(values: dict[Any, Any], edges: set, shape: Shape,
                   reference: dict[Any, float]) -> str | None:
    """None when every vertex's fixed-point residual is within the
    tolerance and the L1 distance to ``reference_pagerank`` is within
    n * tol / (1 - d)."""
    d, tol = shape.damping, shape.tolerance
    vertices = set(values) | set(reference)
    missing = set(reference) - set(values)
    if missing:
        return f"{len(missing)} vertices have no rank, e.g. {min(missing)}"
    rank = {v: values[v].rank for v in vertices}
    outs: dict[Any, list[Any]] = {}
    for u, v in edges:
        outs.setdefault(u, []).append(v)
    contribs: dict[Any, list[float]] = {v: [] for v in vertices}
    for u, targets in outs.items():
        for v in targets:
            contribs[v].append(rank[u] / len(targets))
    # fsum as in the program, plus slack for the last bit of rounding.
    for v in vertices:
        residual = abs(rank[v] - (1.0 - d + d * math.fsum(contribs[v])))
        if residual > tol + 1e-12:
            return f"vertex {v}: residual {residual:.6f} > {tol}"
    l1 = math.fsum(abs(rank[v] - reference.get(v, 1.0 - d))
                   for v in vertices)
    bound = len(vertices) * tol / (1.0 - d)
    if l1 > bound:
        return f"L1 distance {l1:.4f} to the reference > {bound:.4f}"
    return None


# ------------------------------------------------------------------ rounds
def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _quiesce(job: TornadoJob, ingested: int) -> None:
    """Run until ``ingested`` tuples are in and the main loop is idle.
    The predicate is one attribute read; idleness is polled between
    short runs (``run_until_quiescent`` never returns on this job).
    ``quiescent()`` looks at the processors only, so the ingester's
    unacknowledged inputs are waited for too (see CHANGES.md)."""
    ingester = job.ingester
    job.run_until(lambda: ingester.tuples_ingested >= ingested)
    while ingester.transport.unacked or not job.quiescent():
        job.run_for(POLL)


def _sim_counters(job: TornadoJob) -> dict[str, float]:
    store = job.store
    endpoints = job.endpoints()
    return {"events": job.sim.events_processed,
            "sends": sum(e.sent_reliable for e in endpoints),
            "retransmissions": sum(e.retransmissions for e in endpoints),
            "commits": job.total_commits,
            "prepares": job.total_prepares,
            "updates_gathered": job.total_updates_gathered,
            "cache_hits": store.cache_hits,
            "cache_misses": store.cache_misses,
            "versions": store.version_count(),
            "store_bytes": store.approx_bytes()}


def _round_sssp(inp: Input, hooks: Hooks) -> Round:
    shape = inp.shape
    started = time.perf_counter()
    job = TornadoJob(Application(
        SSSPProgram(SOURCE, max_distance=float(shape.vertices)),
        EdgeStreamRouter(), name="sssp"), TornadoConfig(n_processors=4))
    job.feed(inp.stream)
    out = Round(setup_s=time.perf_counter() - started, timed_s=0.0,
                query_s=[])
    hooks.begin()
    check_s = 0.0
    started = time.perf_counter()
    for end, expected in zip(inp.epoch_ends, inp.expected):
        _quiesce(job, end)
        result, query_s = _timed(job.query_and_wait)
        out.query_s.append(query_s)
        problem, spent = _timed(lambda: check_sssp(result.values, expected))
        check_s += spent
        out.ops += 1
        if problem:
            out.failed += 1
            out.wrong.append(f"epoch ending at tuple {end}: {problem}")
    out.timed_s = time.perf_counter() - started - check_s
    hooks.end()
    out.counters = _sim_counters(job)
    return out


def _round_pagerank(inp: Input, hooks: Hooks) -> Round:
    shape = inp.shape
    edges, reference = inp.expected[0]
    started = time.perf_counter()
    job = TornadoJob(Application(
        PageRankProgram(damping=shape.damping, tolerance=shape.tolerance),
        EdgeStreamRouter(), name="pagerank"), TornadoConfig(n_processors=4))
    job.feed(inp.stream)
    out = Round(setup_s=time.perf_counter() - started, timed_s=0.0,
                query_s=[])
    hooks.begin()
    started = time.perf_counter()
    _quiesce(job, len(inp.stream))
    values = job.main_values()
    out.timed_s = time.perf_counter() - started
    problems = [check_pagerank(values, edges, shape, reference)]
    # Ranking refreshes come after the ingestion figure, so their reads
    # do not enter tuples_per_s on this write-heavy workload.  Each one
    # activates every vertex: a whole re-ranking from the approximation.
    for _ in range(PAGERANK_QUERIES):
        result, query_s = _timed(
            lambda: job.query_and_wait(full_activation=True))
        out.query_s.append(query_s)
        problems.append(check_pagerank(result.values, edges, shape,
                                       reference))
    hooks.end()
    out.counters = _sim_counters(job)
    out.ops += len(problems)
    out.failed += sum(1 for problem in problems if problem)
    out.wrong.extend(f"result {index}: {problem}"
                     for index, problem in enumerate(problems) if problem)
    return out


def _drive_live(inp: Input, hooks: Hooks) -> tuple[Round, dict]:
    shape = inp.shape
    started = time.perf_counter()
    job = TornadoJob(Application(
        SSSPProgram(SOURCE, max_distance=float(shape.vertices)),
        EdgeStreamRouter(), name="sssp"),
        TornadoConfig(backend="live", n_processors=shape.workers))
    try:
        job.finalize()  # every worker is up and answering
        job.feed(inp.stream)
        out = Round(setup_s=time.perf_counter() - started, timed_s=0.0,
                    query_s=[])
        hooks.begin()
        started = time.perf_counter()
        job.run_until_converged(timeout=120.0)
        reports = job.finalize()
        values = job.main_values()
        out.timed_s = time.perf_counter() - started
        hooks.end()
        out.query_s.append(out.timed_s)
        out.worker_rss_mb = hygiene.worker_peak_rss_mb()
        endpoints = job.endpoints()
        out.counters = {
            "sends": sum(e.sent_reliable for e in endpoints),
            "retransmissions": sum(e.retransmissions for e in endpoints),
            "worker_events": sum(r.events_processed
                                 for r in reports.values()),
            "worker_retransmissions": sum(r.retransmissions
                                          for r in reports.values()),
            "commits": job.total_commits,
            "prepares": job.total_prepares,
            "updates_gathered": job.total_updates_gathered,
            "cache_hits": job.store.cache_hits,
            "cache_misses": job.store.cache_misses,
            "versions": job.store.version_count(),
            "store_bytes": job.store.approx_bytes(),
        }
    finally:
        job.shutdown()
    return out, values


def _round_live(inp: Input, hooks: Hooks) -> Round:
    try:
        out, values = _drive_live(inp, hooks)
    finally:
        hygiene.stop_resource_tracker()
    out.ops += 1
    problem = check_sssp(values, inp.expected[0])
    if problem:
        out.failed += 1
        out.wrong.append(problem)
    return out


class Hooks:
    """What a round calls around its timed region (the traced run
    installs the tracer there)."""

    def begin(self) -> None:
        pass

    def end(self) -> None:
        pass


#: The vertex program class each workload runs (the tracer wraps it).
PROGRAMS = {
    "sim-sssp-evolving": SSSPProgram,
    "sim-pagerank-burst": PageRankProgram,
    "live-sssp-1w": SSSPProgram,
}

ROUNDS = {
    "sim-sssp-evolving": _round_sssp,
    "sim-pagerank-burst": _round_pagerank,
    "live-sssp-1w": _round_live,
}


def ops_per_round(inp: Input) -> int:
    """Operations every round attempts: each checked result, plus the
    process-hygiene check."""
    results = {"sim-sssp-evolving": len(inp.epoch_ends),
               "sim-pagerank-burst": 1 + PAGERANK_QUERIES,
               "live-sssp-1w": 1}
    return results[inp.workload] + 1


def run_round(inp: Input, hooks: Hooks) -> Round:
    """One round, then the process-hygiene operation: any descendant
    process still alive is killed and counted as a failed operation."""
    out = ROUNDS[inp.workload](inp, hooks)
    out.tuples = len(inp.stream)
    out.ops += 1
    leftovers = hygiene.reap_leftovers()
    if leftovers:
        out.failed += 1
        out.failures.append("processes left alive: " + "; ".join(leftovers))
    return out
