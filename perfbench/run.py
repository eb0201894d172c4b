"""End-to-end benchmark: evolving-graph SSSP and PageRank on the sim and
live backends, with per-layer timing from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-sssp-evolving --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured with no tracer installed.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
of the traced ones, plus the tracing overhead; the spans of its last
traced round are written to ``.perfbench-out/``.  Progress goes to
standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
#: Fresh-interpreter import timings: three before the first round, then
#: one before each round up to this many, so the samples span the run
#: (setup_s takes their median).  Each is part of its round: a sample
#: that fails fails the round.
IMPORT_SAMPLES = 12
#: Measured rounds of each kind a run makes at least, however short
#: ``--seconds`` is.  One more untraced round comes first to warm caches
#: and lazy set-up; it is checked but its figures are not reported.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
IMPORT_CODE = ("import time; started = time.perf_counter(); "
               "import repro.core, repro.algorithms, repro.datagen, "
               "repro.streams, repro.live; "
               "print(time.perf_counter() - started)")

END_TO_END = {"tuples_per_s": "1/s", "query_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulator.events": "count", "simulator.self_s": "s",
    "simulator.net_sends": "count", "simulator.net_send_s": "s",
    "transport.sends": "count", "transport.retransmissions": "count",
    "transport.retransmits_per_send": "ratio",
    "transport.on_message_s": "s",
    "engine.processor_handle_calls": "count",
    "engine.processor_self_s": "s", "engine.master_self_s": "s",
    "engine.ingester_self_s": "s", "engine.commits": "count",
    "engine.prepares": "count", "engine.updates_gathered": "count",
    "store.write_calls": "count", "store.write_s": "s",
    "store.versions": "count", "store.mb": "MB",
    "store.read_calls": "count", "store.read_s": "s",
    "store.cache_hit_ratio": "ratio",
    "program.gather_calls": "count", "program.gather_s": "s",
    "program.gather_changed_ratio": "ratio", "program.scatter_s": "s",
    "live.unpickle_calls": "count", "live.unpickle_s": "s",
    "live.unpickle_mb": "MB", "live.pickle_calls": "count",
    "live.pickle_s": "s", "live.pickle_mb": "MB",
    "live.master_idle_s": "s", "live.worker_events": "count",
    "live.worker_retransmissions": "count",
    "live.worker_peak_rss_mb": "MB",
    "trace.overhead_pct": "%",
}
MB = 1024.0 * 1024.0


def import_seconds() -> float:
    """Import time of the program's public packages in a fresh
    interpreter (interpreter start-up itself excluded)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans, counters: dict[str, float],
                  worker_rss_mb: list[float]) -> dict[str, float]:
    """One traced round's per-layer figures (see the README's map)."""
    by = spans.by_name()
    get = counters.get
    sends, retx = get("sends", 0), get("retransmissions", 0)
    hits, misses = get("cache_hits", 0), get("cache_misses", 0)
    gathers = by["program.gather"]
    return {
        "simulator.events": get("events", 0),
        "simulator.self_s": by["simulator.run"]["self_s"],
        "simulator.net_sends": by["simulator.net_send"]["calls"],
        "simulator.net_send_s": by["simulator.net_send"]["total_s"],
        "transport.sends": sends,
        "transport.retransmissions": retx,
        "transport.retransmits_per_send": _ratio(retx, sends),
        "transport.on_message_s": by["transport.on_message"]["self_s"],
        "engine.processor_handle_calls": by["engine.processor"]["calls"],
        "engine.processor_self_s": by["engine.processor"]["self_s"],
        "engine.master_self_s": by["engine.master"]["self_s"],
        "engine.ingester_self_s": by["engine.ingester"]["self_s"],
        "engine.commits": get("commits", 0),
        "engine.prepares": get("prepares", 0),
        "engine.updates_gathered": get("updates_gathered", 0),
        "store.write_calls": by["store.write"]["calls"],
        "store.write_s": by["store.write"]["total_s"],
        "store.versions": get("versions", 0),
        "store.mb": get("store_bytes", 0) / MB,
        "store.read_calls": by["store.read"]["calls"],
        "store.read_s": by["store.read"]["total_s"],
        "store.cache_hit_ratio": _ratio(hits, hits + misses),
        "program.gather_calls": gathers["calls"],
        "program.gather_s": gathers["total_s"],
        "program.gather_changed_ratio": _ratio(gathers["value"],
                                               gathers["calls"]),
        "program.scatter_s": by["program.scatter"]["total_s"],
        "live.unpickle_calls": by["live.unpickle"]["calls"],
        "live.unpickle_s": by["live.unpickle"]["total_s"],
        "live.unpickle_mb": by["live.unpickle"]["value"] / MB,
        "live.pickle_calls": by["live.pickle"]["calls"],
        "live.pickle_s": by["live.pickle"]["total_s"],
        "live.pickle_mb": by["live.pickle"]["value"] / MB,
        "live.master_idle_s": by["live.converge"]["self_s"],
        "live.worker_events": get("worker_events", 0),
        "live.worker_retransmissions": get("worker_retransmissions", 0),
        "live.worker_peak_rss_mb": max(worker_rss_mb, default=0.0),
    }


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is built from this checkout's sources, never from an
    # installed copy.
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return _fail(f"repro imported from {repro.__file__}, not {SRC}")
    import cases
    import hygiene
    import layers
    if args.workload not in cases.SHAPES:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(cases.SHAPES))

    imports: list[float] = []
    inputs = cases.make_inputs(args.workload, args.seed)
    tracer = layers.Tracer()
    program_class = cases.PROGRAMS[args.workload]

    class Traced(cases.Hooks):
        def begin(self) -> None:
            tracer.install(program_class)

        def end(self) -> None:
            tracer.uninstall()

    plain_hooks, traced_hooks = cases.Hooks(), Traced()
    plain, traced, spans = [], [], None
    attempted = failed = 0
    wrong: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        # Graphs cycle; a traced round and the untraced round after it
        # share a graph, so the tracing overhead compares like with like.
        turn = (len(traced) if trace_this
                else max(len(plain) - 1, 0) if args.trace else len(plain))
        inp = inputs[turn % len(inputs)]
        try:
            for _ in range(min(1 if imports else 3,
                               IMPORT_SAMPLES - len(imports))):
                imports.append(import_seconds())
            out = cases.run_round(inp, traced_hooks if trace_this
                                  else plain_hooks)
        except Exception:  # noqa: BLE001 - a round that raises fails whole
            tracer.uninstall()
            traceback.print_exc()
            for line in hygiene.reap_leftovers():
                print(f"perfbench: process left alive: {line}",
                      file=sys.stderr)
            attempted += cases.ops_per_round(inp)
            failed += cases.ops_per_round(inp)
            (traced if trace_this else plain).append(None)
        else:
            attempted += out.ops
            failed += out.failed
            wrong.extend(out.wrong)
            for line in out.wrong + out.failures:
                print(f"perfbench: {line}", file=sys.stderr)
            if trace_this:
                spans = tracer.collect()
                traced.append((out, layer_metrics(spans, out.counters,
                                                  out.worker_rss_mb)))
            else:
                plain.append(out)
            print(f"round {len(plain) + len(traced)}"
                  f"{' traced' if trace_this else ''}: setup "
                  f"{out.setup_s:.4f}s timed {out.timed_s:.3f}s queries "
                  f"{len(out.query_s)}", file=sys.stderr)
        enough = (len(plain) > MIN_ROUNDS
                  and len(traced) >= (MIN_TRACED_ROUNDS if args.trace
                                      else 0))
        if enough and time.perf_counter() >= deadline:
            break
    # One last scan, so that the command never returns with a process it
    # started still alive, whatever the last round did.
    attempted += 1
    leftovers = hygiene.reap_leftovers()
    if leftovers:
        failed += 1
        print("perfbench: processes left alive: " + "; ".join(leftovers),
              file=sys.stderr)
    plain = [out for out in plain[1:] if out is not None]
    traced = [entry for entry in traced if entry is not None]
    if not plain or (args.trace and not traced):
        return _fail("every measured round failed")

    median = statistics.median
    if args.trace:
        values = {name: median(metrics[name] for _out, metrics in traced)
                  for name in PER_LAYER if name != "trace.overhead_pct"}
        values["trace.overhead_pct"] = 100.0 * (
            median(out.timed_s for out, _m in traced)
            / median(out.timed_s for out in plain) - 1.0)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        layers.save(spans, str(OUT_DIR / f"{args.workload}-seed{args.seed}"
                                          "-spans.npz"))
    else:
        self_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "tuples_per_s": median(out.tuples / out.timed_s
                                   for out in plain),
            "query_s": median(q for out in plain for q in out.query_s),
            "setup_s": median(imports)
            + median(out.setup_s for out in plain),
            "peak_rss_mb": self_mb + max(sum(out.worker_rss_mb)
                                         for out in plain),
        }
        units = END_TO_END
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
