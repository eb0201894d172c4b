"""Steadiness check: do two sets of runs of the same code agree?

Runs ``perfbench/run.py`` for each workload as two sets of runs with
different seeds, alternating the sets (A1 B1 A2 B2 ...), so that drift
on the host lands on both.  For every end-to-end metric it prints each
set's median and its spread (interquartile range over the median), and
whether the sets agree within the metric's bound in ``BENCHMARK.json``:

* each set's spread, and that of both sets together, is within the
  bound;
* the two sets' medians differ, either way, by at most the bound;
* the share of failed operations is the same in both sets.

The bounds were set from this command's output.  Run from the root of a
checkout::

    python3 perfbench/steady.py [--workloads a,b] [--seconds S]

It makes ten runs per workload, five per set, each with another seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
#: Runs per set; seeds of set A are 1..RUNS, of set B 1001..1000+RUNS.
RUNS = 5
SEED_B = 1000


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range over the median)."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(1, RUNS + 1):
            for name, seed in (("A", index), ("B", SEED_B + index)):
                result = run_once(workload, seed, args.seconds)
                sets[name].append(result)
                values = " ".join(
                    f"{key}={entry['value']:.5g}"
                    for key, entry in result["metrics"].items())
                print(f"{workload} set {name} seed {seed}: correct="
                      f"{result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} {values}", flush=True)
        print(f"\n{workload}: {'metric':16s} {'median A':>12s} "
              f"{'spread A':>9s} {'median B':>12s} {'spread B':>9s} "
              f"{'B worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med_a, spr_a = spread([r["metrics"][name]["value"]
                                   for r in sets["A"]])
            med_b, spr_b = spread([r["metrics"][name]["value"]
                                   for r in sets["B"]])
            _med, spr_all = spread([r["metrics"][name]["value"]
                                    for runs in sets.values()
                                    for r in runs])
            worse = worse_by(med_a, med_b, metric["better"])
            spreads = (spr_a, spr_b, spr_all)
            agree = max(spreads) <= bound and abs(worse) <= bound
            steady = max(spreads) < bound / 3
            ok &= agree
            print(f"{'':{len(workload) + 2}s}{name:16s} {med_a:12.5g} "
                  f"{spr_a:9.3f} {med_b:12.5g} {spr_b:9.3f} {worse:8.3f} "
                  f"{spr_all:7.3f} {bound:6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}"
                  f"{'' if steady else ' (spread above a third of bound)'}")
        shares = {name: sorted({r["failed"] / r["attempted"]
                                for r in runs})
                  for name, runs in sets.items()}
        same_share = len(set(shares["A"] + shares["B"])) == 1
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok &= same_share and correct
        print(f"{'':{len(workload) + 2}s}failed share A={shares['A']} "
              f"B={shares['B']} {'same' if same_share else 'DIFFERENT'}; "
              f"all correct: {correct}\n", flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
