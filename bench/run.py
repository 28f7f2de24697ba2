"""Benchmark runner for omforge.

Run from the root of a checkout:

    python3 bench/run.py --workload closure-r3n8 --seed 1 --seconds 20 --trace 0

The run repeats whole rounds of the workload until --seconds of timed
work have passed; every round's outputs are checked after its timed
region.  Set-up (a fresh import of omforge plus input construction) is
done before the first round and again after every round, topped up to
SETUP_REPEATS with short pauses; setup_s is the median.

Rounds and set-ups are timed in reference seconds (see speed.py).
--trace 0 prints the end-to-end metrics (tracing off): ops_per_ref_s is
the operations of all rounds over their reference seconds.  --trace 1
runs one plain round, then alternates plain and traced rounds, and
prints the per-layer metrics:
per traced round calls and self time (wall clock) of each wrapped
function, the counters, and trace.overhead_s, the traced minus the plain
round time in reference seconds.
The last line of stdout is the JSON result; it is also saved, with the
spans of a traced run, under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

from speed import SpeedClock
from tracing import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 7
SETUP_GAP_S = 0.5
PROBE_SPAN = "speed.probe"
MODULES = (
    "core", "faces", "canonical", "programs", "extensions", "classify",
    "acceptance", "corpus",
)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def import_library():
    """Import omforge afresh from ./src, dropping any earlier import."""
    for name in [k for k in sys.modules if k == "omforge" or k.startswith("omforge.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"omforge.{m}") for m in MODULES}
    )


def set_up(workload, seed, clock):
    """One set-up: a fresh import of omforge and the workload's inputs.

    Returns the library, the inputs and the set-up's reference seconds.
    """
    def build():
        lib = import_library()
        return lib, workload.make_inputs(lib, seed)

    (lib, inputs), seconds, _ = clock.measure(build)
    return lib, inputs, seconds


class Tally:
    def __init__(self):
        self.rounds = 0
        self.timed = 0.0  # wall seconds, which bound the run's length
        self.ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def round(self, workload, lib, inputs, clock, tracer=None) -> float:
        """One timed and checked round; returns its reference seconds."""
        gc.collect()
        self.rounds += 1
        if tracer is not None:
            tracer.install()
            frame = tracer.start_round(self.rounds)
        try:
            (outputs, ops), ref_s, wall = clock.measure(
                lambda: workload.run_round(lib, inputs)
            )
        finally:
            if tracer is not None:
                tracer.close(frame)
                tracer.uninstall()
        self.timed += wall
        self.ref_s += ref_s
        self.attempted += ops
        kind = "traced" if tracer is not None else "plain"
        print(f"bench: round {self.rounds} {kind} {ops} ops {wall:.3f} s "
              f"{ref_s:.3f} ref_s", file=sys.stderr)
        failed, problems = workload.check(lib, inputs, outputs, self.rounds)
        self.failed += failed
        self.problems.extend(problems)
        return ref_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    workload = WORKLOADS[args.workload]
    clock = SpeedClock()
    try:
        lib, inputs, first = set_up(workload, args.seed, clock)
    except ImportError as exc:
        print(f"bench: cannot import omforge from ./src: {exc}", file=sys.stderr)
        return 1
    setups = [first]
    tally = Tally()

    def next_round(round_clock=clock, tracer=None) -> float:
        # Set-up is repeated between rounds, not back to back, so that its
        # median spans the run instead of one moment of the host's load.
        nonlocal lib, inputs
        ref_s = tally.round(workload, lib, inputs, round_clock, tracer)
        lib, inputs, seconds = set_up(workload, args.seed, clock)
        setups.append(seconds)
        return ref_s

    metrics = {}
    if args.trace == 0:
        while tally.rounds == 0 or tally.timed < args.seconds:
            next_round()
        while len(setups) < SETUP_REPEATS:
            time.sleep(SETUP_GAP_S)
            setups.append(set_up(workload, args.seed, clock)[2])
        print(f"bench: {tally.attempted / tally.timed:.4f} ops per wall second",
              file=sys.stderr)
        metrics["ops_per_ref_s"] = (tally.attempted / tally.ref_s, "ops/ref_s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    else:
        tracer = Tracer()
        # Probes in traced rounds are spans of their own, so that their
        # time is not booked to the layer they interrupt.
        traced_clock = SpeedClock(
            lambda probe: tracer.wrap(PROBE_SPAN, probe, counted=False)
        )
        # The first round of a process runs a few per cent slower than the
        # rest; it is left out of the overhead so that it does not hide it.
        next_round()
        plain, traced = [], []
        while len(traced) == 0 or tally.timed < args.seconds:
            plain.append(next_round())
            traced.append(next_round(traced_clock, tracer))
        metrics.update(tracer.layer_metrics(len(traced)))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain), "s"
        )

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        tracer.write_spans(stem + ".spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
