"""Run one fkspline benchmark workload and print its metrics.

    python3 perfbench/run.py --workload knot_search --seed 0 --seconds 15 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  With ``--trace 0`` the workload runs untraced for
``--seconds`` and the end-to-end metrics are printed; with ``--trace 1`` the
workload's main operation runs once untraced and once under the span
recorder, and the per-layer metrics are printed.  Every operation's output is
checked against the recorded reference.  Human-readable lines come first;
the last line of standard output is one JSON object.  Scratch files go to
``.bench_tmp/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Recorder, layer_metrics, tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7

# The shared machines this runs on change speed by tens of percent within
# seconds and between minutes: on a shared 2-core machine one fixed-mode grid
# search took 36 to 63 ms within three minutes, and two sets of ten 30-s
# runs of the same code differed by up to 28% in their medians.  So a fixed
# numpy kernel, which calls no fkspline code, is timed after every
# operation, and the timing of an operation run in this process is reported
# in seconds of a reference machine on which the kernel takes CAL_REF_S:
# seconds x CAL_REF_S / (mean kernel time around the operation), "around"
# being from one operation length before its start to one after its end,
# and at least the kernel timings just before and just after it.  A short
# operation is thus scaled by the machine's speed at that moment, a long
# one, which averages the machine's changes itself, by its speed over a
# longer stretch.  After an operation the kernel first waits
# CAL_SETTLE_SHARE of its length, at most CAL_SETTLE_S: BLAS threads a long
# operation leaves spinning slow the kernel by up to 2x for about 0.1 s.
# Set-up timings stay raw: the kernel does not track interpreter start-up
# and import.  So do replicate's (Workload.calibrated): a run has only three
# or four of its 4-s operations, too few kernel timings around each to
# estimate the speed the operation saw.  The summary lines give raw medians.
CAL_REF_S = 0.004
CAL_SETTLE_SHARE = 0.1
CAL_SETTLE_S = 0.2
_CAL_X = np.random.default_rng(0).standard_normal((10_000, 12))
_CAL_Y = _CAL_X @ np.linspace(-1.0, 1.0, 12)
_CAL_RIDGE = np.eye(12)


def calibrate() -> float:
    """Median seconds of five runs of the calibration kernel: 20 normal-
    equation solves on a 10000 x 12 design, the shape of a stacked spline
    fit, through the same BLAS (and BLAS threads) as fkspline."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            np.linalg.solve(_CAL_X.T @ _CAL_X + _CAL_RIDGE, _CAL_X.T @ _CAL_Y)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Scaled:
    """Timings of one kind of operation, raw and scaled to the reference
    machine, by input."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: dict[int, list[float]] = {}

    def add(self, key, seconds, factor):
        self.raw.append(seconds)
        self.scaled.setdefault(key, []).append(seconds * factor)

    def value(self) -> float:
        """Mean over the inputs of the median scaled timing per input, so
        that every input weighs the same whatever its number of samples."""
        return statistics.mean(statistics.median(v) for v in self.scaled.values())

    def count(self) -> int:
        return len(self.raw)


class Timeline:
    """Kernel timings of one run, with the time each ended."""

    def __init__(self):
        self.ends: list[float] = []
        self.kernel: list[float] = []
        self.calibrate()

    def calibrate(self, settle=0.0):
        time.sleep(settle)
        self.kernel.append(calibrate())
        self.ends.append(time.perf_counter())

    def factor(self, start, end) -> float:
        """CAL_REF_S over the mean kernel time around [start, end]."""
        width = end - start
        lo = min(bisect.bisect_left(self.ends, start - width),
                 bisect.bisect_left(self.ends, start) - 1)
        hi = max(bisect.bisect_right(self.ends, end + width),
                 bisect.bisect_right(self.ends, end) + 1)
        return CAL_REF_S / statistics.mean(self.kernel[max(lo, 0):hi])


def run_op(workload, kind, seed, tally):
    """One checked operation; returns its seconds, or None if it failed."""
    tally["attempted"] += 1
    try:
        seconds, output = getattr(workload, kind)(seed)
        errors = workload.check("bypass" if kind == "bypass" else "main", seed, output)
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        errors = [f"{kind} raised"]
    if errors:
        tally["failed"] += 1
        print(f"{workload.name} {kind} seed {seed}: " + "; ".join(errors), file=sys.stderr)
        return None
    return seconds


def measure(workload, timed, seconds, tally):
    """Closed loop over the timed inputs for about `seconds`.

    A round is one main operation and `bypass_repeats` bypass operations on
    one input; every other cycle through the inputs runs them in the
    opposite order, so that each input has the main operation first and
    last equally often (an input that always had it last read 10% faster
    in free mode).  Every input gets at least one round, and no round starts that would end, judged by the
    previous round, more than half a round after the deadline."""
    timeline = Timeline()
    done = []  # (kind, input, start, end, seconds) of each operation that succeeded
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    round_s = 0.0
    while rounds < len(timed) or time.perf_counter() + round_s / 2 < deadline:
        begin = time.perf_counter()
        seed = timed[rounds % len(timed)]
        kinds = ["main"] + ["bypass"] * workload.bypass_repeats
        if rounds // len(timed) % 2:
            kinds.reverse()
        for kind in kinds:
            op_start = time.perf_counter()
            elapsed = run_op(workload, kind, seed, tally)
            op_end = time.perf_counter()
            if elapsed is not None:
                done.append((kind, seed, op_start, op_end, elapsed))
            timeline.calibrate(min(CAL_SETTLE_S, CAL_SETTLE_SHARE * (op_end - op_start)))
        rounds += 1
        round_s = time.perf_counter() - begin
    print(f"{workload.name}: {rounds} rounds over inputs {timed} "
          f"in {time.perf_counter() - start:.1f} s")
    times = {"main": Scaled(), "bypass": Scaled()}
    for kind, seed, op_start, op_end, elapsed in done:
        factor = timeline.factor(op_start, op_end) if workload.calibrated else 1.0
        times[kind].add(seed, elapsed / workload.per_rep, factor)
    return times


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    peaks = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return max(peaks) / 1024.0


def untraced_run(workload, timed, checked, seconds, tally):
    inputs = sorted(set(timed) | {checked})
    setup = [workload.setup_seconds(inputs) for _ in range(SETUP_REPEATS)]
    workload.prepare(inputs)
    if workload.warm_up:
        run_op(workload, workload.warm_up, checked, tally)
    times = measure(workload, timed, seconds, tally)
    if not times["main"].count() or not times["bypass"].count():
        return None
    metrics = {
        "main_op_s": (times["main"].value(), "s"),
        "bypass_op_s": (times["bypass"].value(), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    main_label, bypass_label = workload.labels
    notes = {}
    for name, kind, label in (("main_op_s", "main", main_label),
                              ("bypass_op_s", "bypass", bypass_label)):
        how = (f"raw median {statistics.median(times[kind].raw):.6g} s"
               if workload.calibrated else "unscaled")
        notes[name] = f"{label}, {times[kind].count()} samples, {how}"
    notes["setup_s"] = f"median of {SETUP_REPEATS} fresh interpreters, unscaled"
    notes["peak_rss_mb"] = "largest single process"
    print(f"calibration kernel: {CAL_REF_S * 1000:g} ms on the reference machine, "
          f"{calibrate() * 1000:.3g} ms now")
    return metrics, notes


def traced_run(workload, seed, tally):
    """The main path on pool seed `seed`, traced.

    After a warm-up, untraced and traced runs alternate twice; the tracing
    overhead is the difference of their means, and the per-layer metrics
    come from the first traced run.  Times here are raw wall-clock seconds."""
    workload.prepare([seed])
    if run_op(workload, "traced", seed, tally) is None:
        return None
    walls = {"untraced": [], "traced": []}
    recorders = []
    for _ in range(2):
        walls["untraced"].append(run_op(workload, "traced", seed, tally))
        recorders.append(Recorder())
        with tracing(recorders[-1]):
            walls["traced"].append(run_op(workload, "traced", seed, tally))
    if None in walls["untraced"] + walls["traced"]:
        return None
    spans = recorders[0].spans
    metrics = layer_metrics(spans, walls["traced"][0])
    metrics["trace.wall_s"] = (walls["traced"][0], "s")
    metrics["trace.overhead_s"] = (
        statistics.mean(walls["traced"]) - statistics.mean(walls["untraced"]), "s")
    metrics.update(workload.pool_metrics(lambda kind: run_op(workload, kind, seed, tally)))
    print(f"{workload.name}: traced run on pool seed {seed}, {len(spans)} spans")
    return metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fkspline" / "__init__.py").is_file():
        print(f"perfbench: no fkspline sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, checked_input, timed_order

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    tempfile.tempdir = tmp
    try:
        workload = WORKLOADS[args.workload](Path(tmp))
        tally = {"attempted": 0, "failed": 0}
        checked = checked_input(args.seed)
        if args.trace:
            result = traced_run(workload, checked, tally)
        else:
            timed = timed_order(workload.timed_inputs, args.seed)
            result = untraced_run(workload, timed, checked, args.seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1
    metrics, notes = result
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  failed_ops_ratio = {tally['failed']}/{tally['attempted']} "
          f"= {tally['failed'] / tally['attempted']:.4g} ratio")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
