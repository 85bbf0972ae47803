"""The four benchmark workloads, their inputs and their correctness checks.

Import this module only with the checkout's ``src/`` on ``sys.path``.

Each workload alternates two operations in a closed loop, one caller that
waits for each call: the *main* operation exercises the layer the workload
is about, the *bypass* operation runs the same path with that layer left out.
Inputs come from a pool of POOL scenario seeds whose reference outputs are
recorded in ``reference/<workload>.json`` (see ``record.py``).  Timed
operations cycle through a fixed set of pool seeds, the same in every run
(``Workload.timed_inputs``), so that runs with different benchmark seeds time
the same work; the benchmark seed picks the order of that cycle and one more
pool input, checked untimed during the warm-up and traced by ``--trace 1``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fkspline import cli
from fkspline.basis import make_basis_spec
from fkspline.freeknot import KnotSearchConfig, fit_free_knot
from fkspline.lambda_select import LambdaGrid, gcv_grid_search
from fkspline.simulate import benchmark_config, generate_scenario
from fkspline.smoother import variant_config

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"

POOL = 64
# Continuous outputs must match the reference to this relative tolerance:
# loose enough for a reordered sum or a Gauss-Newton path that converges
# to the same optimum, far tighter than any defect moves them.
RTOL = 1e-3
# Knot positions, as a fraction of the domain width.
KNOT_TOL = 1e-2
SUBPROCESS_TIMEOUT_S = 120


def checked_input(seed: int) -> int:
    """The pool seed a benchmark seed warms up on and traces."""
    return seed % POOL


def timed_order(count: int, seed: int) -> list[int]:
    """Pool seeds 0 .. count-1 in the order a run cycles through them,
    drawn from the benchmark seed."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def child_env(tmp: Path) -> dict:
    """Environment for child interpreters: the checkout's sources first.

    No BLAS or OpenMP thread settings are made, so worker processes
    oversubscribe the cores exactly as they do for a user."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv, tmp: Path) -> float:
    """Run a child interpreter to completion; return its wall time.

    The child gets its own process group, so that on a timeout its workers
    are killed with it."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(tmp), cwd=tmp,
                            stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{argv[:3]} exited with code {code}")
    return elapsed


def quiet_cli(argv) -> None:
    """Call ``fkspline.cli.main`` in-process, swallowing its stdout echo."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fkspline {argv[0]} exited with code {code}")


# ---------------------------------------------------------------------------
# comparison helpers: each returns a list of mismatch descriptions


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def compare_values(what, ref, got) -> list[str]:
    ref, got = list(ref), list(got)
    if len(ref) != len(got):
        return [f"{what}: {len(got)} values, reference has {len(ref)}"]
    bad = [i for i, (r, g) in enumerate(zip(ref, got)) if not _close(r, g)]
    if bad:
        i = bad[0]
        return [f"{what}[{i}] = {got[i]!r}, reference {ref[i]!r} ({len(bad)} differ)"]
    return []


def compare_knots(what, ref, got, width) -> list[str]:
    if len(ref) != len(got):
        return [f"{what}: {len(got)} knots, reference has {len(ref)}"]
    worst = max((abs(r - g) for r, g in zip(ref, got)), default=0.0)
    if worst > KNOT_TOL * width:
        return [f"{what}: knots moved by {worst:.3g} (> {KNOT_TOL} of the domain width)"]
    return []


def compare_csv_body(what, ref_rows, got_rows) -> list[str]:
    """Cell by cell: numbers within RTOL, other cells exactly."""
    if len(ref_rows) != len(got_rows):
        return [f"{what}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    for i, (r_row, g_row) in enumerate(zip(ref_rows, got_rows)):
        if len(r_row) != len(g_row):
            return [f"{what} row {i}: {len(g_row)} cells, reference has {len(r_row)}"]
        for r, g in zip(r_row, g_row):
            try:
                same = _close(r, g)
            except ValueError:
                same = r == g
            if not same:
                return [f"{what} row {i}: {g_row}, reference {r_row}"]
    return []


def csv_body(path: Path) -> list[list[str]]:
    """Rows of a CLI CSV below its '#' config comment, header included."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: inputs, a main and a bypass operation, and checks.

    ``main``/``bypass`` take a pool seed and return (seconds, output);
    ``traced`` runs the main path in this process (it may differ from
    ``main`` when that runs in a child process).  Outputs are JSON-friendly
    summaries, compared against the recorded reference by ``check``.
    """

    name = ""
    labels = ("", "")  # names of the main and bypass timings in the summary
    per_rep = 1  # main/bypass timings are divided by this
    bypass_repeats = 1
    timed_inputs = 4  # timed operations cycle through pool seeds 0 .. timed_inputs-1
    # Whether run.py scales the timings by the calibration kernel.
    calibrated = True
    # Operation run once, untimed, so that lazy imports and first-call
    # set-up finish before timing.
    warm_up = "bypass"

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self._reference = None

    def setup_argv(self, seeds) -> list[str]:
        """Child interpreter arguments that import fkspline.cli and make
        the inputs for these pool seeds."""
        raise NotImplementedError

    def setup_seconds(self, seeds) -> float:
        """Wall time of one fresh interpreter running ``setup_argv``."""
        return run_child(self.setup_argv(seeds), self.tmp)

    def prepare(self, seeds) -> None:
        """Make the inputs for these pool seeds in this process."""

    def main(self, seed):
        raise NotImplementedError

    def bypass(self, seed):
        raise NotImplementedError

    def traced(self, seed):
        return self.main(seed)

    def pool_metrics(self, run) -> dict:
        """Worker-pool timings for the traced run; zero where there is no pool.

        ``run(kind)`` does one checked operation on the traced input and
        returns its seconds, or None if it failed."""
        return {"cli.pool.serial_s_per_rep": (0.0, "s"),
                "cli.pool.parallel_s_per_rep": (0.0, "s"),
                "cli.pool.parallel_efficiency": (0.0, "ratio")}

    def reference(self, seed) -> dict:
        if self._reference is None:
            path = REFERENCE / f"{self.name}.json"
            self._reference = json.loads(path.read_text(encoding="utf-8"))["seeds"]
        return self._reference[str(seed)]

    def check(self, kind, seed, output) -> list[str]:
        raise NotImplementedError


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


_SCENARIO_SETUP = """
import sys, fkspline.cli
from fkspline.simulate import benchmark_config, generate_scenario
for s in sys.argv[1:]:
    generate_scenario(benchmark_config(seed=int(s)))
"""


class _ScenarioWorkload(Workload):
    """Inputs are benchmark scenarios (4 groups x 50 curves x 50 points)."""

    def setup_argv(self, seeds):
        return ["-c", _SCENARIO_SETUP, *map(str, seeds)]

    def prepare(self, seeds):
        self.datasets = {s: generate_scenario(benchmark_config(seed=s)).dataset for s in seeds}


class KnotSearch(_ScenarioWorkload):
    """fit_free_knot with fs2 (main) and fs0 (bypass: no penalty matrices)."""

    name = "knot_search"
    labels = ("fit_fs2_s", "fit_fs0_s")

    def _fit(self, seed, variant):
        search = KnotSearchConfig(order=4, max_knots=8, fixed_p=True, grid_size=50)
        dataset = self.datasets[seed]
        seconds, model = _timed(fit_free_knot, dataset, variant_config(variant), search)
        return seconds, {"knots": list(model.spec.interior_knots),
                         "gcv": model.diagnostics.gcv}

    def main(self, seed):
        return self._fit(seed, "fs2")

    def bypass(self, seed):
        return self._fit(seed, "fs0")

    def check(self, kind, seed, output):
        variant = "fs2" if kind == "main" else "fs0"
        ref = self.reference(seed)[kind]
        lo, hi = self.datasets[seed].domain
        return (compare_knots(f"{variant} knots", ref["knots"], output["knots"], hi - lo)
                + compare_values(f"{variant} gcv", [ref["gcv"]], [output["gcv"]]))


class LambdaSelect(_ScenarioWorkload):
    """gcv_grid_search in free mode (main) and fixed mode (bypass)."""

    name = "lambda_select"
    labels = ("gcv_free_s", "gcv_fixed_s")
    bypass_repeats = 5  # a fixed-mode search is ~50x cheaper than a free one
    timed_inputs = 2  # a free-mode search takes seconds

    def main(self, seed):
        grid = LambdaGrid.from_exponents(range(-6, 1))
        search = KnotSearchConfig(order=4, max_knots=4, fixed_p=True, grid_size=50)
        seconds, result = _timed(gcv_grid_search, self.datasets[seed], grid=grid,
                                 search=search, mode="free")
        return seconds, _grid_summary(result)

    def bypass(self, seed):
        dataset = self.datasets[seed]
        lo, hi = dataset.domain
        spec = make_basis_spec(lo, hi, 4, np.linspace(lo, hi, 10)[1:-1])
        grid = LambdaGrid.from_exponents(range(-8, 5))
        seconds, result = _timed(gcv_grid_search, dataset, grid=grid, spec=spec, mode="fixed")
        return seconds, _grid_summary(result)

    def check(self, kind, seed, output):
        ref = self.reference(seed)[kind]
        errors = compare_values(f"{kind} scores", ref["scores"], output["scores"])
        # The selected cell must be optimal in the reference table, so that
        # a near-tie resolved the other way still passes.
        values = ref["values"]
        l1, l2 = output["selected"]
        if l1 not in values or l2 not in values:
            return errors + [f"{kind}: selected ({l1}, {l2}) is off the grid"]
        scores = ref["scores"]
        picked = scores[values.index(l1) * len(values) + values.index(l2)]
        best = min(s for s in scores if not math.isnan(s))
        if not picked <= best * (1.0 + RTOL):
            errors.append(f"{kind}: selected ({l1}, {l2}) scores {picked}, best is {best}")
        return errors


def _grid_summary(result) -> dict:
    return {"selected": [result.lambda1, result.lambda2],
            "values": list(result.lambda2_values),
            "scores": [float(x) for x in result.scores.ravel()]}


CLUSTER_KNOTS = "0.75,1.25,1.75,2.25,2.75,3.25,3.75,4.25"  # inside every pool dataset's domain


class ClusterCli(Workload):
    """``fkspline cluster`` in-process on 1000-curve CSV datasets, with the
    elbow trace (main) and at a fixed k = 4 (bypass: no elbow)."""

    name = "cluster_cli"
    labels = ("cluster_cli_s", "cluster_cli_k4_s")

    def setup_argv(self, seeds):
        code = ("import sys, fkspline.cli as cli\n"
                "for s in sys.argv[2:]:\n"
                "    cli.main(['simulate', '--curves-per-group', '250', '--seed', s,\n"
                "              '--outdir', sys.argv[1] + '/data-' + s])\n")
        return ["-c", code, str(self.tmp), *map(str, seeds)]

    def prepare(self, seeds):
        for s in seeds:
            if not (self.tmp / f"data-{s}" / "dataset.csv").is_file():
                self.simulate(s)

    def simulate(self, seed):
        quiet_cli(["simulate", "--curves-per-group", "250", "--seed", str(seed),
                   "--outdir", str(self.tmp / f"data-{seed}")])

    def _cluster(self, seed, kind):
        data = self.tmp / f"data-{seed}"
        out = self.tmp / f"cluster-{kind}"
        k_args = ["--kmax", "8"] if kind == "main" else ["--k", "4"]
        argv = ["cluster", "--data", str(data / "dataset.csv"), "--knots", CLUSTER_KNOTS,
                *k_args, "--method", "kmeans", "--labels", str(data / "labels.csv"),
                "--outdir", str(out)]
        seconds, _ = _timed(quiet_cli, argv)
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        summary = {"k": metrics["k"], "w": metrics["w"],
                   "ari": metrics["adjusted_rand_index"]}
        if kind == "main":
            summary["suggested_k"] = metrics["suggested_k"]
            summary["elbow_w"] = [float(row[1]) for row in csv_body(out / "elbow.csv")[1:]]
        return seconds, summary

    def main(self, seed):
        return self._cluster(seed, "main")

    def bypass(self, seed):
        return self._cluster(seed, "bypass")

    def check(self, kind, seed, output):
        ref = self.reference(seed)[kind]
        errors = []
        for key in ("k", "suggested_k"):
            if ref.get(key) != output.get(key):
                errors.append(f"{kind} {key} = {output.get(key)}, reference {ref.get(key)}")
        errors += compare_values(f"{kind} w/ari", [ref["w"], ref["ari"]],
                                 [output["w"], output["ari"]])
        if kind == "main":
            errors += compare_values("elbow W", ref["elbow_w"], output["elbow_w"])
        return errors


REPLICATIONS = 4
WORKERS = 2


class Replicate(Workload):
    """``fkspline replicate`` at --threads 1 as a child process (main) and
    in-process (bypass: no interpreter start-up or import); timings are per
    replication.

    The worker pool (--threads 2) is timed in the traced run only: with
    every worker's BLAS threads spinning on the same two cores, its wall
    time on a 2-core machine ranged from 2.0 to 5.0 s per replication over
    five runs, too unsteady to gate.  ``pool_metrics`` reports it ungated.
    """

    name = "replicate"
    labels = ("replicate_serial_s_per_rep", "replicate_inprocess_s_per_rep")
    per_rep = REPLICATIONS
    timed_inputs = 1  # one operation already runs REPLICATIONS scenarios
    # Three or four 4-s operations of each kind per 30-s run: over ten runs
    # the scaled timings spread twice as much as the raw ones.
    calibrated = False

    def __init__(self, tmp):
        super().__init__(tmp)
        self._previous = (None, None)

    def setup_argv(self, seeds):
        return ["-c", "import fkspline.cli"]

    def _argv(self, seed, threads, out):
        return ["replicate", "-R", str(REPLICATIONS), "--seed", str(seed),
                "--variants", "fs0,fs2", "--methods", "kmeans,ward",
                "--threads", str(threads), "--outdir", str(out)]

    def _child(self, seed, threads):
        out = self.tmp / f"replicate-{threads}"
        seconds = run_child(["-m", "fkspline.cli", *self._argv(seed, threads, out)], self.tmp)
        return seconds, self._bodies(out)

    @staticmethod
    def _bodies(out):
        return {"runs": csv_body(out / "runs.csv"), "fits": csv_body(out / "fits.csv")}

    def main(self, seed):
        return self._child(seed, 1)

    def bypass(self, seed):
        out = self.tmp / "replicate-inprocess"
        seconds, _ = _timed(quiet_cli, self._argv(seed, 1, out))
        return seconds, self._bodies(out)

    def traced(self, seed):
        return self.bypass(seed)

    def parallel(self, seed):
        return self._child(seed, WORKERS)

    def check(self, kind, seed, output):
        ref = self.reference(seed)["main"]
        errors = []
        for name in ("runs", "fits"):
            errors += compare_csv_body(f"{name}.csv", ref[name], output[name])
        # The worker count must not change a byte of the results: compare
        # with the previous operation when it ran the same seed.
        if self._previous[0] == seed and self._previous[1] != output:
            errors.append("runs.csv/fits.csv bodies differ between --threads 1 and 2")
        self._previous = (seed, output)
        return errors

    def pool_metrics(self, run):
        serial = run("main")
        parallel = run("parallel")
        if serial is None or parallel is None:
            return super().pool_metrics(run)
        return {
            "cli.pool.serial_s_per_rep": (serial / self.per_rep, "s"),
            "cli.pool.parallel_s_per_rep": (parallel / self.per_rep, "s"),
            "cli.pool.parallel_efficiency": (serial / (WORKERS * parallel), "ratio"),
        }


WORKLOADS = {w.name: w for w in (KnotSearch, LambdaSelect, ClusterCli, Replicate)}
