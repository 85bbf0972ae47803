#!/usr/bin/env python3
"""Check that this checkout's knot-search and CLI outputs are bit-identical to a commit's.

    python3 tools/same_outputs.py --parent REV

REV's src/ is extracted (git archive: no worktree entry is left behind)
into a temporary directory removed at exit.  Each tree computes one fixed
record set in its own interpreter: fixed-p fs0, fs2 and alphas searches on
pool seeds 0-63, GCV-stopped fs0 and fs2 searches on seeds 0-15, the
free 7x7 GCV grid on seeds 0, 1, 13 and 63 and the fixed 13x13 one on
seeds 0-1, every float as hex (README, "Testing").  Then each tree runs
the CLI commands of CLI_RUNS, simulate first, in its own directory under
the same relative paths (the data path is written into every output
header), and the two directories are compared byte for byte, the
simulated data included.  Prints the names that fkspline.__all__ gains
and loses and both trees' src/fkspline line counts (for information: they
change neither verdict nor exit status), then "identical", or the count of
differing records, the first of them and the largest relative change of
each float field, and the differing CLI files, and exits 1.
"""

import argparse
import concurrent.futures
import dataclasses
import hashlib
import io
import itertools
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench's lambda_select seeds 0-1, and 13 and 63, whose free-grid
# scores move most when the data move by roundoff
FREE_GRID_SEEDS = (0, 1, 13, 63)
# CLI commands run in order: simulate writes data/, the others read it
# and write under out/; a command's standard output is kept as
# out/<command>.stdout
CLI_RUNS = [
    ["simulate", "--outdir", "data"],
    ["fit", "--data", "data/dataset.csv", "--truth-labels", "data/labels.csv",
     "--outdir", "out/fit"],
    ["gcv", "--mode", "free", "--data", "data/dataset.csv", "--outdir", "out/gcv"],
    ["cluster", "--data", "data/dataset.csv", "--kmax", "6", "--labels", "data/labels.csv",
     "--outdir", "out/cluster"],
    ["replicate", "-R", "2", "--outdir", "out/replicate"],
]


def text(value) -> str:
    """A field as text: floats as hex, arrays and coordinates entry by entry."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "values") and hasattr(value, "lo"):  # JuppCoords
        return text(value.values) + f"@{text(value.lo)},{text(value.hi)}"
    if hasattr(value, "tolist") and not isinstance(value, (bool, int)):
        return "[" + " ".join(text(float(x)) for x in value.ravel().tolist()) + "]"
    return repr(value)


def search_lines(tag, dataset, config, search):
    from fkspline import FkSplineError, add_knots_gradually

    try:
        result = add_knots_gradually(dataset, config, search)
    except FkSplineError as exc:
        yield f"{tag} {type(exc).__name__}: {exc}"
        return
    for stage in result.stages:
        yield f"{tag} stage " + " ".join(f"{f.name}={text(getattr(stage, f.name))}"
                                          for f in dataclasses.fields(stage))
    model = result.model
    digest = hashlib.sha256(model.coeffs.tobytes() + model.diagnostics.residuals.tobytes())
    yield (f"{tag} chosen p={result.p} stopped_early={result.stopped_early} "
           f"fit={digest.hexdigest()}")


def grid_lines(tag, grid):
    for table in ("scores", "df", "sse"):
        yield f"{tag} {table}={text(getattr(grid, table))}"
    yield (f"{tag} failures={grid.failures!r} "
           f"choice={text(grid.lambda1)},{text(grid.lambda2)},{text(grid.gcv)}")


def records():
    import numpy as np

    from fkspline import (KnotSearchConfig, LambdaGrid, PenaltyConfig, gcv_grid_search,
                          make_basis_spec, variant_config)
    from fkspline.simulate import benchmark_config, generate_scenario

    configs = {"fs0": variant_config("fs0"), "fs2": variant_config("fs2"),
               "alphas": PenaltyConfig(alphas=(1e-6, 0.0, 1e-5))}
    fixed = KnotSearchConfig(order=4, max_knots=8, fixed_p=True, grid_size=50)
    stopped = KnotSearchConfig(order=4, max_knots=10, grid_size=50)
    free = KnotSearchConfig(order=4, max_knots=4, fixed_p=True, grid_size=50)
    for seed in range(64):
        dataset = generate_scenario(benchmark_config(seed=seed)).dataset
        for name, config in configs.items():
            yield from search_lines(f"fixed seed={seed} {name}", dataset, config, fixed)
        if seed < 16:
            for name in ("fs0", "fs2"):
                yield from search_lines(f"gcv-stopped seed={seed} {name}", dataset,
                                        configs[name], stopped)
        if seed in FREE_GRID_SEEDS:
            grid = gcv_grid_search(dataset, LambdaGrid.from_exponents(range(-6, 1)),
                                   search=free, mode="free")
            yield from grid_lines(f"free-grid seed={seed}", grid)
        if seed < 2:
            # perfbench's fixed-mode inputs: 8 equispaced knots, exponents -8..4
            lo, hi = dataset.domain
            spec = make_basis_spec(lo, hi, 4, np.linspace(lo, hi, 10)[1:-1])
            grid = gcv_grid_search(dataset, LambdaGrid.from_exponents(range(-8, 5)),
                                   spec=spec, mode="fixed")
            yield from grid_lines(f"fixed-grid seed={seed}", grid)


FIELD = re.compile(r"(\w+)=(\[[^\]]*\](?:@\S+)?|\S+)")
HEX = re.compile(r"(?<![\w.])-?(?:0x[0-9a-f]+\.?[0-9a-f]*p[-+]\d+|inf|nan)(?![\w.])")


def field_changes(want: str, got: str) -> dict:
    """The largest relative change of each field of a record pair whose
    values differ: over its hex floats when both hold as many, else inf."""
    fields = [dict(FIELD.findall(line)) for line in (want, got)]
    changes = {}
    for name in fields[0].keys() | fields[1].keys():
        a, b = (record.get(name, "") for record in fields)
        if a == b:
            continue
        xs, ys = ([float.fromhex(x) for x in HEX.findall(value)] for value in (a, b))
        change = math.inf
        if xs and len(xs) == len(ys):
            change = max(0.0 if x == y or (math.isnan(x) and math.isnan(y))
                         else abs(y - x) / abs(x) if x else math.inf
                         for x, y in zip(xs, ys))
        changes[name] = change
    return changes


def run(src: Path) -> subprocess.Popen:
    """A child interpreter printing the records of the fkspline under src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, __file__, "--emit", str(src)], env=env,
                            stdout=subprocess.PIPE, text=True)


def cli(src: Path, cwd: Path, args) -> subprocess.CompletedProcess:
    """One CLI command of the fkspline under src, run in cwd."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "fkspline.cli", *args], cwd=cwd, env=env,
                          capture_output=True)


def public_names(src: Path) -> set:
    """The names of fkspline.__all__ of the fkspline under src."""
    done = subprocess.run([sys.executable, "-c", "import fkspline; print(*fkspline.__all__)"],
                          cwd=src, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def src_lines(src: Path) -> int:
    """The line count of the fkspline modules under src, as wc -l counts."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "fkspline").glob("*.py"))


def cli_outputs(src: Path, work: Path) -> str:
    """Run CLI_RUNS with the fkspline under src in work; "" or the first failure."""
    (work / "out").mkdir()
    for args in CLI_RUNS:
        done = cli(src, work, args)
        if done.returncode:
            return f"{' '.join(args)} exited {done.returncode}: {done.stderr.decode()[-300:]}"
        (work / "out" / f"{args[0]}.stdout").write_bytes(done.stdout)
    return ""


def differing_files(want: Path, got: Path) -> tuple[list, int]:
    """The files under two directories that are missing on a side or differ
    in a byte, and the number of files compared."""
    names = sorted({path.relative_to(root) for root in (want, got)
                    for path in root.rglob("*") if path.is_file()})
    return [name for name in names if not (want / name).is_file() or not (got / name).is_file()
            or (want / name).read_bytes() != (got / name).read_bytes()], len(names)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="the commit to compare against")
    parser.add_argument("--emit", help=argparse.SUPPRESS)  # a child's src/ tree
    args = parser.parse_args()
    if args.emit:
        sys.path.insert(0, args.emit)
        import fkspline

        if not Path(fkspline.__file__).is_relative_to(args.emit):
            sys.exit(f"fkspline was imported from {fkspline.__file__}, not from {args.emit}")
        for line in records():
            print(line)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent, "src"],
                             capture_output=True)
    if archive.returncode:
        sys.exit(archive.stderr.decode(errors="replace").strip())
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp)
        children = [run(Path(tmp) / "src"), run(ROOT / "src")]
        (parent, _), (change, _) = (child.communicate() for child in children)
        if any(child.returncode for child in children):
            print("a record run failed", file=sys.stderr)
            return 2
        trees = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for name in trees:
            (Path(tmp) / name).mkdir()
        with concurrent.futures.ThreadPoolExecutor(len(trees)) as pool:
            failures = list(pool.map(cli_outputs, trees.values(),
                                     [Path(tmp) / name for name in trees]))
        if any(failures):
            print("a CLI run failed: " + "; ".join(filter(None, failures)), file=sys.stderr)
            return 2
        files, compared = differing_files(*(Path(tmp) / name for name in trees))
        before, after = (public_names(src) for src in trees.values())
        lines = [src_lines(src) for src in trees.values()]
    print("fkspline.__all__: " + ("; ".join(
        f"{verb} {', '.join(sorted(names))}" for verb, names in
        (("added", after - before), ("removed", before - after)) if names) or "unchanged"))
    print(f"src/fkspline lines: {lines[0]} at {args.parent}, {lines[1]} in this tree "
          f"({lines[1] - lines[0]:+d})")
    pairs = list(itertools.zip_longest(parent.splitlines(), change.splitlines(),
                                       fillvalue="(none)"))
    differ = [i for i, (want, got) in enumerate(pairs) if want != got]
    if not differ and not files:
        print(f"identical ({len(pairs)} records, {compared} CLI output files)")
        return 0
    if files:
        print(f"{len(files)} of {compared} CLI output files differ: "
              + ", ".join(str(name) for name in files))
    if not differ:
        return 1
    want, got = pairs[differ[0]]
    print(f"{len(differ)} of {len(pairs)} records differ; the first is record {differ[0]}:\n"
          f"  {args.parent}: {want}\n  this tree: {got}")
    largest = {}
    for i in differ:
        for name, change in field_changes(*pairs[i]).items():
            largest[name] = max(largest.get(name, 0.0), change)
    print("largest relative change per field (inf: not a change of float values):")
    for name, change in sorted(largest.items()):
        print(f"  {name}: {change:.3g}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
