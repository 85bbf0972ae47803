"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py --workload knot_search

Runs each operation of the workload once on every pool seed and writes
``perfbench/reference/<workload>.json``.  Record only from a commit whose
outputs are known to be right: runs of later commits must reproduce these
outputs within the tolerances in ``workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import POOL, REFERENCE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"record-{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](tmp)
        seeds = list(range(POOL))
        workload.prepare(seeds)
        entries = {}
        for seed in seeds:
            start = time.perf_counter()
            if args.workload == "replicate":
                entries[str(seed)] = {"main": workload.traced(seed)[1]}
            else:
                entries[str(seed)] = {"main": workload.main(seed)[1],
                                      "bypass": workload.bypass(seed)[1]}
            print(f"seed {seed}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pool": POOL, "seeds": entries}, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
