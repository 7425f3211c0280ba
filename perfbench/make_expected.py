"""Write ``expected/chordal_sweep.jsonl``, the reference for chordal_sweep.

    python3 perfbench/make_expected.py

Run from the root of a checkout.  The file is the output of
``search --n 4 --t 2 --chordal-only --no-timing``.  Before writing it, every
row's verdict and failing degree are recomputed with ``check-cwl --engine
koszul`` and, where no degree component exceeds the Taylor engine's
generator cap, with ``check-cwl --engine taylor``; the two engines must agree
with each other and with the sweep.  The workload's own gate (exactly the 6
labellings of the counterexample fail, at degree 4) must pass as well.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import import_package, run_item  # noqa: E402
from workloads import EXPECTED_SWEEP, ChordalSweep  # noqa: E402


def main() -> int:
    package = import_package(Path.cwd() / "src")
    workload = ChordalSweep()
    argv = workload.ARGV
    status, sweep, *_ = run_item(package.cli.main, argv)
    if status != workload.exit_code:
        print(f"error: sweep exited with {status}", file=sys.stderr)
        return 1
    rows = [json.loads(line) for line in sweep.splitlines()[:-1]]
    workdir = HERE / "_work" / "make_expected"
    workdir.mkdir(parents=True, exist_ok=True)
    mismatches, taylor_rows = [], 0
    try:
        for k, row in enumerate(rows):
            path = workdir / f"graph_{k}.txt"
            path.write_text(
                f"graph {row['n']}\n" + "".join(f"{u} {v}\n" for u, v in row["edges"])
            )
            verdicts = {}
            for engine in ("koszul", "taylor"):
                status, out, *_ = run_item(package.cli.main, [
                    "check-cwl", "--graph", str(path), "--t", str(row["t"]),
                    "--engine", engine, "--format", "json"])
                if status == 3:  # a component above the Taylor cap
                    continue
                report = json.loads(out)
                failing = next((v["degree"] for v in report["per_degree"]
                                if v["verdict"] == "not linear"), None)
                verdicts[engine] = (report["overall"], failing)
            taylor_rows += "taylor" in verdicts
            if any(v != (row["cwl"], row["failing_degree"]) for v in verdicts.values()):
                mismatches.append((row["edges"], row["cwl"], verdicts))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workload.reference = sweep
    gate = workload.check([argv], [sweep])
    for edges, cwl, verdicts in mismatches:
        print(f"mismatch {edges}: sweep cwl={cwl}, engines {verdicts}", file=sys.stderr)
    for message in gate.values():
        print(f"gate: {message}", file=sys.stderr)
    if mismatches or gate:
        return 1
    EXPECTED_SWEEP.parent.mkdir(exist_ok=True)
    EXPECTED_SWEEP.write_text(sweep)
    print(f"wrote {EXPECTED_SWEEP.name}: {len(rows)} rows, koszul agrees on all, "
          f"taylor on the {taylor_rows} within its cap")
    return 0


if __name__ == "__main__":
    sys.exit(main())
